package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** The sufficient statistics of the whole model (Sections 4 and 5): for
  * every ordered attribute pair (A_i, A_j), the diagonal i = j included, and
  * every value pair (c, e) seen together in a tuple, the number of such
  * tuples and the sum of their confidence weights (Algorithm 2). NULL is the
  * empty string and is counted like any other value.
  *
  * One Spark aggregation computes them (`compute`); CPTs, priors, domains,
  * the co-occurrence counts and the corr table are all projections of the
  * one collected result, derived on the driver.
  *
  * @param co   the counts: per attribute, value → count (the diagonal
  *             i = j); per ordered attribute pair i ≠ j, (c, e) → count
  * @param corr per ordered attribute pair i ≠ j: (c, e) → Σ weight, over
  *             pairs with both sides non-NULL; zero sums are dropped. Each
  *             (c, e) key is the instance `co.pairs` holds.
  */
final case class Stats(
    attrs: Seq[String],
    co: CoOccurrence,
    corr: Map[(Int, Int), Map[(String, String), Double]],
) {

  /** dom(A_j) in canonical order: count descending, then value. The order is
    * a function of the data alone, never of Spark's partitioning, and
    * `DomainPruning` and `Inference.repairTuple` break ties by it.
    */
  def domain(j: Int): IndexedSeq[String] =
    co.unary(j).toIndexedSeq.sortBy { case (v, n) => (-n, v) }.map(_._1)

  def domains: Map[Int, IndexedSeq[String]] = attrs.indices.map(j => j -> domain(j)).toMap
}

object Stats {

  /** The one aggregation, with columns (ai, aj, c, e, n, w): tuple count and
    * Σ weight(conf) per ordered attribute pair and value pair. `withConf`
    * carries the `conf` column of `CompensatoryScore.withConfidence`.
    */
  def aggregate(withConf: DataFrame, attrs: Seq[String], tau: Double, beta: Double): DataFrame = {
    val pairs = for {
      i <- attrs.indices
      j <- attrs.indices
    } yield struct(
      lit(i) as "ai",
      lit(j) as "aj",
      coalesce(col(attrs(i)), lit(Values.Null)) as "c",
      coalesce(col(attrs(j)), lit(Values.Null)) as "e",
    )
    withConf
      .select(explode(array(pairs: _*)) as "p", CompensatoryScore.weightExpr(col("conf"), tau, beta) as "w")
      .select(col("p.ai"), col("p.aj"), col("p.c"), col("p.e"), col("w"))
      .groupBy("ai", "aj", "c", "e")
      .agg(count(lit(1)) as "n", sum("w") as "w")
  }

  /** Run the aggregation once and collect it. The UCs and score parameters
    * only shape the weights, so count-only callers may leave them out.
    */
  def compute(
      df: DataFrame,
      attrs: Seq[String],
      ucs: UcSet = UcSet.empty,
      params: CompensatoryScore.Params = CompensatoryScore.Params(),
  ): Stats = {
    val withConf = CompensatoryScore.withConfidence(df, attrs, ucs, params.lambda)
    val rows = aggregate(withConf, attrs, params.tau, params.beta).collect()
    // One String instance per distinct value, shared by every table derived
    // below (and so written once when the model is serialized).
    val canon = mutable.HashMap.empty[String, String]
    def intern(s: String) = canon.getOrElseUpdate(s, s)
    val (diag, off) = rows.iterator
      .map(r => Entry(r.getInt(0), r.getInt(1), (intern(r.getString(2)), intern(r.getString(3))), r.getLong(4),
        r.getDouble(5)))
      .toSeq
      .partition(e => e.ai == e.aj)
    val unary = attrs.indices.map(i => i -> Map.empty[String, Long]).toMap ++
      diag.groupBy(_.ai).map { case (i, es) => i -> es.iterator.map(e => e.ce._1 -> e.n).toMap }
    // Each (c, e) key is built once above and shared by `pairs` and `corr`.
    val pairs = off.groupBy(e => (e.ai, e.aj)).map { case (k, es) => k -> es.iterator.map(e => e.ce -> e.n).toMap }
    // NULL is not an observation: pairs with an empty side carry no
    // co-occurrence signal (at a 30% missing rate they would dominate the
    // table with noise). `CompensatoryScore.corrTable` filters alike.
    val corr = corrOf(off.collect { case Entry(i, j, ce @ (c, e), _, w) if !Values.isNull(c) && !Values.isNull(e) =>
      (i, j, ce, w)
    })
    Stats(attrs, CoOccurrence(unary.get(0).fold(0L)(_.values.sum), unary, pairs), corr)
  }

  /** The corr map (ai, aj) → ((c, e) → w) from (ai, aj, (c, e), w) rows,
    * keyed by the rows' own (c, e) instances; zero-weight entries are
    * dropped.
    */
  def corrOf(rows: Seq[(Int, Int, (String, String), Double)]): Map[(Int, Int), Map[(String, String), Double]] =
    rows.groupBy(r => (r._1, r._2)).map { case (k, rs) =>
      k -> rs.iterator.filter(_._4 != 0.0).map(r => r._3 -> r._4).toMap
    }

  private final case class Entry(ai: Int, aj: Int, ce: (String, String), n: Long, w: Double)
}
