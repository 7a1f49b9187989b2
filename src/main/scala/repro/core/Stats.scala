package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import scala.collection.mutable

/** The sufficient statistics of the whole model (Sections 4 and 5): for
  * every ordered attribute pair (A_i, A_j), the diagonal i = j included, and
  * every value pair (c, e) seen together in a tuple, the number of such
  * tuples and the sum of their confidence weights (Algorithm 2). NULL is the
  * empty string and is counted like any other value.
  *
  * One shuffle-free Spark job computes them (`compute`): each task weighs
  * its tuples by `CompensatoryScore.tupleWeight` and pre-aggregates the
  * pairs i ≤ j; the driver merges the partials in partition order and fills
  * every table in one loop, mirroring each (i, j) entry as (j, i). CPTs,
  * priors, domains, co-occurrence and corr are all projections of it.
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

  /** The pass over a relation that carries the `conf` column of
    * `CompensatoryScore.withConfidence`, each tuple weighed from that
    * column, as a local DataFrame with columns (ai, aj, c, e, n, w): count
    * and Σ weight per ordered attribute pair and value pair. Querying it
    * starts no further Spark job.
    */
  def aggregate(withConf: DataFrame, attrs: Seq[String], tau: Double, beta: Double): DataFrame = {
    val confIdx = withConf.schema.fieldIndex("conf")
    val rows = Seq.newBuilder[(Int, Int, String, String, Long, Double)]
    pass(withConf, attrs, (row, _) => CompensatoryScore.weight(row.getDouble(confIdx), tau, beta)) {
      (i, j, ce, s) => rows += ((i, j, ce._1, ce._2, s.n, s.w))
    }
    withConf.sparkSession.createDataFrame(rows.result()).toDF("ai", "aj", "c", "e", "n", "w")
  }

  /** Run the pass once. The UCs and score parameters only shape the
    * weights, so count-only callers may leave them out.
    */
  def compute(
      df: DataFrame,
      attrs: Seq[String],
      ucs: UcSet = UcSet.empty,
      params: CompensatoryScore.Params = CompensatoryScore.Params(),
  ): Stats = {
    val unary = Array.fill(attrs.length)(Map.newBuilder[String, Long])
    val pairs = mutable.Map.empty[(Int, Int), mutable.Builder[((String, String), Long), Map[(String, String), Long]]]
    val corr = mutable.Map.empty[(Int, Int), mutable.Builder[((String, String), Double), Map[(String, String), Double]]]
    pass(df, attrs, (_, t) => CompensatoryScore.tupleWeight(t, attrs, ucs, params)) { (i, j, ce, s) =>
      if (i == j) unary(i) += ce._1 -> s.n
      else {
        pairs.getOrElseUpdate((i, j), Map.newBuilder) += ce -> s.n
        // NULL is not an observation: pairs with an empty side carry no
        // co-occurrence signal (at a 30% missing rate they would dominate
        // the table with noise). `CompensatoryScore.corrTable` filters
        // alike. A zero sum is dropped; its attribute pair stays.
        if (!Values.isNull(ce._1) && !Values.isNull(ce._2)) {
          val ws = corr.getOrElseUpdate((i, j), Map.newBuilder)
          if (s.w != 0.0) ws += ce -> s.w
        }
      }
    }
    val counts = unary.indices.map(i => i -> unary(i).result()).toMap
    Stats(attrs, CoOccurrence(counts.get(0).fold(0L)(_.values.sum), counts, pairs.view.mapValues(_.result()).toMap),
      corr.view.mapValues(_.result()).toMap)
  }

  /** Count and Σ weight of one (i, j, c, e) group; the sum starts at +0.0,
    * as Spark's `sum` does.
    */
  private final class Sum(var n: Long = 0L, var w: Double = 0.0)

  private type Sums = java.util.HashMap[(String, String), Sum]

  private def add(sums: Sums, ce: (String, String), n: Long, w: Double): Unit = {
    val s = sums.computeIfAbsent(ce, _ => new Sum)
    s.n += n
    s.w += w
  }

  /** One partition's pre-aggregate: entry k is attribute pair `pair(k)` (an
    * index into the i ≤ j pairs), value pair (c(k), e(k)), `n(k)` rows and
    * Σ weight `w(k)`. Each distinct value is one String instance, so it is
    * serialized once.
    */
  private final case class Partial(pair: Array[Int], c: Array[String], e: Array[String], n: Array[Long],
      w: Array[Double])

  /** The pass: one Spark job, no shuffle. Each task reads its rows into
    * tuples (`Values.ofRow`), weighs each by `weigh(row, tuple)` and sums
    * per (i, j, c, e) for i ≤ j in row order; the driver adds the partition
    * sums in partition order, the association of Spark's partial/final
    * aggregation. `f` sees every merged entry, and every i < j entry again
    * as (j, i, (e, c)). Each value is one String instance and each (c, e)
    * key is built once.
    */
  private def pass(df: DataFrame, attrs: Seq[String], weigh: (Row, Array[String]) => Double)(
      f: (Int, Int, (String, String), Sum) => Unit): Unit = {
    val ij = for { i <- attrs.indices; j <- i until attrs.length } yield (i, j)
    val idx = attrs.map(df.schema.fieldIndex).toArray
    val partials = df.rdd.mapPartitions { rows =>
      val sums = Array.fill(ij.length)(new Sums)
      val canon = new java.util.HashMap[String, String]
      rows.foreach { row =>
        val t = Values.ofRow(row, idx).map(v => canon.computeIfAbsent(v, _ => v))
        val w = weigh(row, t)
        ij.indices.foreach { p =>
          val (i, j) = ij(p)
          add(sums(p), (t(i), t(j)), 1L, w)
        }
      }
      val size = sums.iterator.map(_.size).sum
      val out = Partial(new Array(size), new Array(size), new Array(size), new Array(size), new Array(size))
      var k = 0
      sums.indices.foreach(p => sums(p).forEach { (ce, s) =>
        out.pair(k) = p; out.c(k) = ce._1; out.e(k) = ce._2; out.n(k) = s.n; out.w(k) = s.w
        k += 1
      })
      Iterator.single(out)
    }.collect()

    val canon = new java.util.HashMap[String, String]
    def intern(v: String) = canon.computeIfAbsent(v, _ => v)
    val merged = Array.fill(ij.length)(new Sums)
    partials.foreach(part => part.pair.indices.foreach { k =>
      add(merged(part.pair(k)), (intern(part.c(k)), intern(part.e(k))), part.n(k), part.w(k))
    })
    ij.indices.foreach { p =>
      val (i, j) = ij(p)
      merged(p).forEach { (ce, s) =>
        f(i, j, ce, s)
        if (i != j) f(j, i, ce.swap, s)
      }
    }
  }
}
