package repro.core

import org.apache.spark.sql.DataFrame

/** The sufficient statistics of the whole model (Sections 4 and 5): for
  * every ordered attribute pair (A_i, A_j), the diagonal i = j included, and
  * every value pair (c, e) seen together in a tuple, the number of such
  * tuples and the sum of their confidence weights (Algorithm 2). NULL is the
  * empty string and is counted like any other value.
  *
  * One shuffle-free Spark job computes them (`compute`): each partition
  * pre-aggregates its rows for the pairs i ≤ j, the driver collects the
  * partials and merges them in partition order, and mirrors every (i, j)
  * entry as (j, i). CPTs, priors, domains, the co-occurrence counts and the
  * corr table are all projections of that one result, derived on the driver.
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

  /** The one pass as a local DataFrame with columns (ai, aj, c, e, n, w):
    * tuple count and Σ weight(conf) per ordered attribute pair and value
    * pair. `withConf` carries the `conf` column of
    * `CompensatoryScore.withConfidence`. The rows are collected already, so
    * querying the DataFrame starts no further Spark job.
    */
  def aggregate(withConf: DataFrame, attrs: Seq[String], tau: Double, beta: Double): DataFrame = {
    val rows = entries(withConf, attrs, tau, beta).toSeq.map(e => (e.ai, e.aj, e.ce._1, e.ce._2, e.n, e.w))
    withConf.sparkSession.createDataFrame(rows).toDF("ai", "aj", "c", "e", "n", "w")
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
    val withConf = CompensatoryScore.withConfidence(df, attrs, ucs, params.lambda)
    val (diag, off) = entries(withConf, attrs, params.tau, params.beta).partition(e => e.ai == e.aj)
    val unary = attrs.indices.map(i => i -> Map.empty[String, Long]).toMap ++
      diag.groupBy(_.ai).map { case (i, es) => i -> es.iterator.map(e => e.ce._1 -> e.n).toMap }
    // Each (c, e) key is built once in `entries` and shared by `pairs` and `corr`.
    val pairs = off.groupBy(e => (e.ai, e.aj)).map { case (k, es) => k -> es.iterator.map(e => e.ce -> e.n).toMap }
    // NULL is not an observation: pairs with an empty side carry no
    // co-occurrence signal (at a 30% missing rate they would dominate the
    // table with noise). `CompensatoryScore.corrTable` filters alike.
    val corr = corrOf(off.toSeq.collect { case Entry(i, j, ce @ (c, e), _, w) if !Values.isNull(c) && !Values.isNull(e) =>
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

  /** The pass: one Spark job, no shuffle. Each partition sums its rows per
    * (i, j, c, e) for i ≤ j, in row order; the driver adds the partition
    * sums in partition order. That is the association of Spark's
    * partial/final aggregation, so the sums depend on the input partitioning
    * only. Every i < j entry is emitted a second time as (j, i, (e, c)) with
    * the same count and sum: the same rows summed in the same order. Every
    * value is one String instance across all entries, and each entry's
    * (c, e) key is built once.
    */
  private def entries(withConf: DataFrame, attrs: Seq[String], tau: Double, beta: Double): Array[Entry] = {
    val m = attrs.length
    val ij = for { i <- 0 until m; j <- i until m } yield (i, j)
    val idx = attrs.map(withConf.schema.fieldIndex).toArray
    val confIdx = withConf.schema.fieldIndex("conf")
    val partials = withConf.rdd.mapPartitions { rows =>
      val sums = Array.fill(ij.length)(new Sums)
      val canon = new java.util.HashMap[String, String]
      rows.foreach { row =>
        val t = Values.ofRow(row, idx).map(v => canon.computeIfAbsent(v, _ => v))
        val w = CompensatoryScore.weight(row.getDouble(confIdx), tau, beta)
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
    val out = Array.newBuilder[Entry]
    ij.indices.foreach { p =>
      val (i, j) = ij(p)
      merged(p).forEach { (ce, s) =>
        out += Entry(i, j, ce, s.n, s.w)
        if (i != j) out += Entry(j, i, ce.swap, s.n, s.w)
      }
    }
    out.result()
  }
}
