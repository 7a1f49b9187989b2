package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The sufficient statistics of the whole model (Sections 4 and 5): for
  * every ordered attribute pair (A_i, A_j), the diagonal i = j included, and
  * every value pair (c, e) seen together in a tuple, the number of such
  * tuples and the sum of their confidence weights (Algorithm 2). NULL is the
  * empty string and is counted like any other value.
  *
  * One shuffle-free Spark job computes them (`compute`): each task weighs
  * its tuples by `CompensatoryScore.tupleWeight` and pre-aggregates the
  * pairs i ≤ j; the driver merges the partials in partition order and
  * dictionary-encodes them (`Encoded`): per attribute its values in
  * canonical order, per attribute pair i < j one table of code, count and
  * weight arrays. CPTs, priors, domains, co-occurrence and corr are all
  * projections of it.
  *
  * @param co   the counts: per attribute, value → count (the diagonal
  *             i = j); per ordered attribute pair i ≠ j, (c, e) → count
  * @param corr per ordered attribute pair i ≠ j: (c, e) → Σ weight, over
  *             pairs with both sides non-NULL; zero sums are dropped. Each
  *             map reads the table `co.pairs` reads.
  */
final case class Stats(
    attrs: Seq[String],
    co: CoOccurrence,
    corr: Map[(Int, Int), Map[(String, String), Double]],
) {

  /** dom(A_j) in canonical order: count descending, then value. The order is
    * a function of the data alone, never of Spark's partitioning, and
    * `DomainPruning` and `Inference.repairTuple` break ties by it. It wraps
    * the dictionary's array.
    */
  def domain(j: Int): IndexedSeq[String] = ArraySeq.unsafeWrapArray(Encoded.dict(co.unary(j)).values)

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
    val enc = pass(withConf, attrs, (row, _) => CompensatoryScore.weight(row.getDouble(confIdx), tau, beta))
    val rows = Seq.newBuilder[(Int, Int, String, String, Long, Double)]
    enc.dicts.indices.foreach { i =>
      val d = enc.dicts(i)
      d.values.indices.foreach(x => rows += ((i, i, d.values(x), d.values(x), d.counts(x), enc.unaryW(i)(x))))
    }
    enc.tables.foreach { case ((i, j), t) =>
      (0 until t.size).foreach { k =>
        val (c, e) = (t.di.values(t.c(k)), t.dj.values(t.e(k)))
        rows += ((i, j, c, e, t.n(k), t.w(k))) += ((j, i, e, c, t.n(k), t.w(k)))
      }
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
    val enc = pass(df, attrs, (_, t) => CompensatoryScore.tupleWeight(t, attrs, ucs, params))
    val unary = enc.dicts.indices.map(i => i -> new Encoded.Unary(enc.dicts(i))).toMap
    val pairs = Map.newBuilder[(Int, Int), Map[(String, String), Long]]
    val corr = Map.newBuilder[(Int, Int), Map[(String, String), Double]]
    enc.tables.foreach { case ((i, j), t) =>
      pairs += (i, j) -> new Encoded.Pairs(t, transposed = false) += (j, i) -> new Encoded.Pairs(t, transposed = true)
      // NULL is not an observation: pairs with an empty side carry no
      // co-occurrence signal (at a 30% missing rate they would dominate
      // the table with noise). `CompensatoryScore.corrTable` filters
      // alike. A zero sum is dropped; its attribute pair stays.
      if ((0 until t.size).exists(t.observed))
        corr += (i, j) -> new Encoded.Corr(t, transposed = false) += (j, i) -> new Encoded.Corr(t, transposed = true)
    }
    Stats(attrs, CoOccurrence(enc.dicts.headOption.fold(0L)(_.counts.sum), unary, pairs.result()), corr.result())
  }

  /** Count and Σ weight of one (i, j, c, e) group; the sum starts at +0.0,
    * as Spark's `sum` does.
    */
  private final class Sum(var n: Long = 0L, var w: Double = 0.0) {
    def add(dn: Long, dw: Double): Unit = { n += dn; w += dw }
  }

  /** One partition's pre-aggregate: entry k is attribute pair `pair(k)` (an
    * index into the i ≤ j pairs), value pair (c(k), e(k)), `n(k)` rows and
    * Σ weight `w(k)`. Each distinct value is one String instance, so it is
    * serialized once.
    */
  private final case class Partial(pair: Array[Int], c: Array[String], e: Array[String], n: Array[Long],
      w: Array[Double])

  /** The merged pass: per attribute its dictionary and the Σ weight of each
    * value (the diagonal, by code); per attribute pair i < j that has
    * entries, its table.
    */
  private final case class Encoding(dicts: Array[Encoded.Dict], unaryW: Array[Array[Double]],
      tables: Seq[((Int, Int), Encoded.Table)])

  /** The pass: one Spark job, no shuffle. Each task reads its rows into
    * tuples (`Values.ofRow`), weighs each by `weigh(row, tuple)` and sums
    * per (i, j, c, e) for i ≤ j in row order; the driver adds the partition
    * sums in partition order, the association of Spark's partial/final
    * aggregation. The diagonal's counts order each attribute's dictionary;
    * every other entry is then merged on its codes.
    */
  private def pass(df: DataFrame, attrs: Seq[String], weigh: (Row, Array[String]) => Double): Encoding = {
    val ij = for { i <- attrs.indices; j <- i until attrs.length } yield (i, j)
    val idx = attrs.map(df.schema.fieldIndex).toArray
    val partials = df.rdd.mapPartitions { rows =>
      val sums = Array.fill(ij.length)(new java.util.HashMap[(String, String), Sum])
      val canon = new java.util.HashMap[String, String]
      rows.foreach { row =>
        val t = Values.ofRow(row, idx).map(v => canon.computeIfAbsent(v, _ => v))
        val w = weigh(row, t)
        ij.indices.foreach { p =>
          val (i, j) = ij(p)
          sums(p).computeIfAbsent((t(i), t(j)), _ => new Sum).add(1L, w)
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

    def entries(diagonal: Boolean)(f: (Int, Int, Partial, Int) => Unit): Unit =
      partials.foreach(part => part.pair.indices.foreach { k =>
        val (i, j) = ij(part.pair(k))
        if ((i == j) == diagonal) f(i, j, part, k)
      })
    val unary = Array.fill(attrs.length)(new java.util.HashMap[String, Sum])
    entries(diagonal = true)((i, _, part, k) => unary(i).computeIfAbsent(part.c(k), _ => new Sum).add(part.n(k), part.w(k)))
    val ranked = unary.map(_.asScala.toArray.sortBy { case (v, s) => (-s.n, v) })
    val dicts = ranked.map(vs => new Encoded.Dict(vs.map(_._1), vs.map(_._2.n)))
    // Key (c, e) as code(c) · |dom(A_j)| + code(e): sorting the keys sorts
    // the entries by (c, e).
    val merged = Array.fill(ij.length)(mutable.LongMap.empty[Sum])
    entries(diagonal = false) { (i, j, part, k) =>
      val key = dicts(i).code(part.c(k)).toLong * dicts(j).size + dicts(j).code(part.e(k))
      merged(part.pair(k)).getOrElseUpdate(key, new Sum).add(part.n(k), part.w(k))
    }
    val tables = ij.indices.filter(p => ij(p)._1 != ij(p)._2 && merged(p).nonEmpty).map { p =>
      val (i, j) = ij(p)
      val keys = merged(p).keys.toArray
      java.util.Arrays.sort(keys)
      val sums = keys.map(merged(p))
      val dj = dicts(j).size
      ij(p) -> new Encoded.Table(dicts(i), dicts(j), keys.map(key => (key / dj).toInt), keys.map(key => (key % dj).toInt),
        sums.map(_.n), sums.map(_.w))
    }
    Encoding(dicts, ranked.map(_.map(_._2.w)), tables)
  }
}
