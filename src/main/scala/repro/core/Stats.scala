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
  * One shuffle-free Spark job computes them (`compute`): each task reads its
  * tuples as partition-local value ids, weighs them by
  * `CompensatoryScore.tupleWeight` and pre-aggregates the pairs i ≤ j; it
  * returns the partial sums and its tuples. The driver merges the partials
  * in partition order and dictionary-encodes them (`Encoded`): per
  * attribute its values in canonical order, per attribute pair i < j one
  * table of code, count and weight arrays, and the relation as one code
  * array per attribute, from which `StructureLearner` learns the network.
  * CPTs, priors, domains, co-occurrence and corr are all projections of it.
  *
  * @param co       the counts: per attribute, value → count (the diagonal
  *                 i = j); per ordered attribute pair i ≠ j, (c, e) → count
  * @param corr     per ordered attribute pair i ≠ j: (c, e) → Σ weight, over
  *                 pairs with both sides non-NULL; zero sums are dropped.
  *                 Each map reads the table `co.pairs` reads.
  * @param relation the tuples the pass read, by code, in input order
  */
final case class Stats(
    attrs: Seq[String],
    co: CoOccurrence,
    corr: Map[(Int, Int), Map[(String, String), Double]],
    relation: Encoded.Relation,
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
    Stats(attrs, CoOccurrence(enc.dicts.headOption.fold(0L)(_.counts.sum), unary, pairs.result()), corr.result(),
      enc.relation)
  }

  /** The relation alone, by code: the pass over the diagonal only, so no
    * attribute pair is summed. One Spark job, no shuffle.
    */
  def relation(df: DataFrame, attrs: Seq[String]): Encoded.Relation =
    pass(df, attrs, (_, _) => 0.0, pairs = false).relation

  /** Count and Σ weight of one (i, j, c, e) group; the sum starts at +0.0,
    * as Spark's `sum` does.
    */
  private final class Sum(var n: Long = 0L, var w: Double = 0.0) {
    def add(dn: Long, dw: Double): Unit = { n += dn; w += dw }
  }

  /** One partition's tuples and pre-aggregate, over partition-local value
    * ids: id x of attribute a is the value `values(a)(x)`, and row r of the
    * partition holds ids `tuples(r·m + a)`. Entry k is attribute pair
    * `pair(k)` (an index into the pairs i ≤ j), ids (c(k), e(k)), `n(k)`
    * rows and Σ weight `w(k)`. Each distinct value of an attribute is
    * serialized once.
    */
  private final case class Partial(values: Array[Array[String]], tuples: Array[Int], pair: Array[Int],
      c: Array[Int], e: Array[Int], n: Array[Long], w: Array[Double])

  /** The merged pass: per attribute its dictionary and the Σ weight of each
    * value (the diagonal, by code); per attribute pair i < j that has
    * entries, its table; and the relation by codes.
    */
  private final case class Encoding(dicts: Array[Encoded.Dict], unaryW: Array[Array[Double]],
      tables: Seq[((Int, Int), Encoded.Table)], relation: Encoded.Relation)

  /** The pass: one Spark job, no shuffle. Each task reads its rows into
    * tuples (`Values.ofRow`), gives each value a partition-local id, weighs
    * each tuple by `weigh(row, tuple)` and sums per (i, j, c, e) in row
    * order, for the pairs i ≤ j, or for the diagonal alone unless `pairs`.
    * The driver adds the partition sums in partition order, the association
    * of Spark's partial/final aggregation. The diagonal's counts order each
    * attribute's dictionary; every other entry, and every row of the
    * relation, is then read through its partition's id → code arrays.
    */
  private def pass(df: DataFrame, attrs: Seq[String], weigh: (Row, Array[String]) => Double,
      pairs: Boolean = true): Encoding = {
    val m = attrs.length
    val ij = for { i <- 0 until m; j <- i until m if pairs || i == j } yield (i, j)
    val (pi, pj) = (ij.map(_._1).toArray, ij.map(_._2).toArray)
    val idx = attrs.map(df.schema.fieldIndex).toArray
    val partials = df.rdd.mapPartitions { rows =>
      val ids = Array.fill(m)(new java.util.HashMap[String, Integer])
      val values = Array.fill(m)(mutable.ArrayBuffer.empty[String])
      val tuples = new mutable.ArrayBuilder.ofInt
      // Keyed by (id of c) << 32 | (id of e).
      val sums = Array.fill(ij.length)(mutable.LongMap.empty[Sum])
      val x = new Array[Int](m)
      rows.foreach { row =>
        val t = Values.ofRow(row, idx)
        val w = weigh(row, t)
        var a = 0
        while (a < m) {
          val vs = values(a)
          x(a) = ids(a).computeIfAbsent(t(a), v => { vs += v; Int.box(vs.length - 1) })
          a += 1
        }
        tuples.addAll(x)
        var p = 0
        while (p < ij.length) {
          sums(p).getOrElseUpdate(x(pi(p)).toLong << 32 | x(pj(p)), new Sum).add(1L, w)
          p += 1
        }
      }
      val size = sums.iterator.map(_.size).sum
      val out = Partial(values.map(_.toArray), tuples.result(), new Array(size), new Array(size), new Array(size),
        new Array(size), new Array(size))
      var k = 0
      sums.indices.foreach(p => sums(p).foreachEntry { (key, s) =>
        out.pair(k) = p; out.c(k) = (key >>> 32).toInt; out.e(k) = key.toInt; out.n(k) = s.n; out.w(k) = s.w
        k += 1
      })
      Iterator.single(out)
    }.collect()

    val unary = Array.fill(m)(new java.util.HashMap[String, Sum])
    partials.foreach(part => part.pair.indices.foreach { k =>
      val i = pi(part.pair(k))
      if (i == pj(part.pair(k)))
        unary(i).computeIfAbsent(part.values(i)(part.c(k)), _ => new Sum).add(part.n(k), part.w(k))
    })
    val ranked = unary.map(_.asScala.toArray.sortBy { case (v, s) => (-s.n, v) })
    // A value of several attributes is one String instance, so a serialized
    // model writes it once.
    val canon = new java.util.HashMap[String, String]
    val dicts = ranked.map(vs => new Encoded.Dict(vs.map(v => canon.computeIfAbsent(v._1, x => x)), vs.map(_._2.n)))
    // Per partition and attribute: local id → code.
    val codes = partials.map(part => Array.tabulate(m)(a => part.values(a).map(dicts(a).code)))
    // Key (c, e) as code(c) · |dom(A_j)| + code(e): sorting the keys sorts
    // the entries by (c, e).
    val merged = Array.fill(ij.length)(mutable.LongMap.empty[Sum])
    partials.indices.foreach { q =>
      val part = partials(q)
      part.pair.indices.foreach { k =>
        val (p, i, j) = (part.pair(k), pi(part.pair(k)), pj(part.pair(k)))
        if (i != j) {
          val key = codes(q)(i)(part.c(k)).toLong * dicts(j).size + codes(q)(j)(part.e(k))
          merged(p).getOrElseUpdate(key, new Sum).add(part.n(k), part.w(k))
        }
      }
    }
    val tables = ij.indices.filter(p => pi(p) != pj(p) && merged(p).nonEmpty).map { p =>
      val (i, j) = ij(p)
      val keys = merged(p).keys.toArray
      java.util.Arrays.sort(keys)
      val sums = keys.map(merged(p))
      val dj = dicts(j).size
      ij(p) -> new Encoded.Table(dicts(i), dicts(j), keys.map(key => (key / dj).toInt), keys.map(key => (key % dj).toInt),
        sums.map(_.n), sums.map(_.w))
    }
    // The relation, column by column, rows in partition order.
    val ids = partials.map(_.tuples.length).sum
    val column = Array.fill(m)(new Array[Int](if (m == 0) 0 else ids / m))
    var base = 0
    partials.indices.foreach { q =>
      val (tuples, code) = (partials(q).tuples, codes(q))
      var k = 0
      while (k < tuples.length) {
        val a = k % m
        column(a)((base + k) / m) = code(a)(tuples(k))
        k += 1
      }
      base += tuples.length
    }
    Encoding(dicts, ranked.map(_.map(_._2.w)), tables, new Encoded.Relation(dicts, column))
  }
}
