package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.{UserConstraint => UC}
import repro.data.Benchmarks
import repro.graph.Dag
import scala.jdk.CollectionConverters._

class StatsSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val dirty = Fixtures.fdTableDirty(spark, 120)
  private val ucs = UcSet(Map(
    "code" -> UC.All(Seq(UC.NotNull, UC.Pattern("c[0-9]{2}"))),
    "city" -> UC.All(Seq(UC.NotNull, UC.Length(3, 10))),
    "state" -> UC.All(Seq(UC.NotNull, UC.Length(2, 2))),
  ))
  private lazy val stats = Stats.compute(dirty, attrs, ucs)

  test("NULL is counted in the co-occurrence statistics but not in corr") {
    // Tuple 1 has city = "".
    val code1 = dirty.where("_tid = 1").collect()(0).getString(1)
    assert(stats.co.unary(1)(Values.Null) == 1L)
    assert(stats.co.pairs((0, 1))((code1, Values.Null)) == 1L)
    assert(stats.corr.values.forall(_.keys.forall { case (c, e) => !Values.isNull(c) && !Values.isNull(e) }))
  }

  test("the diagonal gives unary counts that sum to nRows") {
    assert(stats.co.nRows == 120L)
    attrs.indices.foreach(i => assert(stats.co.unary(i).values.sum == 120L))
    assert(stats.co.pairs.keys.forall { case (i, j) => i != j })
  }

  test("corr and the co-occurrence pairs share each (c, e) key instance") {
    assert(stats.corr.nonEmpty)
    stats.corr.foreach { case (ij, ws) =>
      val keys = java.util.Collections.newSetFromMap(new java.util.IdentityHashMap[(String, String), java.lang.Boolean])
      stats.co.pairs(ij).keysIterator.foreach(keys.add)
      assert(ws.keysIterator.forall(keys.contains), ij)
    }
    // The pass sums i ≤ j only; each (j, i) table is the mirror of (i, j),
    // with the same counts and the same weights bit for bit.
    for ((i, j) <- stats.co.pairs.keys if i < j) {
      def swapped[V](m: Map[(String, String), V]) = m.map { case ((c, e), v) => (e, c) -> v }
      assert(stats.co.pairs((j, i)) == swapped(stats.co.pairs((i, j))), (j, i))
      assert(stats.corr.get((j, i)) == stats.corr.get((i, j)).map(swapped), (j, i))
    }
    assert(stats.corr.keySet == stats.corr.keySet.map(_.swap))
  }

  test("the whole Stats table matches one DuckDB GROUP BY over the melted attribute pairs") {
    val p = CompensatoryScore.Params()
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, p.lambda)
    // Every ordered pair, the diagonal included; NULL is the empty string.
    val melted = (for { i <- attrs.indices; j <- attrs.indices } yield
      s"SELECT $i AS ai, $j AS aj, coalesce(${attrs(i)}, '') AS c, coalesce(${attrs(j)}, '') AS e, " +
        "CAST(conf AS DOUBLE) AS conf FROM t").mkString(" UNION ALL ")
    val sql =
      s"""SELECT ai, aj, c, e, count(*) AS n,
          sum(CASE WHEN conf >= ${p.tau} THEN 1.0 ELSE -${p.beta} * (${p.tau} - conf) / ${p.tau} END) AS w
          FROM ($melted) GROUP BY ai, aj, c, e"""
    val t = wc.select((attrs :+ "conf").map(wc(_)): _*)
    val table = Stats.aggregate(wc, attrs, p.tau, p.beta)
    // The fixture's UC violations put tuples below τ, so β-weights occur.
    assert(table.where("w < 0 AND c <> '' AND e <> ''").count() > 0)
    Oracle.assertEquivalent(table, sql, "t" -> t)
    // compute holds the same table: the counts in co, the non-NULL,
    // non-zero weights of the off-diagonal pairs in corr.
    import spark.implicits._
    val counts = stats.co.unary.toSeq.flatMap { case (i, m) => m.map { case (v, n) => (i, i, v, v, n) } } ++
      stats.co.pairs.toSeq.flatMap { case ((i, j), m) => m.map { case ((c, e), n) => (i, j, c, e, n) } }
    Oracle.assertEquivalent(counts.toDF("ai", "aj", "c", "e", "n"), s"SELECT ai, aj, c, e, n FROM ($sql)", "t" -> t)
    val weights = stats.corr.toSeq.flatMap { case ((i, j), m) => m.map { case ((c, e), w) => (i, j, c, e, w) } }
    Oracle.assertEquivalent(weights.toDF("ai", "aj", "c", "e", "w"),
      s"SELECT ai, aj, c, e, w FROM ($sql) WHERE ai <> aj AND c <> '' AND e <> '' AND w <> 0", "t" -> t)
  }

  /** The gate of the stage-by-stage replay: the corr table rebuilt from a
    * `conf` column (the UDF's confidence through `weight`) and the
    * count-only pass equal `compute`'s tables, key sets included, although
    * `compute` weighs each tuple in its task with `tupleWeight`.
    */
  private def replayAgrees(df: DataFrame, attrs: Seq[String], ucs: UcSet, p: CompensatoryScore.Params): Stats = {
    val s = Stats.compute(df, attrs, ucs, p)
    val replayed = CompensatoryScore.collect(CompensatoryScore.corrTable(
      CompensatoryScore.withConfidence(df, attrs, ucs, p.lambda), attrs, p.tau, p.beta))
    assert(s.corr.keySet == replayed.keySet)
    assert(s.corr == replayed)
    assert(s.co == CoOccurrence.compute(df, attrs))
    s
  }

  /** The non-NULL value pairs of `s`'s counts, per attribute pair. */
  private def nonNullPairs(s: Stats) = s.co.pairs.map { case (ij, m) =>
    ij -> m.keySet.filter { case (c, e) => !Values.isNull(c) && !Values.isNull(e) }
  }.filter(_._2.nonEmpty)

  test("replay gate at β = 0: zero-weight entries are dropped, their attribute pairs kept") {
    val s = replayAgrees(dirty, attrs, ucs, CompensatoryScore.Params(beta = 0.0))
    val pairs = nonNullPairs(s)
    assert(s.corr.keySet == pairs.keySet)
    assert(pairs.exists { case (ij, ces) => s.corr(ij).keySet != ces }, "no zero-weight entry was dropped")
    // Every tuple below τ: each attribute pair stays, with an empty map.
    import spark.implicits._
    val low = Seq((0L, "a", "p"), (1L, "b", "q"), (2L, "c", "")).toDF("_tid", "x", "y")
    val lowUcs = UcSet(Map("x" -> UC.Length(5, 5)))
    val l = replayAgrees(low, Seq("x", "y"), lowUcs, CompensatoryScore.Params(lambda = 4.0, beta = 0.0))
    assert(l.corr == Map((0, 1) -> Map.empty, (1, 0) -> Map.empty))
  }

  test("replay gate at λ = 4: every UC-violating tuple carries a β-weight") {
    val s = replayAgrees(dirty, attrs, ucs, CompensatoryScore.Params(lambda = 4.0))
    assert(s.corr.values.exists(_.values.exists(_ < 0.0)))
    assert(s.corr.keySet == nonNullPairs(s).keySet)
  }

  test("replay gate with an all-NULL column: it is counted, and has no corr pair") {
    import spark.implicits._
    val df = Seq((0L, "a", "p", null), (1L, "b", "q", null), (2L, "a", "p", null), (3L, "", "q", null))
      .toDF("_tid", "x", "y", "z")
    val s = replayAgrees(df, Seq("x", "y", "z"), UcSet(Map("x" -> UC.NotNull)), CompensatoryScore.Params())
    assert(s.co.unary(2) == Map(Values.Null -> 4L))
    assert(s.corr.keySet == Set((0, 1), (1, 0)))
  }

  test("replay gate on the beers-pip block") {
    val keep = Seq("Id", "Ounces", "Abv", "BreweryId", "City")
    val beers = Benchmarks.beers(spark, rows = 2410, seed = 1)
    val s = replayAgrees(beers.dirty, keep, UcSet(beers.ucs.byAttr.filter { case (a, _) => keep.contains(a) }),
      BClean.Config.pip.score)
    assert(s.co.nRows == 2410L)
  }

  test("the leave-one-out weight of a tuple is the weight the pass gave it") {
    import spark.implicits._
    val attrs = Seq("a", "b", "c", "d")
    // Tuple ("x1", "", "y", "z"): a violates its UC, so conf = (3 − λ)/4.
    val df = Seq((0L, "x1", "", "y", "z")).toDF(("_tid" +: attrs): _*)
    val ucs = UcSet(Map("a" -> UC.Length(5, 9)))
    val t = Array("x1", "", "y", "z")
    def model(p: CompensatoryScore.Params) = BClean.buildModel(df, attrs, ucs,
      BClean.Config.pi.copy(score = p), presetDag = Some(Dag.empty(attrs.length)))
    // Parameters away from the defaults, so the model must score with the
    // ones the pass used.
    val weighed = model(CompensatoryScore.Params(lambda = 2.0, beta = 3.0, tau = 0.6))
    val w = weighed.selfWeight(t)
    assert(w == -3.0 * (0.6 - 0.25) / 0.6)
    val entries = weighed.corr.toSeq.flatMap { case (_, m) => m.values }
    assert(entries.length == 6) // the ordered pairs of a, c and d
    assert(entries.forall(_ == w))
    // At β = 0 the tuple weighs zero, so every entry is dropped.
    val zero = model(CompensatoryScore.Params(lambda = 2.0, beta = 0.0, tau = 0.6))
    assert(zero.selfWeight(t) == 0.0)
    assert(zero.corr.size == 6 && zero.corr.values.forall(_.isEmpty))
  }

  test("domains are in canonical order: count descending, then value") {
    attrs.indices.foreach { j =>
      val dom = stats.domain(j)
      assert(dom.toSet == stats.co.unary(j).keySet)
      val keys = dom.map(v => (-stats.co.unary(j)(v), v))
      assert(keys == keys.sorted)
    }
  }

  test("a one-attribute relation has no pairs but unary counts, priors and domains") {
    import spark.implicits._
    val df = Seq((0L, "a"), (1L, "b"), (2L, "a"), (3L, "")).toDF("_tid", "x")
    val s = Stats.compute(df, Seq("x"))
    assert(s.co.nRows == 4L)
    assert(s.co.pairs.isEmpty && s.corr.isEmpty)
    assert(s.co.unary == Map(0 -> Map("a" -> 2L, "b" -> 1L, "" -> 1L)))
    assert(s.domain(0) == IndexedSeq("a", "", "b"))
    val bn = BayesNet(s.attrs, Dag.empty(1), s.co, alpha = 0.0)
    assert(bn.cpts.isEmpty)
    assert(bn.priors(0) == Map("a" -> 0.5, "b" -> 0.25, "" -> 0.25))
  }

  test("applyUserEdits starts no Spark job") {
    val bn0 = BayesNet(attrs, Dag(3, Map((0, 1) -> 1.0)), stats.co, alpha = 0.05)
    val (bn, jobs) = jobsOf(BayesNet.applyUserEdits(dirty, bn0, Seq((1, 2), (0, 2), (1, 0))))
    assert(jobs == 0)
    assert(bn.dag.parents(2).sorted == Seq(0, 1))
    // Same CPTs as learning the edited network from scratch.
    assert(bn.cpts == BayesNet.learn(dirty, attrs, bn.dag, alpha = 0.05).cpts)
  }

  test("the pass is one Spark job and writes no shuffle bytes, in compute and in corrTable") {
    val (_, jobs, shuffleBytes) = workOf(Stats.compute(dirty, attrs, ucs))
    assert((jobs, shuffleBytes) == ((1, 0L)))
    // corrTable reads the local DataFrame of one pass: collecting it adds no job.
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val (_, corrJobs, corrShuffleBytes) =
      workOf(CompensatoryScore.collect(CompensatoryScore.corrTable(wc, attrs, 0.5, 2.0)))
    assert((corrJobs, corrShuffleBytes) == ((1, 0L)))
  }

  test("buildModel starts exactly one job beyond structure learning") {
    val cfg = BClean.Config.pip
    val (_, structureJobs) = jobsOf(StructureLearner.learn(dirty, attrs, cfg.structure))
    val (_, modelJobs) = jobsOf(BClean.buildModel(dirty, attrs, ucs, cfg, userEdits = Seq((0, 1), (1, 2))))
    assert(modelJobs == structureJobs + 1, s"structure $structureJobs jobs, model $modelJobs jobs")
  }

  test("the model and the PIP output do not depend on spark.sql.shuffle.partitions") {
    val keep = Seq("Id", "Ounces", "Abv", "BreweryId", "City")
    val beers = Benchmarks.beers(spark, rows = 300, seed = 3)
    val cols = "_tid" +: keep
    // A local relation: the input partitioning is fixed, only the shuffle changes.
    val rows = beers.dirty.selectExpr(cols: _*).collect().sortBy(_.getLong(0)).toSeq
    val df = spark.createDataFrame(rows.asJava, beers.dirty.selectExpr(cols: _*).schema)
    val ucs = UcSet(beers.ucs.byAttr.filter { case (a, _) => keep.contains(a) })
    // The DAG is fixed so the statistics layers are compared alone; the
    // structure pass has its own partition-independence test.
    val dag = Dag(keep.length, Map((3, 4) -> 1.0, (3, 0) -> 1.0))
    val cfg = BClean.Config.pip.copy(inference = BClean.Config.pip.inference.copy(topK = 16))
    val prev = spark.conf.get("spark.sql.shuffle.partitions")
    def run(partitions: Int): (Inference.Model, Seq[Seq[String]]) = {
      spark.conf.set("spark.sql.shuffle.partitions", partitions.toString)
      val model = BClean.buildModel(df, keep, ucs, cfg, presetDag = Some(dag), userEdits = Seq((3, 2)))
      val out = Inference.clean(df, model).collect().sortBy(_.getLong(0)).map(r => keep.map(r.getAs[String]))
      (model, out.toSeq)
    }
    try {
      val (m1, out1) = run(1)
      val (m8, out8) = run(8)
      assert(m1.domains == m8.domains)
      assert(m1.prunedDomains == m8.prunedDomains)
      assert(m1.corr == m8.corr)
      assert(m1.co == m8.co)
      assert(m1.bn.cpts == m8.bn.cpts && m1.bn.priors == m8.bn.priors)
      assert(out1 == out8)
    } finally spark.conf.set("spark.sql.shuffle.partitions", prev)
  }
}
