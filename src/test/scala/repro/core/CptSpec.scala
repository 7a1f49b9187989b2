package repro.core

import repro.{Oracle, SparkSpec}
import repro.graph.Dag

class CptSpec extends SparkSpec {

  private lazy val df = Fixtures.fdTable(spark, 100)
  private val attrs = Fixtures.fdAttrs
  private lazy val stats = Stats.compute(df, attrs)

  private def prior(attr: Int, alpha: Double): Map[String, Double] =
    BayesNet(attrs, Dag.empty(attrs.length), stats.co, alpha).priors(attr)

  test("prior sums to ~1 and matches frequencies") {
    val p = prior(1, alpha = 0.0)
    assert(math.abs(p.values.sum - 1.0) < 1e-9)
    // DuckDB cross-check of the underlying counts and of the frequencies.
    import spark.implicits._
    val counts = stats.co.unary(1).toSeq.toDF("city", "cnt")
    Oracle.assertEquivalent(counts,
      "SELECT city, count(*) AS cnt FROM t GROUP BY city", "t" -> df)
    val freqs = p.toSeq.toDF("city", "p")
    Oracle.assertEquivalent(freqs,
      "SELECT city, count(*) / 100.0 AS p FROM t GROUP BY city", "t" -> df)
  }

  test("prior with Laplace smoothing shifts mass but keeps normalization") {
    val p = prior(1, alpha = 1.0)
    assert(math.abs(p.values.sum - 1.0) < 1e-9)
    val p0 = prior(1, alpha = 0.0)
    val maxV = p0.maxBy(_._2)._1
    assert(p(maxV) < p0(maxV)) // smoothing pulls the mode down
  }

  test("learned edge CPT is deterministic for a functional dependency") {
    // code → city is exact in the clean table: P(city|code) = 1 per code.
    val cpt = Cpt(parent = 0, child = 1, alpha = 0.0, stats.co)
    cpt.table.foreach { case (_, (counts, total)) =>
      assert(counts.size == 1)
      assert(counts.values.sum == total)
    }
    val (pv, (counts, _)) = cpt.table.head
    assert(cpt.prob(pv, counts.keys.head) == 1.0)
  }

  test("edge CPT conditional counts match DuckDB") {
    import spark.implicits._
    val cpt = Cpt(0, 1, alpha = 0.0, stats.co)
    val cells = cpt.table.toSeq.flatMap { case (code, (counts, _)) =>
      counts.toSeq.map { case (city, n) => (code, city, n) }
    }
    Oracle.assertEquivalent(cells.toDF("code", "city", "cnt"),
      "SELECT code, city, count(*) AS cnt FROM t GROUP BY code, city", "t" -> df)
    val totals = cpt.table.toSeq.map { case (code, (_, total)) => (code, total) }
    Oracle.assertEquivalent(totals.toDF("code", "total"),
      "SELECT code, count(*) AS total FROM t GROUP BY code", "t" -> df)
    Oracle.assertEquivalent(Seq(cpt.domSize.toLong).toDF("dom"),
      "SELECT count(DISTINCT city) AS dom FROM t", "t" -> df)
  }

  test("smoothing: unseen child value gets alpha mass") {
    val cpt = Cpt(0, 1, alpha = 1.0, stats.co)
    val (pv, (_, total)) = cpt.table.head
    val expect = 1.0 / (total + cpt.domSize)
    assert(math.abs(cpt.prob(pv, "never-seen") - expect) < 1e-12)
  }

  test("unseen parent value is uniform") {
    val cpt = Cpt(0, 1, alpha = 1.0, stats.co)
    assert(math.abs(cpt.prob("no-such-code", "akron") - 1.0 / cpt.domSize) < 1e-12)
  }

  test("logProb is log of prob") {
    val cpt = Cpt(0, 1, alpha = 1.0, stats.co)
    val (pv, (counts, _)) = cpt.table.head
    val v = counts.keys.head
    assert(math.abs(cpt.logProb(pv, v) - math.log(cpt.prob(pv, v))) < 1e-12)
  }

  test("cpts has one CPT per edge, keyed by child") {
    val dag = Dag(3, Map((0, 2) -> 1.0, (1, 2) -> 1.0, (0, 1) -> 0.5))
    val all = BayesNet(attrs, dag, stats.co, 0.05).cpts
    assert(all.keySet == Set(1, 2))
    assert(all(2).map(_.parent).sorted == Seq(0, 1))
    assert(all(1).map(_.parent) == Seq(0))
    assert(all.values.flatten.forall(c => c.table.nonEmpty))
  }
}
