package repro.core

import repro.{Oracle, SparkSpec}
import repro.core.{UserConstraint => UC}

class CompensatoryScoreSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val dirty = Fixtures.fdTableDirty(spark, 120)
  private val ucs = UcSet(Map(
    "code" -> UC.All(Seq(UC.NotNull, UC.Pattern("c[0-9]{2}"))),
    "city" -> UC.All(Seq(UC.NotNull, UC.Length(3, 10))),
    "state" -> UC.All(Seq(UC.NotNull, UC.Length(2, 2))),
  ))
  private lazy val stats = Stats.compute(dirty, attrs, ucs, CompensatoryScore.Params(lambda = 1.0, beta = 2.0, tau = 0.5))

  test("confidence is 1 for a fully satisfying tuple") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val conf = wc.where(wc("_tid") === 10L).select("conf").collect()(0).getDouble(0)
    assert(conf == 1.0)
  }

  test("confidence drops with violations per Eq. 3") {
    // Tuple 1 has city = "" (violates NotNull): conf = max(0, (2 − λ·1)/3).
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val conf = wc.where(wc("_tid") === 1L).select("conf").collect()(0).getDouble(0)
    assert(math.abs(conf - 1.0 / 3.0) < 1e-9)
  }

  test("lambda scales the penalty") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 4.0)
    // (2 − 4)/3 < 0 → clamped to 0.
    val conf = wc.where(wc("_tid") === 1L).select("conf").collect()(0).getDouble(0)
    assert(conf == 0.0)
  }

  test("confidence is 1 everywhere when no UCs are given (BClean-UC)") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, UcSet.empty, lambda = 1.0)
    assert(wc.select("conf").collect().forall(_.getDouble(0) == 1.0))
  }

  test("corr table matches a DuckDB aggregation") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val corr = CompensatoryScore.corrTable(wc, attrs, tau = 0.5, beta = 2.0)
    // Reproduce one attribute pair (code, city) = (ai=0, aj=1) in DuckDB.
    val sql =
      """SELECT code AS c, city AS e,
         sum(CASE WHEN CAST(conf AS DOUBLE) >= 0.5 THEN 1.0
                  ELSE -2.0 * (0.5 - CAST(conf AS DOUBLE)) / 0.5 END) AS w
         FROM t WHERE code <> '' AND city <> '' GROUP BY code, city"""
    val t = wc.selectExpr("coalesce(code,'') as code", "coalesce(city,'') as city", "conf")
    val sparkPair = corr.where(corr("ai") === 0 && corr("aj") === 1)
      .selectExpr("c", "e", "cast(w as double) as w")
    Oracle.assertEquivalent(sparkPair, sql, "t" -> t)
    // The same sums as collected by Stats, zero-weight entries dropped.
    import spark.implicits._
    val statsPair = stats.corr((0, 1)).toSeq.map { case ((c, e), w) => (c, e, w) }.toDF("c", "e", "w")
    Oracle.assertEquivalent(statsPair, s"SELECT * FROM ($sql) WHERE w <> 0", "t" -> t)
  }

  test("collect drops zero-weight entries and keys by attribute pair") {
    val wc = CompensatoryScore.withConfidence(dirty, attrs, ucs, lambda = 1.0)
    val m = CompensatoryScore.collect(CompensatoryScore.corrTable(wc, attrs, 0.5, 2.0))
    Seq(m, stats.corr).foreach { corr =>
      assert(corr.keys.forall { case (i, j) => i != j && i >= 0 && j >= 0 && i < 3 && j < 3 })
      assert(corr.values.forall(_.values.forall(_ != 0.0)))
    }
    // corrTable is a projection of the Stats aggregation: bit-identical sums.
    assert(m == stats.corr)
  }

  test("scoreCorr accumulates over context attributes (Eq. 2)") {
    val corr = stats.corr
    val n = stats.co.nRows
    val t = Array("c01", "akron", "oh")
    val s = CompensatoryScore.scoreCorr(corr, n, 1, "akron", t)
    val manual = (corr.get((1, 0)).flatMap(_.get(("akron", "c01"))).getOrElse(0.0) +
      corr.get((1, 2)).flatMap(_.get(("akron", "oh"))).getOrElse(0.0)) / n
    assert(math.abs(s - manual) < 1e-12)
    assert(s > 0.0, "frequent clean pair should be positively correlated")
  }

  test("the observed correct value outscores a rare typo (Example 2/3 shape)") {
    val corr = stats.corr
    val n = stats.co.nRows
    // Tuple 0 has a typo'd city; the clean city must outscore the typo.
    val t0 = dirty.where(dirty("_tid") === 0L).collect()(0)
    val t = attrs.indices.map(i => Values.norm(t0.getString(i + 1))).toArray
    val cleanCity = Fixtures.fdTable(spark, 120).where("_tid = 0").collect()(0).getString(2)
    val good = CompensatoryScore.scoreCorr(corr, n, 1, cleanCity, t)
    val bad = CompensatoryScore.scoreCorr(corr, n, 1, t(1), t)
    assert(good > bad, s"clean=$good typo=$bad")
  }

  test("logCs is monotone across the whole range, including negatives") {
    val n = 100L
    val xs = Seq(-2.0, -0.5, -0.01, 0.0, 0.01, 0.5, 2.0)
    val ys = xs.map(CompensatoryScore.logCs(_, n))
    assert(ys == ys.sorted)
    assert(ys.distinct.size == ys.size)
  }

  test("logCs is 0 at 0 and odd-symmetric") {
    assert(CompensatoryScore.logCs(0.0, 100L) == 0.0)
    assert(CompensatoryScore.logCs(0.5, 100L) == -CompensatoryScore.logCs(-0.5, 100L))
  }

  test("logCs approximates log of the net support count when large") {
    // scoreCorr=0.5 over n=1000 → net support 500 → ≈ log(501).
    val v = CompensatoryScore.logCs(0.5, 1000L)
    assert(math.abs(v - math.log(501.0)) < 1e-9)
  }
}
