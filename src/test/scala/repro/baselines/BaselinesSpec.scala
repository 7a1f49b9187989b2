package repro.baselines

import repro.SparkSpec
import repro.core.{CoOccurrence, Metrics}
import repro.data.Benchmarks

class BaselinesSpec extends SparkSpec {

  // One small hospital instance shared by all baseline tests.
  private lazy val ds = Benchmarks.hospital(spark, rows = 300, seed = 3)

  test("HoloCleanLike: fdMajorities picks the dominant RHS") {
    val mp = HoloCleanLike.fdMajorities(ds.dirty, Seq("ZipCode") -> "City")
    assert(mp.nonEmpty)
    mp.values.foreach { case (best, cnt, total) =>
      assert(cnt <= total)
      assert(best.nonEmpty || total > 0)
    }
  }

  test("HoloCleanLike repairs FD violations with high precision") {
    val cleaned = HoloCleanLike.clean(ds)
    val prf = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs)
    assert(prf.precision > 0.7, prf.pretty)
    assert(prf.repairs > 0)
  }

  test("HoloCleanLike recall is bounded by FD coverage (its signature)") {
    val cleaned = HoloCleanLike.clean(ds)
    val prf = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs)
    assert(prf.recall < 0.95, prf.pretty) // cannot fix non-FD attributes
  }

  test("HoloCleanLike preserves schema") {
    assert(HoloCleanLike.clean(ds).schema == ds.dirty.schema)
  }

  test("GarfLike mines high-confidence rules only") {
    val co = CoOccurrence.compute(ds.dirty, ds.attrs)
    val rules = GarfLike.mineRules(co, minSupport = 3, minConf = 0.9)
    assert(rules.nonEmpty)
    rules.foreach(r => assert(r.conf >= 0.9))
  }

  test("GarfLike repairs with positive precision and bounded recall") {
    val cleaned = GarfLike.clean(ds)
    val prf = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs)
    assert(prf.precision > 0.5, prf.pretty)
    assert(prf.recall < 0.95, prf.pretty)
  }

  test("RahaBaranLike: char-class patterns") {
    assert(RahaBaranLike.charClassPattern("35150") == "ddddd")
    assert(RahaBaranLike.charClassPattern("a.m.") == "asas")
    assert(RahaBaranLike.charClassPattern("") == "")
  }

  test("RahaBaranLike produces repairs and moderate quality") {
    val cleaned = RahaBaranLike.clean(ds)
    val prf = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs)
    assert(prf.repairs > 0)
    assert(prf.f1 > 0.2, prf.pretty)
  }

  test("PCleanLike: learnGroup implies majority values") {
    val co = CoOccurrence.compute(ds.dirty, ds.attrs)
    val pos = ds.attrs.zipWithIndex.toMap
    val g = PCleanLike.learnGroup(co, pos("MeasureCode"), Seq(pos("MeasureName"), pos("Condition")))
    assert(g.pivotCounts.nonEmpty)
    assert(g.implied.values.exists(_.nonEmpty))
  }

  test("PCleanLike with a faithful program cleans hospital well") {
    val cleaned = PCleanLike.clean(ds)
    val prf = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs)
    assert(prf.f1 > 0.5, prf.pretty)
  }

  test("PCleanLike with a mis-specified program degrades (soccer)") {
    val soccer = Benchmarks.soccer(spark, rows = 600)
    val good = Metrics.evaluate(ds.dirty, PCleanLike.clean(ds), ds.clean, ds.attrs)
    val bad = Metrics.evaluate(soccer.dirty, PCleanLike.clean(soccer), soccer.clean, soccer.attrs)
    assert(bad.precision < good.precision, s"soccer=${bad.pretty} hospital=${good.pretty}")
  }

  test("all baselines preserve row count") {
    Seq(HoloCleanLike.clean(ds), GarfLike.clean(ds), RahaBaranLike.clean(ds), PCleanLike.clean(ds))
      .foreach(c => assert(c.count() == ds.dirty.count()))
  }
}
