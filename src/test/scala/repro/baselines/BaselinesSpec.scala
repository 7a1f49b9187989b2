package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{CoOccurrence, Metrics, Values}
import repro.data.Benchmarks

class BaselinesSpec extends SparkSpec {

  // One small hospital instance shared by all baseline tests.
  private lazy val ds = Benchmarks.hospital(spark, rows = 300, seed = 3)

  test("HoloCleanLike: fdMajorities picks the dominant RHS") {
    val mp = HoloCleanLike.fdMajorities(ds.dirty, Seq(Seq("ZipCode") -> "City")).head
    assert(mp.nonEmpty)
    mp.values.foreach { case (best, cnt, total) =>
      assert(cnt <= total)
      assert(best.nonEmpty || total > 0)
    }
  }

  /** One FD's repair map by its own groupBy → collect query. */
  private def fdMajorityPerFd(dirty: DataFrame, fd: (Seq[String], String)): Map[Seq[String], (String, Long, Long)] = {
    val (xs, y) = fd
    dirty.na.fill("", xs :+ y).groupBy((xs :+ y).map(col): _*).count().collect()
      .groupBy(r => xs.indices.map(i => Values.norm(r.getString(i))): Seq[String])
      .map { case (k, rows) =>
        val candidates = rows.map(r => (Values.norm(r.getString(xs.length)), r.getLong(xs.length + 1)))
        val (bestY, bestCnt) = candidates.filter(_._1.nonEmpty)
          .sortBy { case (v, c) => (-c, v) }.headOption.getOrElse(("", 0L))
        k -> (bestY, bestCnt, candidates.map(_._2).sum)
      }
  }

  test("fdMajorities from one aggregation equal the per-FD queries on the six default datasets") {
    Benchmarks.all(spark).foreach { ds =>
      assert(ds.fds.nonEmpty, ds.name)
      val reference = ds.fds.map(fdMajorityPerFd(ds.dirty, _)) // also fills the cached dirty relation
      val (maps, jobs) = jobsOf(HoloCleanLike.fdMajorities(ds.dirty, ds.fds))
      assert(maps == reference, ds.name)
      assert(jobs <= 2, s"${ds.name}: $jobs jobs")
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
    val rules = GarfLike.mineRules(co)
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
