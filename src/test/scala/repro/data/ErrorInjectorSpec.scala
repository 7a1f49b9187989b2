package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, xxhash64}
import repro.SparkSpec
import repro.core.Values

class ErrorInjectorSpec extends SparkSpec {

  private lazy val clean = Benchmarks.hospital(spark, rows = 300, seed = 7).clean
  private val attrs = Benchmarks.hospital(spark, rows = 300, seed = 7).attrs

  test("typo always differs from the input") {
    val rng = new java.util.Random(1)
    for (_ <- 1 to 200; v <- Seq("abc", "a", "sylacauga", "35150")) {
      assert(ErrorInjector.typo(v, rng) != v)
    }
  }

  test("typo on empty input produces a single char") {
    val rng = new java.util.Random(2)
    assert(ErrorInjector.typo("", rng).length == 1)
  }

  test("typo changes length by at most 1") {
    val rng = new java.util.Random(3)
    for (_ <- 1 to 200) {
      val t = ErrorInjector.typo("hickory", rng)
      assert(math.abs(t.length - 7) <= 1)
    }
  }

  test("spec validates types and rate") {
    intercept[IllegalArgumentException](ErrorInjector.Spec(0.1, Seq('X')))
    intercept[IllegalArgumentException](ErrorInjector.Spec(1.5, Seq('T')))
  }

  test("injection is deterministic in the seed") {
    val spec = ErrorInjector.Spec(0.1, Seq('T', 'M', 'I'), seed = 99)
    val (d1, m1) = ErrorInjector.inject(clean, attrs, spec)
    val (d2, m2) = ErrorInjector.inject(clean, attrs, spec)
    assert(d1.collect().map(_.toString).sorted.sameElements(d2.collect().map(_.toString).sorted))
    assert(m1.count() == m2.count())
  }

  test("different seeds give different corruption") {
    val (d1, _) = ErrorInjector.inject(clean, attrs, ErrorInjector.Spec(0.1, Seq('T'), seed = 1))
    val (d2, _) = ErrorInjector.inject(clean, attrs, ErrorInjector.Spec(0.1, Seq('T'), seed = 2))
    assert(!d1.collect().map(_.toString).sorted.sameElements(d2.collect().map(_.toString).sorted))
  }

  test("realized noise rate is close to the requested rate") {
    val spec = ErrorInjector.Spec(0.10, Seq('T', 'M', 'I'), seed = 5)
    val (_, mask) = ErrorInjector.inject(clean, attrs, spec)
    val cells = 300.0 * attrs.length
    val rate = mask.count() / cells
    assert(rate > 0.06 && rate < 0.13, s"rate=$rate")
  }

  test("mask rows correspond exactly to changed cells") {
    val spec = ErrorInjector.Spec(0.08, Seq('T', 'M', 'I', 'S'), seed = 21)
    val (dirty, mask) = ErrorInjector.inject(clean, attrs, spec)
    val changed = repro.core.Metrics.cellTable(dirty, clean, clean, attrs)
      .where("dirty <> truth").select("_tid", "attr").collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    val masked = mask.select("_tid", "attr").collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet
    assert(masked == changed)
  }

  test("error types respect the spec (only T and M when requested)") {
    val (_, mask) = ErrorInjector.inject(clean, attrs, ErrorInjector.Spec(0.2, Seq('T', 'M'), seed = 3))
    val types = mask.select("errType").distinct().collect().map(_.getString(0)).toSet
    assert(types.subsetOf(Set("T", "M")))
    assert(types.nonEmpty)
  }

  test("M errors produce empty cells") {
    val (dirty, mask) = ErrorInjector.inject(clean, attrs, ErrorInjector.Spec(0.2, Seq('M'), seed = 4))
    val mCells = mask.collect().map(r => (r.getLong(0), r.getString(1)))
    assert(mCells.nonEmpty)
    val dirtyRows = dirty.collect().map(r => r.getLong(0) -> r).toMap
    mCells.take(50).foreach { case (tid, attr) =>
      assert(Values.isNull(dirtyRows(tid).getAs[String](attr)))
    }
  }

  test("S errors stay within the attribute's domain") {
    val (dirty, mask) = ErrorInjector.inject(clean, attrs, ErrorInjector.Spec(0.2, Seq('S'), seed = 6))
    val domains = attrs.map(a => a -> clean.select(a).collect().map(r => Values.norm(r.getString(0))).toSet).toMap
    val sCells = mask.collect().map(r => (r.getLong(0), r.getString(1)))
    val dirtyRows = dirty.collect().map(r => r.getLong(0) -> r).toMap
    sCells.take(50).foreach { case (tid, attr) =>
      val v = Values.norm(dirtyRows(tid).getAs[String](attr))
      assert(domains(attr).contains(v), s"swap value $v not in domain of $attr")
    }
  }

  test("donor pools exclude nulls and cap size") {
    val pools = ErrorInjector.donorPools(clean, attrs, cap = 10)
    assert(pools.values.forall(p => p.nonEmpty && p.length <= 10))
    assert(pools.values.forall(_.forall(_.nonEmpty)))
  }

  /** Donor pools by one distinct → orderBy → limit → collect query per column. */
  private def donorPoolsPerColumn(clean: DataFrame, attrs: Seq[String], seed: Long,
                                  cap: Int = 500): Map[Int, IndexedSeq[String]] =
    attrs.indices.map { i =>
      val c = col(attrs(i))
      i -> clean.select(c).na.drop().distinct().orderBy(xxhash64(lit(seed), c), c).limit(cap).collect()
        .map(r => Values.norm(r.getString(0))).filter(_.nonEmpty).toIndexedSeq
    }.toMap

  test("donor pools from one aggregation equal the per-column queries on the six default datasets") {
    // Each generator's default seed, the one `inject` hands to `donorPools`.
    val seeds = Map("Hospital" -> 11L, "Flights" -> 13L, "Soccer" -> 17L, "Beers" -> 19L, "Inpatient" -> 23L,
      "Facilities" -> 29L)
    Benchmarks.all(spark).foreach { ds =>
      val seed = seeds(ds.name)
      val (pools, jobs) = jobsOf(ErrorInjector.donorPools(ds.clean, ds.attrs, seed))
      assert(pools == donorPoolsPerColumn(ds.clean, ds.attrs, seed), ds.name)
      assert(jobs <= 2, s"${ds.name}: $jobs jobs")
    }
  }
}
