package repro.bench

import repro.SparkSpec
import repro.data.Benchmarks

class HarnessSpec extends SparkSpec {

  test("fmtMillis renders sub-second values") {
    assert(Harness.fmtMillis(250) == "250ms")
  }

  test("fmtMillis renders seconds") {
    assert(Harness.fmtMillis(2000) == "2s")
    assert(Harness.fmtMillis(59999) == "59s")
  }

  test("fmtMillis renders minutes") {
    assert(Harness.fmtMillis(61000) == "1m01s")
    assert(Harness.fmtMillis(90000) == "1m30s")
  }

  test("fmtMillis renders hours") {
    assert(Harness.fmtMillis(3600000L) == "1h00m")
    assert(Harness.fmtMillis(5400000L) == "1h30m")
  }

  test("methods list covers the four BClean variants and four baselines") {
    assert(Harness.Methods.size == 8)
    assert(Harness.Methods.count(_.startsWith("BClean")) == 4)
  }

  test("soccerRows default") {
    assert(Harness.soccerRows >= 500L)
  }

  test("clean rejects an unknown method by name") {
    val e = intercept[IllegalArgumentException](Harness.clean(Benchmarks.flights(spark, rows = 20), "NoSuchCleaner"))
    assert(e.getMessage.contains("NoSuchCleaner"))
  }
}
