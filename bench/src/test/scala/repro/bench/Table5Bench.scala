package repro.bench

import repro.SparkSpec

/** Table 5 — BClean / HoloClean / PClean / Raha+Baran on a Soccer sample
  * (`Tables.table5`).
  */
class Table5Bench extends SparkSpec {

  test("Table 5: sampled Soccer (paper vs measured)") {
    val t = Tables.table5(spark)
    Harness.record("table5", t.text)
    val measured = t.rows.toMap
    // Shape: BClean's recall leads Raha+Baran's by a wide gap (paper: .931 vs .133).
    assert(measured("BClean").recall > measured("Raha+Baran").recall)
  }
}
