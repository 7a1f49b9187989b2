package repro.bench

import repro.SparkSpec

/** Table 4 — P/R/F1 of the four BClean variants and the four comparators on
  * all six datasets (`Tables.table4`).
  */
class Table4Bench extends SparkSpec {

  test("Table 4: P/R/F1 of all methods on all datasets (paper vs measured)") {
    Harness.record("table4", Tables.table4(spark).text)

    // Shape assertions: BClean variants competitive and
    // the baselines' signatures hold on the FD-rich datasets.
    val dss = Harness.datasets(spark)
    val hosp = dss.find(_.name == "Hospital").get
    val piF1 = Harness.run(spark, hosp, "BClean_PI").prf.f1
    assert(piF1 > 0.8, s"Hospital BClean_PI F1=$piF1")
    for (name <- Seq("HoloClean", "Garf")) {
      val r = Harness.run(spark, hosp, name).prf
      assert(r.precision > 0.7, s"$name precision ${r.precision}")
      assert(r.recall < piF1, s"$name recall should trail BClean")
    }
  }
}
