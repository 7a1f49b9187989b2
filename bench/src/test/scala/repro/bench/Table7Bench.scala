package repro.bench

import repro.SparkSpec

/** Table 7 — execution time, measured on the cached runs Table 4 used, so
  * adding this suite costs nothing extra (`Tables.table7`).
  */
class Table7Bench extends SparkSpec {

  test("Table 7: execution time (paper vs measured; user time carried)") {
    val t = Tables.table7(spark)
    Harness.record("table7", t.text)
    // Shape: the optimized variants dominate basic BClean on the large sets.
    val m = t.rows.groupBy(_.method).map { case (k, rs) => k -> rs.map(r => r.dataset -> r.millis).toMap }
    for (big <- Seq("Soccer", "Inpatient", "Facilities")) {
      assert(m("BClean_PI")(big) <= m("BClean")(big),
        s"$big: PI ${m("BClean_PI")(big)}ms vs basic ${m("BClean")(big)}ms")
    }
  }
}
