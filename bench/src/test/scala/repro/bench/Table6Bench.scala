package repro.bench

import repro.SparkSpec

/** Table 6 — recall per injected error type on Soccer, Inpatient and
  * Facilities (`Tables.table6`).
  */
class Table6Bench extends SparkSpec {

  test("Table 6: recall by error type (paper vs measured)") {
    val t = Tables.table6(spark)
    Harness.record("table6", t.text)
    val recalls = t.rows
    // Shape: BClean's average recall across types/datasets beats Raha+Baran's.
    def avg(m: String) = {
      val rs = recalls.filter(_._2 == m).flatMap(_._3.values)
      rs.sum / math.max(rs.size, 1)
    }
    assert(avg("BClean_PI") > avg("Raha+Baran"),
      s"BClean=${avg("BClean_PI")} RahaBaran=${avg("Raha+Baran")}")
  }
}
