package repro.bench

import repro.SparkSpec

/** Table 2 — dataset statistics, plus the Table 3 UC listing (`Tables.table2`). */
class Table2Bench extends SparkSpec {

  test("Table 2: dataset statistics (paper vs measured)") {
    val t = Tables.table2(Harness.datasets(spark))
    Harness.record("table2", t.text)
    t.rows.foreach { s =>
      val (_, pc, _, _, _, pucs) = Tables.Paper2(s.name)
      assert(s.cols == pc)
      assert(s.ucs == pucs)
      assert(s.noise > 0)
    }
  }
}
