package repro.bench

import repro.SparkSpec
import repro.data.Benchmarks

class TablesSpec extends SparkSpec {

  test("table2 measures the datasets it is given and renders them next to the paper's") {
    val dss = Seq(Benchmarks.hospital(spark, rows = 200), Benchmarks.flights(spark, rows = 300))
    val t = Tables.table2(dss)
    assert(t.rows.map(s => (s.name, s.rows, s.cols, s.cells, s.ucs)) ==
      Seq(("Hospital", 200L, 15, 3000L, 15), ("Flights", 300L, 6, 1800L, 6)))
    t.rows.zip(dss).foreach { case (s, ds) =>
      assert(s.noise == ds.mask.count().toDouble / s.cells, s.name)
      assert(s.types.split(",").toSet.subsetOf(ds.errorTypes.map(_.toString).toSet), s.name)
    }
    val lines = t.text.split("\n").toSeq
    assert(lines.head == "== Table 2: dataset statistics ==")
    assert(lines.exists(l => l.startsWith("Hospital    (1000, 15, 15k, ~5%, T,M,I, 15)") && l.contains("(200, 15, 3000, ")))
    assert(lines.exists(l => l.startsWith("Flights     (2376, 6, 14k, ~30%, T,M, 6)") && l.contains("(300, 6, 1800, ")))
    val ucs = lines.drop(lines.indexOf("== Table 3: user constraints ==") + 1)
    assert(ucs.map(_.takeWhile(_ != ' ')) == Seq("Hospital", "Flights"))
  }
}
