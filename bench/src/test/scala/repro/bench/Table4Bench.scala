package repro.bench

import repro.SparkSpec

/** Table 4 — precision / recall / F1 of the four BClean variants and the four
  * comparator systems on all six datasets. Paper values printed side by side.
  */
class Table4Bench extends SparkSpec {

  // Paper Table 4: method -> dataset -> (P, R, F1); None = OOM/out-of-time.
  private val paper: Map[String, Map[String, Option[(Double, Double, Double)]]] = Map(
    "BClean-UC" -> Map(
      "Hospital" -> Some((1.000, 0.935, 0.966)), "Flights" -> Some((0.807, 0.729, 0.766)),
      "Soccer" -> Some((0.927, 0.982, 0.954)), "Beers" -> Some((0.880, 0.065, 0.121)),
      "Inpatient" -> Some((0.934, 0.883, 0.908)), "Facilities" -> Some((0.810, 0.805, 0.807))),
    "BClean" -> Map(
      "Hospital" -> Some((0.998, 0.956, 0.976)), "Flights" -> Some((0.852, 0.816, 0.834)),
      "Soccer" -> Some((0.928, 0.979, 0.952)), "Beers" -> Some((0.916, 0.887, 0.901)),
      "Inpatient" -> Some((0.909, 0.845, 0.876)), "Facilities" -> None),
    "BClean_PI" -> Map(
      "Hospital" -> Some((1.000, 0.960, 0.980)), "Flights" -> Some((0.831, 0.780, 0.805)),
      "Soccer" -> Some((0.919, 0.986, 0.951)), "Beers" -> Some((0.948, 0.949, 0.949)),
      "Inpatient" -> Some((0.934, 0.883, 0.908)), "Facilities" -> Some((0.810, 0.805, 0.807))),
    "BClean_PIP" -> Map(
      "Hospital" -> Some((0.997, 0.903, 0.948)), "Flights" -> Some((0.830, 0.784, 0.807)),
      "Soccer" -> Some((0.845, 0.931, 0.885)), "Beers" -> Some((0.948, 0.882, 0.914)),
      "Inpatient" -> Some((0.929, 0.791, 0.855)), "Facilities" -> Some((0.753, 0.730, 0.741))),
    "PClean" -> Map(
      "Hospital" -> Some((1.000, 0.927, 0.962)), "Flights" -> Some((0.907, 0.884, 0.895)),
      "Soccer" -> Some((0.184, 0.672, 0.289)), "Beers" -> Some((0.028, 0.028, 0.028)),
      "Inpatient" -> Some((0.576, 0.460, 0.512)), "Facilities" -> None),
    "HoloClean" -> Map(
      "Hospital" -> Some((1.000, 0.456, 0.626)), "Flights" -> Some((0.742, 0.352, 0.477)),
      "Soccer" -> None, "Beers" -> Some((1.000, 0.024, 0.047)),
      "Inpatient" -> Some((0.966, 0.219, 0.357)), "Facilities" -> Some((1.000, 0.612, 0.759))),
    "Raha+Baran" -> Map(
      "Hospital" -> Some((0.971, 0.585, 0.730)), "Flights" -> Some((0.829, 0.650, 0.729)),
      "Soccer" -> Some((0.768, 0.103, 0.182)), "Beers" -> Some((0.873, 0.872, 0.873)),
      "Inpatient" -> Some((0.643, 0.442, 0.524)), "Facilities" -> Some((0.499, 0.309, 0.382))),
    "Garf" -> Map(
      "Hospital" -> Some((1.000, 0.556, 0.715)), "Flights" -> Some((0.968, 0.012, 0.024)),
      "Soccer" -> Some((0.667, 0.534, 0.583)), "Beers" -> Some((0.973, 0.011, 0.021)),
      "Inpatient" -> Some((0.971, 0.091, 0.166)), "Facilities" -> Some((0.963, 0.281, 0.435))),
  )

  test("Table 4: P/R/F1 of all methods on all datasets (paper vs measured)") {
    val sb = new StringBuilder
    sb.append("== Table 4: precision / recall / F1 (paper -> measured) ==\n")
    val dss = Harness.datasets(spark)
    for (method <- Harness.Methods) {
      sb.append(s"-- $method --\n")
      for (ds <- dss) {
        val r = Harness.run(spark, ds, method)
        val p = paper(method)(ds.name)
          .map { case (pp, pr, pf) => f"$pp%.3f/$pr%.3f/$pf%.3f" }.getOrElse("   -  (OOM/OOT)  ")
        sb.append(f"${ds.name}%-11s paper=$p%-22s " +
          f"measured=${r.prf.precision}%.3f/${r.prf.recall}%.3f/${r.prf.f1}%.3f\n")
      }
    }
    Harness.record("table4", sb.toString)

    // Shape assertions: BClean variants competitive and
    // the baselines' signatures hold on the FD-rich datasets.
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
