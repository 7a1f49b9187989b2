package repro.bench

import repro.SparkSpec

/** Tables 8–10 — parameter sensitivity of λ, β, τ on Hospital
  * (`Tables.tables8to10`). The paper's point is *stability*: F1 barely moves
  * across the whole grid.
  */
class ParamBench extends SparkSpec {

  test("Tables 8-10: lambda/beta/tau sweeps on Hospital (paper F1 ~0.981 flat)") {
    val res = Tables.tables8to10(spark)
    Harness.record("table8to10", res.text)
    def sweep(p: String) = res.rows.collect { case (`p`, v, f) => v -> f }
    val (l, b, t) = (sweep("lambda"), sweep("beta"), sweep("tau"))
    // Shape: stability — spread within each sweep below 0.05 F1.
    def spread(xs: Seq[(Double, Double)]) = xs.map(_._2).max - xs.map(_._2).min
    assert(spread(l) < 0.05, s"lambda spread ${spread(l)}")
    assert(spread(b) < 0.05, s"beta spread ${spread(b)}")
    assert(spread(t) < 0.05, s"tau spread ${spread(t)}")
  }
}
