package repro.linalg

/** Graphical lasso (Friedman, Hastie, Tibshirani 2008) — estimates a sparse
  * inverse covariance Θ from an empirical covariance S with L1 penalty ρ.
  *
  * BClean (Section 4) runs this over the m×m covariance of the softened-FD
  * similarity observations to get the Θ that is then decomposed into the
  * Bayesian-network skeleton. m is small (≤ 15), so the classic block
  * coordinate-descent algorithm with an inner lasso coordinate descent is
  * plenty fast and dependency-free.
  */
object GraphicalLasso {

  final case class Result(theta: Mat, w: Mat, iterations: Int)

  private def soft(x: Double, t: Double): Double =
    if (x > t) x - t else if (x < -t) x + t else 0.0

  /** Column j's lasso, min_b ½ bᵀ W11 b − bᵀ s12 + ρ‖b‖₁ over the indices
    * `others` (all but j), by coordinate descent from the warm start `beta`,
    * which it updates in place.
    */
  private def lasso(s: Mat, w: Mat, j: Int, others: Array[Int], beta: Array[Double], rho: Double, tol: Double): Unit = {
    var inner = 0
    var done = false
    while (inner < 2000 && !done) {
      var maxDelta = 0.0
      var k = 0
      while (k < others.length) {
        val ok = others(k)
        var r = s(ok, j)
        var l = 0
        while (l < others.length) { if (l != k) r -= w(ok, others(l)) * beta(l); l += 1 }
        val nb = soft(r, rho) / math.max(w(ok, ok), 1e-12)
        maxDelta = math.max(maxDelta, math.abs(nb - beta(k)))
        beta(k) = nb
        k += 1
      }
      inner += 1
      if (maxDelta < tol * 0.1) done = true
    }
  }

  /** @param s    empirical covariance (symmetric p×p)
    * @param rho  L1 penalty; 0 recovers plain inversion (for PD input)
    * @param maxIter outer sweeps over the p columns
    * @param tol  convergence threshold on the max absolute change of W
    */
  def fit(s: Mat, rho: Double, maxIter: Int = 200, tol: Double = 1e-7): Result = {
    require(s.isSquare, "covariance must be square")
    val p = s.rows
    // W starts at S + rho*I (standard initialization).
    val w = s.copy
    for (i <- 0 until p) w(i, i) = s(i, i) + rho
    // beta_j: lasso coefficients for column j, kept warm across sweeps.
    val betas = Array.fill(p)(new Array[Double](p - 1))
    var it = 0
    var converged = false
    while (it < maxIter && !converged) {
      val wOld = w.copy
      var j = 0
      while (j < p) {
        val others = (0 until p).filter(_ != j).toArray
        val beta = betas(j)
        lasso(s, w, j, others, beta, rho, tol)
        // w12 = W11 * beta
        var k = 0
        while (k < others.length) {
          val ok = others(k)
          var v = 0.0
          var l = 0
          while (l < others.length) { v += w(ok, others(l)) * beta(l); l += 1 }
          w(ok, j) = v
          w(j, ok) = v
          k += 1
        }
        j += 1
      }
      it += 1
      if (w.maxAbsDiff(wOld) < tol) converged = true
    }
    // Recover Θ from the *final* W with freshly re-solved betas (a stale β
    // from an earlier sweep would skew off-diagonals), then symmetrize:
    // θ22 = 1/(w22 − w12ᵀβ), θ12 = −β θ22.
    val theta = Mat.zeros(p, p)
    var j = 0
    while (j < p) {
      val others = (0 until p).filter(_ != j).toArray
      val beta = betas(j)
      lasso(s, w, j, others, beta, rho, tol)
      var dot = 0.0
      var k = 0
      while (k < others.length) { dot += w(others(k), j) * beta(k); k += 1 }
      val t22 = 1.0 / math.max(w(j, j) - dot, 1e-12)
      theta(j, j) = t22
      k = 0
      while (k < others.length) {
        theta(others(k), j) = -beta(k) * t22
        k += 1
      }
      j += 1
    }
    val sym = Mat.zeros(p, p)
    for (a <- 0 until p; b <- 0 until p) sym(a, b) = (theta(a, b) + theta(b, a)) / 2.0
    Result(sym, w, it)
  }
}
