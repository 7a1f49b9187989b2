package repro.core

/** The per-candidate MAP loop `Inference.repairTuple` ran before the scoring
  * kernel: every non-NULL, UC-valid value of the (pruned) domain is scored
  * by `Inference.score`, one at a time. The reference the kernel is tested
  * against.
  */
object ReferenceLoop {

  def repairTuple(model: Inference.Model, t: Array[String]): Array[String] = {
    val cfg = model.cfg
    val out = t.clone()
    val selfW = model.selfWeight(t)
    model.attrs.indices.foreach { j =>
      val skip = cfg.tuplePruning && !Values.isNull(t(j)) && model.co.filterScore(t, j) >= cfg.tauClean
      if (!skip) {
        val uc = model.ucs(model.attrs(j))
        val base = if (cfg.domainPruning) model.prunedDomains(j) else model.domains(j)
        val incumbentNull = Values.isNull(t(j))
        val incumbentOk = incumbentNull || uc.holds(t(j))
        val margin = if (incumbentOk && !incumbentNull) Inference.RepairMargin else 0.0
        var bestC = t(j)
        var bestP = Inference.score(model, j, bestC, t, selfW) + margin
        var secondP = Double.NegativeInfinity
        base.foreach { c =>
          if (c != t(j) && !Values.isNull(c) && uc.holds(c)) {
            val p = Inference.score(model, j, c, t, selfW)
            if (p > bestP) { secondP = bestP; bestP = p; bestC = c }
            else if (p > secondP) { secondP = p }
          }
        }
        if (incumbentNull && bestC != t(j) && bestP - secondP < Inference.NullFillMargin) bestC = t(j)
        out(j) = bestC
      }
    }
    out
  }

  /** The candidates of `t` whose kernel evidence differs from
    * `Inference.evidence`, or (partitioned variants) whose BN term or
    * Score_corr differs from `BayesNet.blanketLog` or
    * `CompensatoryScore.scoreCorr`; each as (j, candidate, term, kernel,
    * reference). Compared with `==`; empty when the kernel is exact.
    */
  def scoreMismatches(model: Inference.Model, t: Array[String]): Seq[(Int, String, String, Double, Double)] = {
    val selfW = model.selfWeight(t)
    val n = model.co.nRows
    model.attrs.indices.flatMap { j =>
      val cands = model.kernel.candidates(j)
      val ev = model.kernel.evidence(j, t)
      val layers =
        if (!model.cfg.partitioned) Nil
        else Seq(
          ("bn", model.kernel.blanket(j, t), (c: String) => model.bn.blanketLog(j, c, t)),
          ("corr", model.kernel.corrSums(j, t).map(_ / math.max(n, 1L)),
            (c: String) => CompensatoryScore.scoreCorr(model.corr, n, j, c, t)))
      cands.indices.filter(i => cands(i) != t(j)).flatMap { i =>
        val c = cands(i)
        (("evidence", ev, (c: String) => Inference.evidence(model, j, c, t, selfW)) +: layers).collect {
          case (term, kernel, ref) if kernel(i) != ref(c) => (j, c, term, kernel(i), ref(c))
        }
      }
    }
  }
}
