package repro.core

import org.apache.spark.sql.DataFrame

/** Per-cell MAP inference (Algorithm 1) as a distributed map over tuples.
  *
  * For every cell (i, j), candidates c ∈ dom(A_j) with UC(c)=1 compete on
  *   p(c) = log BN[A_j](c) + log CS[A_j](c)
  * and the incumbent (the observed value) is replaced only when a candidate
  * scores strictly higher. The BN term is the full joint (basic variant) or
  * the Markov-blanket sub-network score (partitioned inference, Section 6.1).
  * Tuple pruning skips cells whose co-occurrence filter passes τ_clean, and
  * domain pruning restricts candidates to the TF-IDF top-K (Section 6.2).
  *
  * `score` is the definition of a candidate's score: its `evidence`
  * (log BN + log CS) plus the observation term. `repairTuple` scores the
  * incumbent with it (leave-one-out included) and takes the evidence of
  * every other candidate of the cell at once from the model's
  * `ScoringKernel`, `==` to `evidence`: an inverted-index scatter for the
  * partitioned variants, `evidence` itself for basic BClean. The
  * observation term is added only where it can change the choice.
  */
object Inference {

  final case class Config(
      partitioned: Boolean = true,     // Markov-blanket scoring instead of full joint
      useUc: Boolean = true,           // candidate filtering by UCs
      tuplePruning: Boolean = false,   // pre-detection (skip confident cells)
      domainPruning: Boolean = false,  // TF-IDF top-K candidate domains
      tauClean: Double = 0.35,         // tuple-pruning threshold
      topK: Int = 64,                  // domain-pruning candidate budget
  )

  val RepairMargin: Double = 2.0   // min log-score gap to replace the incumbent
  val ObsWeight: Double = 1.5      // weight of the observation-similarity term
  val SimFloor: Double = 0.1       // similarity floor (caps the dissimilarity penalty)
  val NullFillMargin: Double = 0.5 // min winner-vs-runner-up gap to fill a NULL

  /** Everything a partition needs to repair its tuples, broadcast once. */
  final case class Model(
      attrs: Seq[String],
      bn: BayesNet,
      corr: Map[(Int, Int), Map[(String, String), Double]],
      co: CoOccurrence,
      domains: Map[Int, IndexedSeq[String]],
      prunedDomains: Map[Int, IndexedSeq[String]],
      ucs: UcSet,
      cfg: Config,
      scoreParams: CompensatoryScore.Params = CompensatoryScore.Params(),
  ) extends Serializable {

    /** The tuple's own contribution to every corr entry it touches: +1 when
      * its confidence (Eq. 3) passes τ, −β otherwise. Needed for the
      * leave-one-out correction in `csLog`.
      */
    def selfWeight(t: Array[String]): Double = CompensatoryScore.weight(
      CompensatoryScore.confidence(t, attrs, ucs, scoreParams.lambda), scoreParams.tau, scoreParams.beta)

    /** The per-cell scoring step, built on first use in each JVM and never
      * serialized: the broadcast model stays the tables above.
      */
    @transient private[core] lazy val kernel: ScoringKernel = new ScoringKernel(this)
  }

  /** Repair one tuple's values in place-copy; returns the repaired values. */
  def repairTuple(model: Model, t: Array[String]): Array[String] = {
    val cfg = model.cfg
    val m = model.attrs.length
    val kernel = model.kernel
    val out = t.clone()
    val selfW = model.selfWeight(t)
    var j = 0
    while (j < m) {
      val skip = cfg.tuplePruning && !Values.isNull(t(j)) &&
        model.co.filterScore(t, j) >= cfg.tauClean
      if (!skip) {
        // Repair only past a margin over the incumbent — pre-detection in the
        // sense of Section 6.2: a cell whose observed value is statistically
        // indistinguishable from the best alternative is presumed clean. An
        // incumbent violating its UC forfeits the margin (the UC *is* the
        // evidence that the cell is wrong).
        val incumbentNull = Values.isNull(t(j))
        val incumbentOk = incumbentNull || model.ucs(model.attrs(j)).holds(t(j))
        val margin = if (incumbentOk && !incumbentNull) RepairMargin else 0.0
        var bestC = t(j)
        var bestP = score(model, j, bestC, t, selfW) + margin
        var secondP = Double.NegativeInfinity
        // Candidates in canonical domain order (see `Stats.domain`): the
        // strict `>` below lets the earliest of equally scored ones win.
        val cands = kernel.candidates(j)
        val ev = kernel.evidence(j, t)
        val self = kernel.position(j, t(j))
        var i = 0
        while (i < cands.length) {
          // Against a non-NULL incumbent the observation term is added, and
          // it is ≤ 0.0: evidence at or below bestP cannot win, so its term
          // is never computed. secondP is read only for a NULL incumbent,
          // which has no observation term and sees every candidate.
          if (i != self && (incumbentNull || ev(i) > bestP)) {
            val p = if (incumbentNull) ev(i) else ev(i) + obsLog(t(j), cands(i))
            if (p > bestP) { secondP = bestP; bestP = p; bestC = cands(i) }
            else if (p > secondP) { secondP = p }
          }
          i += 1
        }
        // A NULL is only filled when the winner clearly dominates the
        // runner-up — a near-uniform fill (e.g. a missing source site) is a
        // coin flip that would only cost precision.
        if (incumbentNull && bestC != t(j) && bestP - secondP < NullFillMargin)
          bestC = t(j)
        out(j) = bestC
      }
      j += 1
    }
    out
  }

  /** p(c) = log BN + log CS of Algorithm 1 line 6, plus the observation term
    * of the Section 5 Remarks ("the distance between an observation and a
    * candidate value is matched with the weighted score"): candidates close
    * to the observed cell in the softened-FD similarity are preferred, which
    * is what recovers typos on attributes with no relational context.
    */
  def score(model: Model, j: Int, c: String, t: Array[String], selfW: Double = 0.0): Double =
    evidence(model, j, c, t, selfW) + (if (Values.isNull(t(j))) 0.0 else obsLog(t(j), c))

  /** The evidence part of `score`, log BN + log CS, without the observation
    * term.
    */
  def evidence(model: Model, j: Int, c: String, t: Array[String], selfW: Double = 0.0): Double = {
    val bnLog =
      if (model.cfg.partitioned) model.bn.blanketLog(j, c, t)
      else model.bn.fullJointLog(j, c, t)
    bnLog + csLog(model, j, c, t, selfW)
  }

  /** The observation term of candidate `c` against the non-NULL observed
    * value, over the *literal string*: a typo differs as a string even when
    * numerically close (id 2476 vs 2500 must not look alike). Never
    * positive: a similarity is at most 1, and so is `SimFloor`.
    */
  private[core] def obsLog(observed: String, c: String): Double =
    ObsWeight * math.log(math.max(repro.text.Similarity.string(observed, c), SimFloor))

  /** The log CS term of `score`: Score_corr (Eq. 2), leave-one-out for the
    * incumbent.
    */
  def csLog(model: Model, j: Int, c: String, t: Array[String], selfW: Double): Double = {
    // The incumbent's corr entries include this very tuple's pairs (one per
    // non-null context attribute, weighted ±). Take its weight off each entry
    // so a value seen nowhere else gets exactly no support from its own dirty
    // row, and a correct value inside a β-penalized row is not poisoned by it.
    val n = model.co.nRows
    val self = if (c == t(j) && !Values.isNull(c)) selfW else 0.0
    CompensatoryScore.logCs(CompensatoryScore.scoreCorr(model.corr, n, j, c, t, self), n)
  }

  /** Distributed cleaning pass: `repairTuple` over every tuple, with the
    * model broadcast once. The output schema equals the input schema.
    */
  def clean(df: DataFrame, model: Model): DataFrame =
    Values.mapTuples(df, model.attrs, model)(repairTuple)
}
