package repro.core

import scala.collection.mutable

/** The per-cell scoring step of `Inference.repairTuple`: the evidence
  * (log BN + log CS) of all candidates of one cell at once, each `==` to
  * `Inference.evidence`. The observation term is left to `repairTuple`,
  * which adds it only to a candidate whose evidence could still win.
  *
  *  - Candidate lists: per attribute, the non-NULL, UC-valid values of the
  *    domain (the pruned domain under domain pruning), in canonical order.
  *    Every variant reads them, so no cell runs a UC over the domain again.
  *  - Partitioned variants: an inverted index from a context value to
  *    (candidate position, term) for the corr table (CS term) and for the
  *    CPT pair counts of every edge into and out of the attribute (BN term),
  *    with each CPT term's log and child floor taken when the index is
  *    built. Per cell the rows of the tuple's values are fetched once and
  *    scatter-added into per-candidate arrays in the order
  *    `Inference.evidence` adds its terms (DESIGN §6 item 16).
  *  - Basic BClean, the slow baseline of Table 7, maps `Inference.evidence`
  *    over the candidates.
  *
  * One instance per model and JVM (`Inference.Model.kernel`); nothing here
  * outlives its model.
  */
private[core] final class ScoringKernel(model: Inference.Model) {
  import ScoringKernel._

  private val m = model.attrs.length
  private val nRows = model.co.nRows

  /** Per attribute: a cell's candidates, in the order ties are broken by. */
  val candidates: Array[Array[String]] = Array.tabulate(m) { j =>
    val uc = model.ucs(model.attrs(j))
    val base = if (model.cfg.domainPruning) model.prunedDomains(j) else model.domains(j)
    base.iterator.filter(c => !Values.isNull(c) && uc.holds(c)).toArray
  }
  private val positions: Array[Map[String, Int]] = candidates.map(_.zipWithIndex.toMap)

  /** Position of `v` in attribute j's candidate list, −1 when it is not one. */
  def position(j: Int, v: String): Int = positions(j).getOrElse(v, -1)

  /** The evidence of every candidate of cell (t, j), by position. The entry
    * at the incumbent's own position lacks its leave-one-out correction and
    * is not one `repairTuple` reads.
    */
  def evidence(j: Int, t: Array[String]): Array[Double] = {
    val cs = candidates(j)
    if (!model.cfg.partitioned) return cs.map(Inference.evidence(model, j, _, t))
    val ev = blanket(j, t)
    val corr = corrSums(j, t)
    var i = 0
    while (i < cs.length) {
      // A candidate with no support has Score_corr exactly 0.0, and
      // logCs(0.0) is 0.0.
      val s = corr(i)
      ev(i) += (if (s == 0.0) 0.0 else CompensatoryScore.logCs(s / math.max(nRows, 1L), nRows))
      i += 1
    }
    ev
  }

  // ---- inverted index (partitioned variants) ----

  /** Rows of the index keyed by context value, from (context value,
    * candidate value, term) entries; entries whose candidate value is not a
    * candidate are dropped.
    */
  private def rows(j: Int, entries: Iterator[(String, String, Double)]): Map[String, Row] = {
    val pos = positions(j)
    val acc = mutable.HashMap.empty[String, (mutable.ArrayBuilder.ofInt, mutable.ArrayBuilder.ofDouble)]
    entries.foreach { case (e, c, x) =>
      pos.get(c).foreach { p =>
        val (ps, xs) = acc.getOrElseUpdate(e, (new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble))
        ps += p
        xs += x
      }
    }
    acc.iterator.map { case (e, (ps, xs)) => e -> Row(ps.result(), xs.result()) }.toMap
  }

  private lazy val nodes: Array[Node] = Array.tabulate(m) { j =>
    val bn = model.bn
    val cs = candidates(j)
    val prior = if (bn.cpts.contains(j)) null else cs.map(c => math.log(bn.priorProb(j, c)))
    // Edge p → j, keyed by t(p): log Pr[c | t(p)] of every candidate that
    // co-occurs with t(p).
    val parents = bn.cpts.getOrElse(j, Nil).map { cpt =>
      val pairs = cpt.co.pairs.getOrElse((cpt.parent, j), Map.empty[(String, String), Long])
      ParentEdge(cpt, rows(j, pairs.iterator.map { case ((e, c), n) =>
        (e, c, math.log(cpt.probWithCount(e, n)))
      }))
    }.toArray
    // Edge j → ch, keyed by t(ch): the floored log Pr[t(ch) | c] of every
    // candidate that co-occurs with t(ch).
    val children = bn.dag.children(j).map { ch =>
      val chCpts = bn.cpts(ch).toArray
      val cpt = chCpts.find(_.parent == j).get
      val floor = bn.uniformLog(ch)
      val pairs = cpt.co.pairs.getOrElse((j, ch), Map.empty[(String, String), Long])
      ChildEdge(ch, chCpts, chCpts.indexOf(cpt), floor,
        rows(j, pairs.iterator.map { case ((c, v), n) => (v, c, math.max(math.log(cpt.probWithCount(c, n)), floor)) }))
    }.toArray
    // Corr table of (j, k), keyed by t(k): the weight of (c, t(k)).
    val corr = Array.tabulate(m) { k =>
      if (k == j) null
      else model.corr.get((j, k)).map(ws => rows(j, ws.iterator.map { case ((c, e), w) => (e, c, w) })).orNull
    }
    Node(prior, parents, children, corr)
  }

  /** `BayesNet.blanketLog` of every candidate: the factor of j, then each
    * child's factor, in `blanketLog`'s order.
    */
  def blanket(j: Int, t: Array[String]): Array[Double] = {
    val node = nodes(j)
    val n = candidates(j).length
    val term = new Array[Double](n)
    val s = if (node.prior != null) node.prior.clone() else {
      // Σ over the parents in order, from 0.0 as `nodeFactorLog` sums.
      val f = new Array[Double](n)
      node.parents.foreach { edge =>
        val e = t(edge.cpt.parent)
        java.util.Arrays.fill(term, math.log(edge.cpt.probWithCount(e, 0L)))
        edge.rows.get(e).foreach(_.scatter(term))
        var i = 0
        while (i < n) { f(i) += term(i); i += 1 }
      }
      f
    }
    node.children.foreach { edge =>
      val v = t(edge.child)
      // The child's other parents hold their observed values: constant
      // floored terms, summed before and after j's in the child's parent order.
      var before = 0.0
      var q = 0
      while (q < edge.at) { before += edge.context(q, t, v); q += 1 }
      val after = Array.tabulate(edge.cpts.length - edge.at - 1)(r => edge.context(edge.at + 1 + r, t, v))
      // A candidate that does not co-occur with v sits at the floor: every
      // candidate is a value of the relation (count ≥ 1), and
      // α/(count + α·|dom(child)|) < 1/|dom(child)|.
      java.util.Arrays.fill(term, edge.floor)
      edge.rows.get(v).foreach(_.scatter(term))
      var i = 0
      while (i < n) {
        var x = before + term(i)
        q = 0
        while (q < after.length) { x += after(q); q += 1 }
        s(i) += x
        i += 1
      }
    }
    s
  }

  /** Score_corr of every candidate before normalization: the corr weights
    * of (c, t(k)), added over the non-NULL context k in increasing k, as
    * `CompensatoryScore.scoreCorr` adds them. An absent entry adds 0.0 there
    * and nothing here; the sum is never −0.0, so the two agree bit for bit.
    */
  def corrSums(j: Int, t: Array[String]): Array[Double] = {
    val corr = nodes(j).corr
    val s = new Array[Double](candidates(j).length)
    var k = 0
    while (k < m) {
      if (corr(k) != null && !Values.isNull(t(k))) corr(k).get(t(k)).foreach(_.add(s))
      k += 1
    }
    s
  }
}

object ScoringKernel {

  /** Candidate positions and one term for each, under one context value. */
  private final case class Row(pos: Array[Int], term: Array[Double]) {
    def scatter(into: Array[Double]): Unit = {
      var q = 0
      while (q < pos.length) { into(pos(q)) = term(q); q += 1 }
    }
    def add(into: Array[Double]): Unit = {
      var q = 0
      while (q < pos.length) { into(pos(q)) += term(q); q += 1 }
    }
  }

  /** Edge `cpt.parent` → j. */
  private final case class ParentEdge(cpt: Cpt, rows: Map[String, Row])

  /** Edge j → `child`; `cpts` are the child's edge CPTs in its parent order,
    * j's at index `at`.
    */
  private final case class ChildEdge(child: Int, cpts: Array[Cpt], at: Int, floor: Double, rows: Map[String, Row]) {
    /** The floored term of the child's parent `cpts(q)` ≠ j at its observed value. */
    def context(q: Int, t: Array[String], v: String): Double =
      math.max(cpts(q).logProb(t(cpts(q).parent), v), floor)
  }

  /** `prior` is set for a root j and null otherwise; `corr(k)` is null when
    * k = j or there is no corr table of (j, k).
    */
  private final case class Node(prior: Array[Double], parents: Array[ParentEdge], children: Array[ChildEdge],
                                corr: Array[Map[String, Row]])
}
