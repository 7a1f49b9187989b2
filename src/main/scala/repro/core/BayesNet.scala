package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.Dag

/** A learned Bayesian network over the attributes of a relation: DAG skeleton
  * plus per-edge CPTs and root/marginal priors (Sections 4 and 6.1).
  *
  * Scoring conventions (all in log space, over a tuple's attribute values
  * `t` with the candidate substituted at position `j`):
  *
  *  - `fullJointLog` — the naive inference of the *basic* BClean variant:
  *    every node factor is evaluated per candidate.
  *  - `blanketLog` — partitioned inference (Section 6.1): only the factors of
  *    the sub-network A_joint = parents(j) ∪ {j} ∪ children(j) participate;
  *    isolated nodes fall back to a uniform factor.
  *
  * A node's factor is the sum of its per-edge log-conditionals (naive-Bayes
  * composition of the edge CPTs). *Context* factors — children evaluated at
  * their dirty observations — are floored at the child's uniform level: a
  * dirty child observation explains nothing about the candidate, and without
  * the floor a correct candidate would be punished for errors elsewhere in
  * the tuple (the error amplification Section 5 warns about).
  */
final case class BayesNet(
    attrs: Seq[String],
    dag: Dag,
    cpts: Map[Int, Seq[Cpt]],
    priors: Map[Int, Map[String, Double]],
    priorAlpha: Double,
) extends Serializable {

  private val m = attrs.length
  // Children lists materialized once — scoring is the inference hot path.
  private val childrenOf: Array[Array[Int]] = Array.tabulate(m)(v => dag.children(v).toArray)
  private val parentsOf: Array[Array[Int]] = Array.tabulate(m)(v => dag.parents(v).toArray)
  def priorProb(node: Int, v: String): Double = {
    val p = priors(node)
    p.getOrElse(v, priorAlpha / (p.size + 1).toDouble / 100.0) // tiny smoothed mass for unseen
  }

  /** Uniform log-probability of a node's domain — the "uninformative" level. */
  def uniformLog(node: Int): Double = -math.log(math.max(priors(node).size, 1).toDouble)

  /** log factor of `node` carrying value `v`, parents drawn from `t` with
    * position `subst` forced to `substVal` (when subst ≥ 0). Per-edge
    * log-conditionals are summed; each is floored at uniform when
    * `floorPairs` is set (used for context factors).
    */
  def nodeFactorLog(node: Int, v: String, t: Array[String], subst: Int = -1,
                    substVal: String = null, floorPairs: Boolean = false): Double = {
    val ps = parentsOf(node)
    if (ps.isEmpty) {
      // Section 2: parentless nodes use the prior inferred from D. (We do not
      // flatten isolated nodes to uniform — the empirical prior is what
      // separates a frequent correct value from a one-off typo when no
      // relational context exists.)
      math.log(priorProb(node, v))
    } else {
      val edgeCpts = cpts(node)
      var s = 0.0
      var i = 0
      while (i < edgeCpts.length) {
        val cpt = edgeCpts(i)
        val pv = if (cpt.parent == subst) substVal else t(cpt.parent)
        val f = cpt.logProb(pv, v)
        s += (if (floorPairs) math.max(f, uniformLog(node)) else f)
        i += 1
      }
      s
    }
  }

  /** Basic-variant score: full joint log-probability of the tuple with
    * candidate `c` at position `j`. All m factors evaluated per candidate.
    */
  def fullJointLog(j: Int, c: String, t: Array[String]): Double = {
    var s = 0.0
    var i = 0
    while (i < m) {
      val v = if (i == j) c else t(i)
      s += nodeFactorLog(i, v, t, subst = j, substVal = c, floorPairs = i != j)
      i += 1
    }
    s
  }

  /** Partitioned-inference score (Section 6.1):
    * Pr[A_j | A_parent] · Pr[A_child | A_j] within the one-hop sub-network.
    */
  def blanketLog(j: Int, c: String, t: Array[String]): Double = {
    var s = nodeFactorLog(j, c, t, subst = j, substVal = c)
    val ch = childrenOf(j)
    var k = 0
    while (k < ch.length) {
      s += nodeFactorLog(ch(k), t(ch(k)), t, subst = j, substVal = c, floorPairs = true)
      k += 1
    }
    s
  }
}

object BayesNet {

  /** Parameter learning for a given skeleton (Section 4). */
  def learn(df: DataFrame, attrs: Seq[String], dag: Dag, alpha: Double = 0.05): BayesNet =
    learn(Stats.compute(df, attrs), dag, alpha)

  def learn(stats: Stats, dag: Dag, alpha: Double): BayesNet = {
    val priors = stats.attrs.indices.map(v => v -> Cpt.prior(stats, v, alpha)).toMap
    BayesNet(stats.attrs, dag, Cpt.learnAll(stats, dag, alpha), priors, alpha)
  }

  def applyUserEdits(df: DataFrame, bn0: BayesNet, desired: Seq[(Int, Int)]): BayesNet =
    applyUserEdits(Stats.compute(df, bn0.attrs), bn0, desired)

  /** User interaction (Section 7.3.2): reconcile the learned network with a
    * set of user-desired edges. For each desired edge u→v: a conflicting
    * reverse edge v→u is removed (the user corrects the direction); if adding
    * would still close a longer cycle the edit is skipped; otherwise the edge
    * is added. CPTs of touched children are re-derived from `stats`, so
    * edits run no Spark job.
    */
  def applyUserEdits(stats: Stats, bn0: BayesNet, desired: Seq[(Int, Int)]): BayesNet =
    desired.foldLeft(bn0) { case (bn, (u, v)) =>
      if (bn.dag.hasEdge(u, v)) bn
      else {
        val afterRemove = if (bn.dag.hasEdge(v, u)) edit(stats, bn, add = Nil, remove = Seq((v, u))) else bn
        if (afterRemove.dag.reaches(v, u)) afterRemove // would close a cycle — skip
        else edit(stats, afterRemove, add = Seq((u, v)))
      }
    }

  /** User interaction (Section 4): apply edge edits and re-derive only the
    * CPTs of nodes whose parent set changed — not all attributes.
    */
  def edit(stats: Stats, bn: BayesNet, add: Seq[(Int, Int)], remove: Seq[(Int, Int)] = Nil): BayesNet = {
    val newDag0 = remove.foldLeft(bn.dag) { case (d, (u, v)) => d.removeEdge(u, v) }
    val newDag = add.foldLeft(newDag0) { case (d, (u, v)) => d.addEdge(u, v) }
    val touched = (add ++ remove).map(_._2).distinct
    val cpts = (bn.cpts -- touched.filter(newDag.parents(_).isEmpty)) ++
      touched.filter(newDag.parents(_).nonEmpty).map { v =>
        v -> newDag.parents(v).map(p => Cpt.learn(stats, p, v, bn.priorAlpha))
      }
    bn.copy(dag = newDag, cpts = cpts)
  }
}
