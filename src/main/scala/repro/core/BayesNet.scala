package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.Dag

/** A learned Bayesian network over the attributes of a relation: DAG skeleton
  * plus per-edge CPTs and root/marginal priors (Sections 4 and 6.1). CPTs and
  * priors are lookups into the counts `co` of the `Stats` pass, so the
  * network holds no table of its own, and a user edit is a DAG edit
  * (`copy(dag = …)`).
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
    co: CoOccurrence,
    alpha: Double,
) extends Serializable {

  private val m = attrs.length
  // Children lists materialized once — scoring is the inference hot path.
  private val childrenOf: Array[Array[Int]] = Array.tabulate(m)(v => dag.children(v).toArray)

  /** The edge CPTs of every node with parents, keyed by child, in the order
    * of `dag.parents`.
    */
  val cpts: Map[Int, Seq[Cpt]] =
    attrs.indices.map(v => v -> dag.parents(v).map(Cpt(_, v, alpha, co))).filter(_._2.nonEmpty).toMap

  /** Laplace-smoothed marginal Pr[A_node = v] (Section 2: parentless nodes
    * use the prior inferred from D); a value absent from the relation gets a
    * tiny smoothed mass. Every attribute's counts sum to nRows (NULL is
    * counted).
    */
  def priorProb(node: Int, v: String): Double = {
    val counts = co.unary(node)
    counts.get(v) match {
      case Some(c) => (c + alpha) / (co.nRows.toDouble + alpha * counts.size)
      case None => alpha / (counts.size + 1).toDouble / 100.0
    }
  }

  /** Every attribute's prior over its domain, built on demand. */
  def priors: Map[Int, Map[String, Double]] =
    attrs.indices.map(v => v -> co.unary(v).map { case (x, _) => x -> priorProb(v, x) }).toMap

  /** Uniform log-probability of a node's domain — the "uninformative" level. */
  def uniformLog(node: Int): Double = -math.log(math.max(co.unary(node).size, 1).toDouble)

  /** log factor of `node` carrying value `v`, parents drawn from `t` with
    * position `subst` forced to `substVal` (when subst ≥ 0). Per-edge
    * log-conditionals are summed; each is floored at uniform when
    * `floorPairs` is set (used for context factors).
    */
  def nodeFactorLog(node: Int, v: String, t: Array[String], subst: Int = -1,
                    substVal: String = null, floorPairs: Boolean = false): Double = {
    cpts.get(node) match {
      // Section 2: parentless nodes use the prior inferred from D. (We do not
      // flatten isolated nodes to uniform — the empirical prior is what
      // separates a frequent correct value from a one-off typo when no
      // relational context exists.)
      case None => math.log(priorProb(node, v))
      case Some(edgeCpts) =>
        val floor = uniformLog(node)
        edgeCpts.foldLeft(0.0) { (s, cpt) =>
          val f = cpt.logProb(if (cpt.parent == subst) substVal else t(cpt.parent), v)
          s + (if (floorPairs) math.max(f, floor) else f)
        }
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

  /** Parameter learning for a given skeleton (Section 4): one `Stats` pass. */
  def learn(df: DataFrame, attrs: Seq[String], dag: Dag, alpha: Double = 0.05): BayesNet =
    BayesNet(attrs, dag, Stats.compute(df, attrs).co, alpha)

  /** User interaction (Section 7.3.2): `bn0` on the DAG reconciled with the
    * desired edges (`Dag.reconcile`). The CPTs read the same counts, so
    * `df` is not read; the parameter stays for the DataFrame-level callers
    * (ROADMAP item 5).
    */
  def applyUserEdits(df: DataFrame, bn0: BayesNet, desired: Seq[(Int, Int)]): BayesNet =
    bn0.copy(dag = bn0.dag.reconcile(desired))
}
