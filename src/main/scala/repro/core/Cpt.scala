package repro.core

import repro.graph.Dag

/** Per-edge conditional probability table (Section 2: "CPTs θ that weight the
  * edges"). One table per BN edge parent → child, estimated from the observed
  * (dirty) relation with Laplace smoothing — errors are modeled as part of
  * the distribution. Pairwise tables stay dense under dirty co-parents,
  * unlike joint multi-parent tables whose combos go unseen the moment any
  * one parent cell is corrupted. Tables and priors are projections of the
  * pair and unary counts of `Stats`.
  *
  * @param parent  attribute index of the edge's source
  * @param child   attribute index of the edge's target
  * @param table   parent value → (child value → count, total)
  * @param domSize |dom(child)| used for smoothing
  * @param alpha   Laplace pseudo-count
  */
final case class Cpt(
    parent: Int,
    child: Int,
    table: Map[String, (Map[String, Long], Long)],
    domSize: Int,
    alpha: Double,
) extends Serializable {

  /** Smoothed Pr[child = v | parent = p]; an unseen parent value (possible
    * only for values absent from the relation) is uniform over the domain.
    */
  def prob(p: String, v: String): Double =
    table.get(p) match {
      case Some((counts, total)) =>
        (counts.getOrElse(v, 0L) + alpha) / (total + alpha * domSize)
      case None => 1.0 / math.max(domSize, 1)
    }

  def logProb(p: String, v: String): Double = math.log(prob(p, v))
}

object Cpt {

  /** The per-edge CPT parent → child, from the pair counts of `stats`. */
  def learn(stats: Stats, parent: Int, child: Int, alpha: Double = 0.05): Cpt = {
    val table = stats.pairs.getOrElse((parent, child), Map.empty[(String, String), Long])
      .groupBy(_._1._1)
      .map { case (pv, cells) =>
        val counts = cells.map { case ((_, cv), n) => cv -> n }
        pv -> (counts, counts.values.sum)
      }
    Cpt(parent, child, table, stats.unary(child).size, alpha)
  }

  /** All edge CPTs of a DAG, keyed by child. */
  def learnAll(stats: Stats, dag: Dag, alpha: Double = 0.05): Map[Int, Seq[Cpt]] =
    stats.attrs.indices
      .map(v => v -> dag.parents(v).map(p => learn(stats, p, v, alpha)))
      .filter(_._2.nonEmpty)
      .toMap

  /** Prior (marginal) distribution of one attribute, Laplace-smoothed. */
  def prior(stats: Stats, attr: Int, alpha: Double = 1.0): Map[String, Double] = {
    val counts = stats.unary(attr)
    val total = counts.values.sum.toDouble
    val dom = counts.size
    counts.map { case (v, c) => v -> (c + alpha) / (total + alpha * dom) }
  }
}
