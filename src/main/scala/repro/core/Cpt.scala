package repro.core

/** Per-edge conditional probability table (Section 2: "CPTs θ that weight the
  * edges"), one per BN edge parent → child, estimated from the observed
  * (dirty) relation with Laplace smoothing — errors are modeled as part of
  * the distribution. Pairwise tables stay dense under dirty co-parents,
  * unlike joint multi-parent tables whose combos go unseen the moment any
  * one parent cell is corrupted.
  *
  * The table is a view: `prob` reads the pair and unary counts of `co`
  * (the `Stats` pass) in place. NULL is counted on both sides, so
  * count(parent = p) is exactly the total of p's row of the table.
  *
  * @param parent attribute index of the edge's source
  * @param child  attribute index of the edge's target
  * @param alpha  Laplace pseudo-count
  */
final case class Cpt(parent: Int, child: Int, alpha: Double, co: CoOccurrence) {

  private val pairs = co.pairs.getOrElse((parent, child), Map.empty[(String, String), Long])
  private val parentCounts = co.unary(parent)

  /** |dom(child)|, used for smoothing. */
  val domSize: Int = co.unary(child).size

  /** Smoothed Pr[child = v | parent = p]; an unseen parent value (possible
    * only for values absent from the relation) is uniform over the domain.
    */
  def prob(p: String, v: String): Double = probWithCount(p, pairs.getOrElse((p, v), 0L))

  /** `prob` for a child value that co-occurs `n` times with the parent
    * value `p`: the one formula `prob` and the scoring kernel share.
    */
  private[core] def probWithCount(p: String, n: Long): Double =
    parentCounts.get(p) match {
      case Some(total) => probWithCounts(total, n)
      case None => 1.0 / math.max(domSize, 1)
    }

  /** `probWithCount` for a parent value seen `total` times. */
  private[core] def probWithCounts(total: Long, n: Long): Double = (n + alpha) / (total + alpha * domSize)

  def logProb(p: String, v: String): Double = math.log(prob(p, v))

  /** The table itself, parent value → (child value → count, total), built
    * on demand for inspection.
    */
  def table: Map[String, (Map[String, Long], Long)] =
    pairs.groupBy(_._1._1).map { case (p, cells) =>
      p -> (cells.map { case ((_, v), n) => v -> n }, parentCounts(p))
    }
}
