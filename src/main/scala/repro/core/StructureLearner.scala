package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.Dag
import repro.linalg.{GraphicalLasso, Mat}
import repro.text.Similarity

/** Automatic Bayesian-network skeleton construction (Section 4).
  *
  * Extends the FDX structure-learning recipe with the paper's softened-FD
  * similarity: for each attribute A, sort the relation by A and compute the
  * m-dimensional similarity vector of every adjacent tuple pair. These
  * vectors are treated as observations of a multivariate Gaussian;
  * graphical lasso estimates the inverse covariance Θ, which is decomposed
  * as Θ = (I−B)ᵀΩ⁻¹(I−B) (one elimination in the sink-first order of
  * Ghoshal–Honorio) to recover the autoregression matrix B. Entries of B
  * with |weight| ≥ threshold become directed BN edges.
  *
  * It runs on the driver, over the relation the `Stats` pass collects by
  * code (`Stats.relation`), so `BClean.buildModel` learns the network from
  * the one Spark job that counts the model. All m·(n−1) adjacent pairs are
  * scored; each attribute's sort is a stable counting sort of the row ids,
  * so ties on the sorted attribute keep input row order, and a Spark NULL
  * is read as the empty string (`Values.ofRow`) and ties with it.
  */
object StructureLearner {

  final case class Config(
      maxParents: Int = 3, // in-degree cap (bounds CPT size)
  )

  val Rho: Double = 0.05           // graphical-lasso L1 penalty
  val EdgeThreshold: Double = 0.12 // min |B| weight kept as an edge
  val Ridge: Double = 1e-3         // diagonal ridge for degenerate covariances

  /** The row ids of `rel` stably sorted by attribute a's value in `String`
    * order ("" first): one sort of dom(A_a) ranks its codes, then a
    * counting sort of the rows on that rank.
    */
  private[core] def sortedRows(rel: Encoded.Relation, a: Int): Array[Int] = {
    val dict = rel.dicts(a)
    val codes = rel.codes(a)
    val byValue = dict.values.sorted
    val rank = new Array[Int](dict.size)
    byValue.indices.foreach(r => rank(dict.code(byValue(r))) = r)
    val next = new Array[Int](dict.size + 1) // rows of rank < r, then the next slot of rank r
    codes.foreach(x => next(rank(x) + 1) += 1)
    for (r <- 0 until dict.size) next(r + 1) += next(r)
    val out = new Array[Int](codes.length)
    codes.indices.foreach { row =>
      val r = rank(codes(row))
      out(next(r)) = row
      next(r) += 1
    }
    out
  }

  /** Adjacent-pair similarity observations of attribute a's sort (the FDX
    * trick from the paper's Remarks: sorting by A brings equal-on-A tuples
    * next to each other, so only n − 1 pairs are scored instead of n²), in
    * sorted order. Each value is read as a number once per attribute.
    */
  def observations(rel: Encoded.Relation, a: Int): Iterator[Array[Double]] = {
    val m = rel.dicts.length
    val values = rel.dicts.map(_.values)
    val nums = values.map(_.map(Similarity.numberOrNaN))
    val order = sortedRows(rel, a)
    Iterator.range(1, order.length).map { k =>
      val (p, q) = (order(k - 1), order(k))
      Array.tabulate(m) { i =>
        val (x, y) = (rel.codes(i)(p), rel.codes(i)(q))
        Similarity.value(values(i)(x), nums(i)(x), values(i)(y), nums(i)(y))
      }
    }
  }

  /** Empirical covariance of every attribute's observations. Each
    * attribute's moments are summed from +0.0 in sorted order, then added
    * to the totals in attribute order, so Σ is a function of the relation
    * and its row order alone.
    */
  def covariance(rel: Encoded.Relation): Mat = {
    val m = rel.dicts.length
    val sum = new Array[Double](m)
    val prod = new Array[Double](m * m) // i ≤ j only; v(i)·v(j) is v(j)·v(i)
    var n = 0L
    for (a <- 0 until m) {
      val s = new Array[Double](m)
      val p = new Array[Double](m * m)
      observations(rel, a).foreach { v =>
        n += 1
        var i = 0
        while (i < m) {
          s(i) += v(i)
          var j = i
          while (j < m) { p(i * m + j) += v(i) * v(j); j += 1 }
          i += 1
        }
      }
      for (i <- 0 until m) sum(i) += s(i)
      for (i <- 0 until m * m) prod(i) += p(i)
    }
    val nd = math.max(n, 1L).toDouble
    val sigma = Mat.zeros(m, m)
    for (i <- 0 until m; j <- 0 until m)
      sigma(i, j) = prod(math.min(i, j) * m + math.max(i, j)) / nd - (sum(i) / nd) * (sum(j) / nd)
    sigma
  }

  /** Ghoshal–Honorio sink-first decomposition of Θ = (I−B)ᵀΩ⁻¹(I−B):
    * repeatedly pick the node with the minimum diagonal entry of the
    * (Schur-complemented) precision — a terminal vertex of the underlying
    * SEM — place it last, read its weights on every remaining node off the
    * same precision, B(best, k) = −Θ(k, best)/Θ(best, best), and eliminate
    * it. Returns the order (roots first) and B(child, parent). Throws on a
    * pivot ≤ 1e-12, i.e. when Θ is not positive definite.
    */
  def decompose(theta: Mat): (Seq[Int], Mat) = {
    val p = theta.rows
    val cur = theta.copy
    val b = Mat.zeros(p, p)
    var remaining = (0 until p).toVector
    var order = List.empty[Int]
    while (remaining.nonEmpty) {
      var best = remaining.head
      for (k <- remaining) if (cur(k, k) < cur(best, best)) best = k
      val d = cur(best, best)
      if (d <= 1e-12) throw new ArithmeticException(s"precision not positive definite at node $best (pivot $d)")
      remaining = remaining.filter(_ != best)
      for (k <- remaining) b(best, k) = -cur(k, best) / d
      for (i <- remaining; j <- remaining) cur(i, j) -= cur(i, best) * cur(best, j) / d
      order = best :: order
    }
    (order, b)
  }

  /** Normalize a covariance to a correlation matrix so the glasso penalty is
    * scale-free (similarity observations can be nearly constant, which would
    * otherwise let any fixed ρ shrink everything to zero). Zero-variance
    * attributes become uncorrelated unit-variance rows (no edges).
    */
  def toCorrelation(sigma: Mat, eps: Double = 1e-9): Mat = {
    val m = sigma.rows
    val sd = Array.tabulate(m)(i => math.sqrt(math.max(sigma(i, i), 0.0)))
    val r = Mat.eye(m)
    for (i <- 0 until m; j <- 0 until m if i != j) {
      if (sd(i) > eps && sd(j) > eps) {
        // Clamp to [-0.999, 0.999]: sampling noise can push |r| past 1.
        r(i, j) = math.max(-0.999, math.min(0.999, sigma(i, j) / (sd(i) * sd(j))))
      }
    }
    r
  }

  /** End-to-end skeleton learning over `df`: one Spark job collects the
    * relation (`Stats.relation`), the rest runs on the driver.
    */
  def learn(df: DataFrame, attrs: Seq[String], cfg: Config = Config()): Dag =
    learn(Stats.relation(df, attrs), cfg)

  /** Skeleton learning over a relation the `Stats` pass collected. */
  def learn(rel: Encoded.Relation, cfg: Config): Dag = {
    val m = rel.dicts.length
    val corr = toCorrelation(covariance(rel))
    for (i <- 0 until m) corr(i, i) += Ridge
    val theta = GraphicalLasso.fit(corr, Rho).theta
    val (_, b) = decompose(theta)
    // Pooling the per-attribute sorted blocks induces a *negative* artifact
    // correlation between independent attributes (the sorted attribute's
    // similarity is high exactly when the others sit at baseline), while
    // genuine softened-FD dependencies surface as strongly positive weights.
    // Only positive autoregression weights are kept as edges.
    for (i <- 0 until m; j <- 0 until m if b(i, j) < 0) b(i, j) = 0.0
    Dag.fromAutoregression(b, EdgeThreshold).capParents(cfg.maxParents)
  }
}
