package repro.core

import org.apache.spark.Partitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import repro.graph.Dag
import repro.linalg.{GraphicalLasso, Mat}
import repro.text.Similarity

/** Automatic Bayesian-network skeleton construction (Section 4).
  *
  * Extends the FDX structure-learning recipe with the paper's softened-FD
  * similarity: for each attribute A, sort the relation by A and, within each
  * partition, compute the m-dimensional similarity vector of every adjacent
  * tuple pair. These vectors are treated as observations of a multivariate
  * Gaussian; graphical lasso estimates the inverse covariance Θ, which is
  * decomposed as Θ = (I−B)ᵀΩ⁻¹(I−B) (one elimination in the sink-first
  * order of Ghoshal–Honorio) to recover the autoregression matrix B. Entries
  * of B with |weight| ≥ threshold become directed BN edges.
  *
  * The pairs are exact: every attribute's sorted block lies in one
  * partition, so all m·(n−1) adjacent pairs are scored, and ties on the
  * sorted attribute keep input row order; a Spark NULL is read as the empty
  * string (`Values.ofRow`) and ties with it. The whole pass — one shuffle
  * for every attribute's sort plus the covariance fold — runs as one job.
  */
object StructureLearner {

  final case class Config(
      maxParents: Int = 3, // in-degree cap (bounds CPT size)
  )

  val Rho: Double = 0.05           // graphical-lasso L1 penalty
  val EdgeThreshold: Double = 0.12 // min |B| weight kept as an edge
  val Ridge: Double = 1e-3         // diagonal ridge for degenerate covariances

  /** Adjacent-pair similarity observations (the FDX trick from the paper's
    * Remarks: sorting by A brings equal-on-A tuples next to each other, so
    * only m·(n−1) pairs are scored instead of n²). Returns an RDD of
    * m-dimensional similarity vectors; partition k holds attribute k's block.
    *
    * One shuffle serves every attribute: each row's tuple t is tagged with
    * its input position (partition, row) and emitted once per attribute
    * under the key (a, t[a], position). Partitioning on a and sorting within
    * partitions lays attribute a's whole sorted block out as partition a.
    */
  def similarityObservations(df: DataFrame, attrs: Seq[String]): RDD[Array[Double]] = {
    val m = attrs.length
    val idx = attrs.map(df.schema.fieldIndex).toArray
    val keyed = df.rdd.mapPartitionsWithIndex { (pid, rows) =>
      rows.zipWithIndex.flatMap { case (r, pos) =>
        val cur = Values.ofRow(r, idx)
        Iterator.tabulate(m)(a => ((a, cur(a), pid, pos), cur))
      }
    }
    // "" (NULL) sorts first; ties on t[a] keep input row order, as a stable sort would.
    val blocks = keyed.repartitionAndSortWithinPartitions(new AttributePartitioner(m))
    // Each row's values are read as numbers once and carried to the next pair.
    blocks.mapPartitions { rows =>
      var prev: Array[String] = null
      var prevNum: Array[Double] = null
      rows.flatMap { case (_, cur) =>
        val num = cur.map(Similarity.numberOrNaN)
        val out =
          if (prev == null) Iterator.empty
          else {
            val (p, pNum) = (prev, prevNum)
            Iterator.single(Array.tabulate(m)(i => Similarity.value(p(i), pNum(i), cur(i), num(i))))
          }
        prev = cur
        prevNum = num
        out
      }
    }
  }

  /** Sends key (a, …) to partition a: one partition per attribute. */
  private final class AttributePartitioner(m: Int) extends Partitioner {
    def numPartitions: Int = m
    def getPartition(key: Any): Int = key match { case (a: Int, _, _, _) => a }
  }

  /** Empirical covariance of the observations via a single distributed pass.
    * The per-partition moments are merged in partition order, so for the
    * output of `similarityObservations` Σ is bit-identical whatever the
    * shuffle-partition or core count.
    */
  def covariance(obs: RDD[Array[Double]], m: Int): Mat = {
    val partials = obs
      .mapPartitions { it =>
        val sum = new Array[Double](m)
        val prod = new Array[Double](m * m)
        var n = 0L
        it.foreach { v =>
          n += 1
          var i = 0
          while (i < m) {
            sum(i) += v(i)
            var j = 0
            while (j < m) { prod(i * m + j) += v(i) * v(j); j += 1 }
            i += 1
          }
        }
        if (n == 0) Iterator.empty else Iterator.single((n, sum, prod))
      }
      .collect() // ≤ one partial per partition — tiny
    val sum = new Array[Double](m)
    val prod = new Array[Double](m * m)
    partials.foreach { case (_, s, p) =>
      for (i <- 0 until m) sum(i) += s(i)
      for (i <- 0 until m * m) prod(i) += p(i)
    }
    val n = math.max(partials.map(_._1).sum, 1L).toDouble
    val sigma = Mat.zeros(m, m)
    for (i <- 0 until m; j <- 0 until m)
      sigma(i, j) = prod(i * m + j) / n - (sum(i) / n) * (sum(j) / n)
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

  /** End-to-end skeleton learning. */
  def learn(df: DataFrame, attrs: Seq[String], cfg: Config = Config()): Dag = {
    val m = attrs.length
    val obs = similarityObservations(df, attrs)
    val sigma = covariance(obs, m)
    val corr = toCorrelation(sigma)
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
