package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec
import repro.data.Benchmarks
import repro.linalg.Mat

/** ScalaCheck properties of `StructureLearner.decompose` over random
  * symmetric Θ with p = 1–15 nodes, and of Σ and the learned DAG over
  * random input partitionings of one relation.
  */
object StructureLearnerProps extends Properties("StructureLearner") {

  /** The decomposition as two eliminations of Θ: the sink-first order by
    * Schur complements, then a UDUᵀ factorization of Θ permuted into that
    * order, from which B̃ = I − Uᵀ is un-permuted. The reference for
    * `decompose`.
    */
  private object TwoPass {
    def sinkOrdering(theta: Mat): Seq[Int] = {
      val p = theta.rows
      var remaining = (0 until p).toVector
      var cur = theta.copy
      var order = List.empty[Int]
      while (remaining.length > 1) {
        var best = 0
        for (k <- remaining.indices) if (cur(k, k) < cur(best, best)) best = k
        order = remaining(best) :: order
        val keep = remaining.indices.filter(_ != best).toVector
        val next = Mat.zeros(keep.length, keep.length)
        val drr = cur(best, best)
        for (i <- keep.indices; j <- keep.indices)
          next(i, j) = cur(keep(i), keep(j)) - cur(keep(i), best) * cur(best, keep(j)) / drr
        cur = next
        remaining = keep.map(remaining)
      }
      (remaining.head :: order).toSeq
    }

    /** Θ = U·diag(d)·Uᵀ with U unit upper triangular; throws unless Θ is PD. */
    def udu(theta: Mat): (Mat, Array[Double]) = {
      val n = theta.rows
      val u = Mat.eye(n)
      val d = new Array[Double](n)
      var j = n - 1
      while (j >= 0) {
        var s = theta(j, j)
        var k = j + 1
        while (k < n) { s -= u(j, k) * u(j, k) * d(k); k += 1 }
        if (s <= 1e-12) throw new ArithmeticException(s"matrix not positive definite at pivot $j (d=$s)")
        d(j) = s
        var i = 0
        while (i < j) {
          var t = theta(i, j)
          k = j + 1
          while (k < n) { t -= u(i, k) * u(j, k) * d(k); k += 1 }
          u(i, j) = t / s
          i += 1
        }
        j -= 1
      }
      (u, d)
    }

    def decompose(theta: Mat): (Seq[Int], Mat) = {
      val p = theta.rows
      val order = sinkOrdering(theta)
      val perm = Mat.zeros(p, p)
      for (i <- 0 until p; j <- 0 until p) perm(i, j) = theta(order(i), order(j))
      val (u, _) = udu(perm)
      val b = Mat.zeros(p, p)
      for (i <- 0 until p; j <- 0 until i) b(order(i), order(j)) = -u(j, i)
      (order, b)
    }
  }

  /** A random SPD matrix G·Gᵀ + δI of size p, from `seed`. */
  private def spd(p: Int, seed: Long, delta: Double): Mat = {
    val rng = new java.util.Random(seed)
    val g = new Mat(p, p, Array.fill(p * p)(rng.nextGaussian()))
    val s = g * g.t
    for (i <- 0 until p) s(i, i) += delta
    s
  }

  private val genSpd: Gen[Mat] = for {
    p <- Gen.choose(1, 15)
    seed <- Gen.long
    delta <- Gen.choose(0.05, 1.0)
  } yield spd(p, seed, delta)

  property("decompose gives the sink ordering and the B of a UDUᵀ of the permuted Θ") =
    Prop.forAll(genSpd) { theta =>
      val (order, b) = StructureLearner.decompose(theta)
      val (refOrder, refB) = TwoPass.decompose(theta)
      (order == refOrder) :| s"order $order, reference $refOrder" &&
        (b.maxAbsDiff(refB) <= 1e-9) :| s"|ΔB| = ${b.maxAbsDiff(refB)}"
    }

  // Θ = S − c·vvᵀ with c·vᵀS⁻¹v = 1 + r > 1: det Θ = −r·det S < 0, so Θ is
  // indefinite even where every diagonal entry stays positive.
  private val genIndefinite: Gen[Mat] = for {
    s <- genSpd
    seed <- Gen.long
    r <- Gen.choose(0.1, 2.0)
  } yield {
    val p = s.rows
    val rng = new java.util.Random(seed)
    val v = new Mat(p, 1, Array.fill(p)(rng.nextGaussian()))
    val c = (1 + r) / (v.t * Mat.inverse(s) * v)(0, 0)
    s - (v * v.t).scale(c)
  }

  property("decompose throws on a Θ that is not positive definite, as UDUᵀ does") =
    Prop.forAll(genIndefinite) { theta =>
      Prop.throws(classOf[ArithmeticException])(TwoPass.decompose(theta)) &&
        Prop.throws(classOf[ArithmeticException])(StructureLearner.decompose(theta))
    }

  /** A 300-row Beers block, its rows in `_tid` order. */
  private lazy val beers = {
    val ds = Benchmarks.beers(SparkSpec.shared, rows = 300, seed = 5)
    val df = ds.dirty.selectExpr(("_tid" +: ds.attrs): _*)
    (df.collect().sortBy(_.getLong(0)).toSeq, df.schema, ds.attrs)
  }

  /** Σ and the DAG learned from the Beers block, its rows cut into one
    * input partition per pair of consecutive cuts.
    */
  private def learned(cuts: Seq[Int]): (Array[Double], repro.graph.Dag) = {
    val spark = SparkSpec.shared
    val (rows, schema, attrs) = beers
    val bounds = 0 +: cuts :+ rows.length
    val parts = bounds.sliding(2).map { case Seq(from, until) => rows.slice(from, until) }.toSeq
    val df = spark.createDataFrame(spark.sparkContext.parallelize(parts, parts.length).flatMap(identity), schema)
    assert(df.rdd.getNumPartitions == cuts.length + 1)
    val rel = Stats.relation(df, attrs)
    (StructureLearner.covariance(rel).data, StructureLearner.learn(rel, StructureLearner.Config()))
  }

  private lazy val onePartition = learned(Nil)

  /** k sorted cut points in the 300 rows; equal cuts leave a partition empty. */
  private def genCuts(k: Int): Gen[Seq[Int]] = Gen.listOfN(k, Gen.choose(0, 300)).map(_.sorted)

  property("Σ and the DAG are bit-identical whether the rows come in 1, 3 or 7 partitions") =
    Prop.forAllNoShrink(genCuts(2), genCuts(6)) { (cuts3, cuts7) =>
      val (sigma1, dag1) = onePartition
      Prop.all(Seq(cuts3, cuts7).map { cuts =>
        val (sigma, dag) = learned(cuts)
        (java.util.Arrays.equals(sigma, sigma1) && dag == dag1) :| s"cuts $cuts"
      }: _*)
    }
}
