package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.SparkSpec
import repro.graph.Dag

/** ScalaCheck properties of the network's scores over random relations with
  * NULLs, random DAGs and user edits, and candidates absent from the
  * relation.
  */
object BayesNetProps extends Properties("BayesNet") {

  // Each case runs one Spark aggregation; fewer cases keep the suite fast.
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(30)

  /** Scores of a network whose CPTs and priors are materialized tables, built
    * from `Stats` the way the network once stored them (parent value →
    * (child value → count, total) per edge; value → probability per
    * attribute). The reference for the lookups of `BayesNet` and `Cpt`.
    */
  final class TableNet(stats: Stats, dag: Dag, alpha: Double) {
    private val m = stats.attrs.length

    private final class Table(val parent: Int, rows: Map[String, (Map[String, Long], Long)], domSize: Int) {
      def logProb(p: String, v: String): Double = math.log(rows.get(p) match {
        case Some((counts, total)) => (counts.getOrElse(v, 0L) + alpha) / (total + alpha * domSize)
        case None => 1.0 / math.max(domSize, 1)
      })
    }

    private val tables: Map[Int, Seq[Table]] = (0 until m).map { v =>
      v -> dag.parents(v).map { p =>
        val rows = stats.co.pairs.getOrElse((p, v), Map.empty[(String, String), Long]).groupBy(_._1._1).map {
          case (pv, cells) =>
            val counts = cells.map { case ((_, cv), n) => cv -> n }
            pv -> (counts, counts.values.sum)
        }
        new Table(p, rows, stats.co.unary(v).size)
      }
    }.toMap

    private val priors: Map[Int, Map[String, Double]] = (0 until m).map { v =>
      val counts = stats.co.unary(v)
      val total = counts.values.sum.toDouble
      v -> counts.map { case (x, c) => x -> (c + alpha) / (total + alpha * counts.size) }
    }.toMap

    private def priorProb(node: Int, v: String): Double =
      priors(node).getOrElse(v, alpha / (priors(node).size + 1).toDouble / 100.0)

    private def uniformLog(node: Int): Double = -math.log(math.max(priors(node).size, 1).toDouble)

    def nodeFactorLog(node: Int, v: String, t: Array[String], subst: Int, substVal: String,
                      floorPairs: Boolean): Double =
      if (tables(node).isEmpty) math.log(priorProb(node, v))
      else tables(node).foldLeft(0.0) { (s, tab) =>
        val f = tab.logProb(if (tab.parent == subst) substVal else t(tab.parent), v)
        s + (if (floorPairs) math.max(f, uniformLog(node)) else f)
      }

    def fullJointLog(j: Int, c: String, t: Array[String]): Double =
      (0 until m).foldLeft(0.0) { (s, i) =>
        s + nodeFactorLog(i, if (i == j) c else t(i), t, j, c, floorPairs = i != j)
      }

    def blanketLog(j: Int, c: String, t: Array[String]): Double =
      dag.children(j).foldLeft(nodeFactorLog(j, c, t, j, c, floorPairs = false)) { (s, k) =>
        s + nodeFactorLog(k, t(k), t, j, c, floorPairs = true)
      }
  }

  private val genCase = for {
    m <- Gen.choose(1, 6)
    n <- Gen.choose(1, 25)
    cells <- Gen.listOfN(n * m, Gen.frequency(6 -> Gen.oneOf("v0", "v1", "v2", "v3"), 1 -> Gen.const("")))
    rank <- Gen.listOfN(m, Gen.choose(0, 1000))
    edges <- Gen.listOf(Gen.zip(Gen.choose(0, m - 1), Gen.choose(0, m - 1)))
    edits <- Gen.listOf(Gen.zip(Gen.choose(0, m - 1), Gen.choose(0, m - 1)))
    alpha <- Gen.oneOf(0.0, 0.05, 0.5, 1.0)
  } yield {
    val rows = Seq.tabulate(n, m)((i, j) => cells(i * m + j)).map(_.toArray)
    // Edges run forward in a random attribute order, so the DAG is acyclic.
    val dag = Dag(m, edges.collect { case (u, v) if rank(u) < rank(v) => (u, v) -> 1.0 }.toMap)
    (rows, dag, edits, alpha)
  }

  private def statsOf(rows: Seq[Array[String]]): Stats = {
    val spark = SparkSpec.shared
    import spark.implicits._
    val m = rows.head.length
    val attrs = Seq.tabulate(m)(j => s"a$j")
    val df = rows.zipWithIndex.map { case (t, i) => (i.toLong, t.toSeq.map(v => Option(v).filter(_.nonEmpty))) }
      .toDF("_tid", "vs")
      .selectExpr(("_tid" +: attrs.indices.map(j => s"vs[$j] as a$j")): _*)
    Stats.compute(df, attrs)
  }

  /** The relation's tuples plus tuples mixing in NULLs and values the
    * relation lacks; every attribute's candidates are its domain, NULL and
    * two absent values.
    */
  private def probes(rows: Seq[Array[String]]): (Seq[Array[String]], Int => Seq[String]) = {
    val m = rows.head.length
    val absent = Seq("zz", "v9")
    val extra = Seq(Array.fill(m)("zz"), Array.tabulate(m)(j => if (j % 2 == 0) "" else "v9"), rows.head.map(_ => ""))
    (rows ++ extra, j => (rows.map(_(j)) ++ absent :+ "").distinct)
  }

  property("CPT and prior lookups score exactly as the materialized tables") =
    Prop.forAll(genCase) { case (rows, dag0, edits, alpha) =>
      val stats = statsOf(rows)
      val dag = dag0.reconcile(edits)
      val bn = BayesNet(stats.attrs, dag, stats.co, alpha)
      val ref = new TableNet(stats, dag, alpha)
      val (tuples, candidates) = probes(rows)
      val m = stats.attrs.length
      tuples.forall { t =>
        (0 until m).forall { j =>
          candidates(j).forall { c =>
            bn.fullJointLog(j, c, t) == ref.fullJointLog(j, c, t) &&
              bn.blanketLog(j, c, t) == ref.blanketLog(j, c, t) &&
              (0 until m).forall { node =>
                Seq(false, true).forall { floor =>
                  bn.nodeFactorLog(node, c, t, j, c, floor) == ref.nodeFactorLog(node, c, t, j, c, floor)
                }
              }
          }
        }
      }
    }

  // Why basic BClean and BClean_PI pick the same repairs: the factors the
  // blanket leaves out do not depend on the candidate.
  property("fullJointLog − blanketLog is constant over the candidates") =
    Prop.forAll(genCase) { case (rows, dag0, edits, alpha) =>
      val stats = statsOf(rows)
      val bn = BayesNet(stats.attrs, dag0.reconcile(edits), stats.co, alpha.max(0.05))
      val (tuples, candidates) = probes(rows)
      tuples.forall { t =>
        stats.attrs.indices.forall { j =>
          val gaps = candidates(j).map(c => bn.fullJointLog(j, c, t) - bn.blanketLog(j, c, t))
          gaps.forall(g => math.abs(g - gaps.head) <= 1e-9)
        }
      }
    }
}
