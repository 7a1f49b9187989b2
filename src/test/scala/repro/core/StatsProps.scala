package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec
import repro.data.Benchmarks
import repro.graph.Dag

/** ScalaCheck properties of the `Stats` pass under the input partitioning. */
object StatsProps extends Properties("Stats") {

  // Each case builds and cleans six models.
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(5)

  private val keep = Seq("Id", "Ounces", "Abv", "BreweryId", "City")
  private val n = 300

  /** One local relation: a Beers block, its rows in `_tid` order. */
  private lazy val (rows, beers) = {
    val beers = Benchmarks.beers(SparkSpec.shared, rows = n, seed = 3)
    val rows = beers.dirty.selectExpr(("_tid" +: keep): _*).collect().sortBy(_.getLong(0)).toSeq
    (rows, beers)
  }

  /** The relation in partitions cut at `bounds` (ascending, from 0 to the
    * row count; equal bounds make an empty partition).
    */
  private def partitioned(bounds: Seq[Int]): DataFrame = {
    val spark = SparkSpec.shared
    val parts = bounds.sliding(2).map { case Seq(a, b) => rows.slice(a, b) }.toSeq
    // One element per slice, so partition p holds exactly parts(p).
    val rdd = spark.sparkContext.parallelize(parts, parts.length).flatMap(identity)
    spark.createDataFrame(rdd, rows.head.schema)
  }

  /** Bounds of `k` partitions cut at random rows. */
  private def genBounds(k: Int): Gen[Seq[Int]] =
    Gen.listOfN(k - 1, Gen.choose(0, n)).map(cuts => (0 +: cuts.sorted) :+ n)

  property("counts, domains and repairs do not depend on the input partitioning; weights agree within 1e-12") =
    Prop.forAllNoShrink(genBounds(3), genBounds(7)) { (b3, b7) =>
      require(rows.length == n)
      val ucs = UcSet(beers.ucs.byAttr.filter { case (a, _) => keep.contains(a) })
      // The DAG is fixed so the statistics layers are compared alone.
      val dag = Dag(keep.length, Map((3, 4) -> 1.0, (3, 0) -> 1.0))
      val pip = BClean.Config.pip.copy(inference = BClean.Config.pip.inference.copy(topK = 16))
      def run(df: DataFrame, cfg: BClean.Config): (Inference.Model, Seq[Row]) = {
        val model = BClean.buildModel(df, keep, ucs, cfg, presetDag = Some(dag), userEdits = Seq((3, 2)))
        (model, Inference.clean(df, model).collect().sortBy(_.getLong(0)).toSeq)
      }
      val dfs = Seq(Seq(0, n), b3, b7).map(partitioned)
      Prop.all(Seq(BClean.Config.pi, pip).map { cfg =>
        val runs = dfs.map(run(_, cfg))
        val (m1, out1) = runs.head
        Prop.all(runs.tail.map { case (m, out) =>
          val weights = (m.corr.keySet ++ m1.corr.keySet).forall { ij =>
            val (a, b) = (m.corr.getOrElse(ij, Map.empty), m1.corr.getOrElse(ij, Map.empty))
            (a.keySet ++ b.keySet).forall(ce => math.abs(a.getOrElse(ce, 0.0) - b.getOrElse(ce, 0.0)) <= 1e-12)
          }
          val diff = out.zip(out1).filter { case (r, r1) => r != r1 }
          (m.co == m1.co && m.domains == m1.domains && m.prunedDomains == m1.prunedDomains && weights &&
            diff.isEmpty) :| s"${cfg.inference}: counts ${m.co == m1.co}, domains ${m.domains == m1.domains}, " +
            s"pruned ${m.prunedDomains == m1.prunedDomains}, weights $weights, rows differ ${diff.take(3)}"
        }: _*)
      }: _*)
    }
}
