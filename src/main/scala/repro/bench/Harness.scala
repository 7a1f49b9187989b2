package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baselines.{GarfLike, HoloCleanLike, PCleanLike, RahaBaranLike}
import repro.core.{BClean, Metrics}
import repro.data.{Benchmarks, CleaningDataset}
import scala.collection.concurrent.TrieMap

/** Shared experiment harness: runs every (dataset, method) pair once per JVM
  * and caches the cleaned output + wall-clock, so the table benches (4, 5, 6,
  * 7) and the spark-submit jobs all read from the same runs.
  */
object Harness {

  val Methods: Seq[String] =
    Seq("BClean-UC", "BClean", "BClean_PI", "BClean_PIP", "PClean", "HoloClean", "Raha+Baran", "Garf")

  def soccerRows: Long = sys.env.getOrElse("SOCCER_ROWS", "10000").toLong

  final case class RunResult(
      method: String,
      dataset: String,
      cleaned: DataFrame,
      millis: Long,
      prf: Metrics.Prf,
  )

  private val dsCache = TrieMap.empty[String, Seq[CleaningDataset]]
  private val runCache = TrieMap.empty[(String, String), RunResult]

  def datasets(spark: SparkSession): Seq[CleaningDataset] =
    dsCache.getOrElseUpdate("all", {
      val all = Benchmarks.all(spark, soccerRows)
      all.foreach { ds => ds.dirty.cache().count(); ds.mask.cache().count() }
      all
    })

  def dataset(spark: SparkSession, name: String): CleaningDataset =
    datasets(spark).find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))

  /** Run one method on one dataset (cached per JVM). Timing covers the full
    * cleaning pipeline including model construction, forced by an action.
    */
  def run(spark: SparkSession, ds: CleaningDataset, method: String): RunResult =
    runCache.getOrElseUpdate((ds.name, method), {
      val t0 = System.nanoTime()
      val cleaned = method match {
        case "BClean" | "BClean-UC" | "BClean_PI" | "BClean_PIP" =>
          // Per Section 7.3.2, the paper's reported numbers are with the
          // user's (light) network adjustments — modeled as FD-shaped edits.
          BClean.clean(ds.dirty, ds.attrs, ds.ucs, BClean.Config.variant(method),
            userEdits = ds.fdEdges)
        case "PClean"     => PCleanLike.clean(ds)
        case "HoloClean"  => HoloCleanLike.clean(ds)
        case "Raha+Baran" => RahaBaranLike.clean(ds)
        case "Garf"       => GarfLike.clean(ds)
        case other        => sys.error(s"unknown method $other")
      }
      cleaned.cache().count()
      val millis = (System.nanoTime() - t0) / 1000000L
      val prf = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs)
      Console.err.println(f"[harness] ${ds.name}%-10s ${method}%-11s ${prf.pretty} ${millis}ms")
      RunResult(method, ds.name, cleaned, millis, prf)
    })

  def fmtMillis(ms: Long): String = {
    val s = ms / 1000
    if (s >= 3600) f"${s / 3600}h${(s % 3600) / 60}%02dm"
    else if (s >= 60) f"${s / 60}m${s % 60}%02ds"
    else if (s >= 1) s"${s}s"
    else s"${ms}ms"
  }

  /** Write a result block to bench_results/<name>.txt and echo it. */
  def record(name: String, content: String): Unit = {
    val dir = new java.io.File("bench_results")
    dir.mkdirs()
    val f = new java.io.File(dir, s"$name.txt")
    val w = new java.io.PrintWriter(new java.io.FileWriter(f, false))
    try w.println(content) finally w.close()
    Console.out.println(content)
  }
}
