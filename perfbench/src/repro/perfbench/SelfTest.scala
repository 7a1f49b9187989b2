package repro.perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit, when}
import scala.jdk.CollectionConverters._

/** The benchmark's own check, on Hospital cut to 200 rows:
  *  - an untraced run prints every end-to-end metric of BENCHMARK.json with
  *    its unit, and a traced run every per-layer metric;
  *  - an output with a dropped row, or with a rewritten `_tid`, is counted
  *    as a failed clean.
  * Returns the process exit code.
  */
object SelfTest {

  private val Rows = Some(200L)

  def run(spark: SparkSession): Int = {
    val spec = new ObjectMapper().readTree(new java.io.File("BENCHMARK.json"))
    def declared(key: String): Seq[(String, String)] =
      spec.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
    val workload = Workloads.byName("hospital-pi")
    def bench(trace: Boolean, mutate: DataFrame => DataFrame = identity): Outcome = {
      val o = new Bench(spark, workload, seed = 1, seconds = 1, trace, Rows, mutate).run(System.nanoTime())
      println(Main.json(o))
      o
    }
    def printed(o: Outcome): Seq[(String, String)] = o.metrics.map(m => m.name -> m.unit)

    val plain = bench(trace = false)
    val traced = bench(trace = true)
    val dropped = bench(trace = false, _.where(col("_tid") =!= 0L))
    val retid = bench(trace = false, _.withColumn("_tid", when(col("_tid") === 0L, lit(-1L)).otherwise(col("_tid"))))

    val checks = Seq(
      "untraced run is correct" -> (plain.correct && plain.failed == 0),
      "every end-to-end metric prints with its unit" -> (printed(plain) == declared("end_to_end")),
      "traced run is correct" -> (traced.correct && traced.failed == 0),
      "every per-layer metric prints with its unit" -> (printed(traced) == declared("per_layer")),
      "a dropped row is a failed clean" -> (!dropped.correct && dropped.failed == dropped.attempted),
      "a rewritten _tid is a failed clean" -> (!retid.correct && retid.failed == retid.attempted),
    )
    checks.foreach { case (what, ok) => println(s"${if (ok) "PASS" else "FAIL"} $what") }
    if (checks.forall(_._2)) 0 else 1
  }
}
