package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point, started by `perfbench/run.py`:
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *   Main --selftest
  *
  * Prints one JSON line describing the pinned environment, then the result
  * line `{"correct", "attempted", "failed", "metrics"}` last.
  */
object Main {

  final case class Env(cores: Int, shufflePartitions: Int, heapMb: Long, commit: String, sourceSha: String) {
    def json(workload: String, seed: Long): String =
      s"""{"env": {"workload": "$workload", "seed": $seed, "master": "local[$cores]", """ +
        s""""shuffle_partitions": $shufflePartitions, "driver_heap_mb": $heapMb, """ +
        s""""commit": "$commit", "source_sha256": "$sourceSha"}}"""
  }

  def env(): Env = Env(
    cores = sys.props("perfbench.cores").toInt,
    shufflePartitions = sys.props("perfbench.partitions").toInt,
    heapMb = Runtime.getRuntime.maxMemory / (1024 * 1024),
    commit = sys.props.getOrElse("perfbench.commit", "unknown"),
    sourceSha = sys.props.getOrElse("perfbench.source", "unknown"),
  )

  def session(e: Env): SparkSession = {
    val dir = sys.props.getOrElse("perfbench.dir", ".bench_build")
    SparkSession.builder
      .master(s"local[${e.cores}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", e.shufflePartitions.toLong)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", s"$dir/spark-warehouse")
      .getOrCreate()
  }

  def json(o: Outcome): String = {
    val ms = o.metrics.map(m => s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}""")
    s"""{"correct": ${o.correct}, "attempted": ${o.attempted}, "failed": ${o.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }

  def main(argv: Array[String]): Unit = {
    val start = System.nanoTime()
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val e = env()
    val spark = session(e)
    val code =
      try {
        if (argv.contains("--selftest")) SelfTest.run(spark)
        else {
          val workload = Workloads.byName(opts.getOrElse("workload", ""))
          val seed = opts("seed").toLong
          val outcome = new Bench(spark, workload, seed, opts("seconds").toInt, opts("trace") == "1").run(start)
          println(e.json(workload.name, seed))
          println(json(outcome))
          0
        }
      } catch {
        case t: Throwable => t.printStackTrace(); 2
      } finally spark.stop()
    sys.exit(code)
  }
}
