package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.types.StructType
import org.apache.spark.storage.StorageLevel
import repro.Oracle
import repro.core._
import repro.data.CleaningDataset
import repro.graph.Dag
import scala.collection.mutable

final case class Metric(name: String, value: Double, unit: String)

/** The result line: cleans attempted and failed, and the metrics. */
final case class Outcome(attempted: Int, failed: Int, correct: Boolean, metrics: Seq[Metric])

/** The dirty relation as the correctness gate and the counts need it. */
final class Prepared(ds: CleaningDataset) {
  val schema: StructType = ds.dirty.schema
  private val attrIdx = ds.attrs.map(schema.fieldIndex).toArray
  private val dirtyRows = ds.dirty.collect().sortBy(_.getLong(0))
  private val truthByTid = ds.clean.collect().map(r => r.getLong(0) -> r).toMap
  val tids: Array[Long] = dirtyRows.map(_.getLong(0))
  val dirty: Array[Array[String]] = dirtyRows.map(Values.ofRow(_, attrIdx))
  val truth: Array[Array[String]] = {
    val idx = ds.attrs.map(ds.clean.schema.fieldIndex).toArray
    tids.map(t => Values.ofRow(truthByTid(t), idx))
  }
}

/** One benchmark run: set up, clean repeatedly for `seconds`, gate every
  * clean, and report medians. With `trace` each iteration also replays the
  * model build stage by stage inside spans and times the scoring kernel.
  *
  * `mutate` is applied to every cleaned output before the gate; the
  * self-test uses it to show that a broken output is counted as failed.
  */
final class Bench(
    spark: SparkSession,
    workload: Workload,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    rows: Option[Long] = None,
    mutate: DataFrame => DataFrame = identity,
) {
  import Bench._

  private val tracer = new Tracer(spark.sparkContext)
  private val cfg = workload.config
  private var attempted = 0
  private var failed = 0
  private var first: Option[(Metrics.Prf, ModelCounts)] = None

  private def fail(why: String): Unit = {
    failed += 1
    log(s"clean failed: $why")
  }

  def run(sessionStartNs: Long): Outcome = {
    val ds = workload.dataset(spark, seed, rows)
    ds.dirty.cache().count()
    ds.clean.cache().count()
    val prep = new Prepared(ds)
    val warm = clean(ds)
    warm.out.unpersist(blocking = true)
    val setupS = (System.nanoTime() - sessionStartNs) / 1e9
    log(f"setup ${setupS}%.3f s (warm-up clean ${warm.seconds}%.3f s)")

    val cleanS = mutable.ArrayBuffer.empty[Double]
    val jobs = mutable.ArrayBuffer.empty[Double]
    val layers = mutable.ArrayBuffer.empty[Seq[Metric]]
    val iterS = mutable.ArrayBuffer.empty[Double]
    var last: Option[Clean] = None
    val loopStart = System.nanoTime()
    def since(t: Long) = (System.nanoTime() - t) / 1e9
    val minIterations = if (trace) 1 else MinCleans
    while (iterS.length < minIterations ||
      (since(loopStart) + median(iterS.toSeq) <= seconds && since(sessionStartNs) + median(iterS.toSeq) <= MaxRunS)) {
      val t0 = System.nanoTime()
      val c = clean(ds)
      log(f"clean ${c.seconds}%.3f s, ${c.jobs} jobs")
      attempted += 1
      gate(prep, c.out, c.rows) match {
        case Some(why) => fail(why); c.out.unpersist(blocking = true)
        case None =>
          if (first.isEmpty) first = Some(quality(ds, prep, c))
          cleanS += c.seconds
          jobs += c.jobs.toDouble
          last.foreach(_.out.unpersist(blocking = true))
          last = Some(c)
      }
      if (trace) traced(ds, prep).foreach { case (ms, tracedMs) =>
        layers += ms :+ Metric("trace.overhead_ms", tracedMs - c.seconds * 1000, "ms")
      }
      iterS += since(t0)
    }

    // The last good clean must reproduce the first one's quality and counts,
    // and DuckDB must agree with Metrics.evaluate on it.
    last.foreach { c =>
      val (prf, counts) = quality(ds, prep, c)
      val why =
        if (!first.contains((prf, counts))) Some(s"not repeatable: ${prf.pretty} $counts vs ${first.get}")
        else duckDbCheck(ds, c.out, prf).map("DuckDB disagrees: " + _)
      why.foreach { w => fail(w); cleanS.clear() }
    }
    if (trace) writeSpans()
    spark.sparkContext.removeSparkListener(tracer)
    log(f"$attempted cleans, $failed failed, ${since(sessionStartNs)}%.3f s in all")

    val metrics =
      if (trace) medians(layers.toSeq)
      else first match {
        case Some((prf, counts)) if cleanS.nonEmpty => Seq(
          Metric("clean_s", median(cleanS.toSeq), "s"),
          Metric("setup_s", setupS, "s"),
          Metric("f1", prf.f1, "ratio"),
          Metric("precision", prf.precision, "ratio"),
          Metric("recall", prf.recall, "ratio"),
          Metric("spark_jobs", median(jobs.toSeq), "count"),
          Metric("model_mb", counts.modelBytes / 1e6, "MB"),
          Metric("ok_share", (attempted - failed).toDouble / attempted, "ratio"),
        )
        case _ => Nil
      }
    Outcome(attempted, failed, correct = failed == 0 && metrics.nonEmpty, metrics)
  }

  private def log(msg: String): Unit = Console.err.println(s"[perfbench] ${workload.name}: $msg")

  private final case class Clean(model: Inference.Model, out: DataFrame, rows: Long, seconds: Double, jobs: Long)

  /** One full clean as a user runs it: build the model, then materialise
    * the repaired relation. The output is persisted so the gate and the
    * quality evaluation read it without re-running inference.
    */
  private def clean(ds: CleaningDataset): Clean = {
    val jobs0 = tracer.jobs
    val t0 = System.nanoTime()
    val model = BClean.buildModel(ds.dirty, ds.attrs, ds.ucs, cfg, userEdits = ds.fdEdges)
    val out = Inference.clean(ds.dirty, model).persist(StorageLevel.MEMORY_ONLY)
    val n = out.count()
    val secs = (System.nanoTime() - t0) / 1e9
    Clean(model, mutate(out), n, secs, tracer.jobs - jobs0)
  }

  private def quality(ds: CleaningDataset, prep: Prepared, c: Clean): (Metrics.Prf, ModelCounts) =
    (Metrics.evaluate(ds.dirty, c.out, ds.clean, ds.attrs), ModelCounts.of(c.model, prep.dirty, prep.truth))

  /** One traced clean followed by a stage-by-stage replay of the model
    * build, the scoring kernel and the quality evaluation. Returns the layer
    * metrics and the traced clean's total in ms, or None if the traced clean
    * failed the gate.
    */
  private def traced(ds: CleaningDataset, prep: Prepared): Option[(Seq[Metric], Double)] =
    tracer.span("traced")(tracedIteration(ds, prep))._1

  private def tracedIteration(ds: CleaningDataset, prep: Prepared): Option[(Seq[Metric], Double)] = {
    val (model, sModel) = tracer.span("model") {
      BClean.buildModel(ds.dirty, ds.attrs, ds.ucs, cfg, userEdits = ds.fdEdges)
    }
    val ((out, n), sInfer) = tracer.span("infer") {
      val o = Inference.clean(ds.dirty, model).persist(StorageLevel.MEMORY_ONLY)
      (o, o.count())
    }
    attempted += 1
    val gated = gate(prep, mutate(out), n)
    gated.foreach(fail)
    val result = if (gated.isDefined) None else {
      val r = replay(ds, model)
      val replayOk = r.model.bn.dag == model.bn.dag && r.model.corr == model.corr && r.model.co == model.co &&
        (!cfg.inference.domainPruning || r.model.prunedDomains == model.prunedDomains)
      val counts = ModelCounts.of(model, prep.dirty, prep.truth)
      val nsPerCandidate = kernel(model, prep)
      val (prf, sEval) = tracer.span("eval")(Metrics.evaluate(ds.dirty, out, ds.clean, ds.attrs))
      if (!replayOk) { fail("the stage replay disagrees with BClean.buildModel"); None }
      else if (!first.forall(_ == ((prf, counts)))) { fail("the traced clean differs from the run's first clean"); None }
      else {
        val m = tracer.sparkWork(sModel)
        val i = tracer.sparkWork(sInfer)
        // buildModel prunes domains only when the variant asks for it.
        val attributed = r.spans.collect { case (name, s) if name != "prune" || cfg.inference.domainPruning => s.ms }.sum
        Some((r.metrics(tracer, counts) ++ Seq(
          Metric("model.ms", sModel.ms, "ms"),
          Metric("model.jobs", m.jobs.toDouble, "count"),
          Metric("model.unattributed_ms", sModel.ms - attributed, "ms"),
          Metric("infer.ms", sInfer.ms, "ms"),
          Metric("infer.jobs", i.jobs.toDouble, "count"),
          Metric("infer.task_ms", i.taskMs.toDouble, "ms"),
          Metric("infer.cells", counts.cells.toDouble, "count"),
          Metric("infer.cells_skipped", counts.cellsSkipped.toDouble, "count"),
          Metric("infer.candidates", counts.candidates.toDouble, "count"),
          Metric("infer.repairs_per_cell", prf.repairs.toDouble / counts.cells, "ratio"),
          Metric("kernel.ns_per_candidate", nsPerCandidate, "ns"),
          Metric("cand.truth_hit_rate", counts.truthHitRate, "ratio"),
          Metric("eval.ms", sEval.ms, "ms"),
        ), sModel.ms + sInfer.ms))
      }
    }
    out.unpersist(blocking = true)
    result
  }

  /** What `BClean.buildModel` computes, rebuilt by calling each layer's
    * public function inside its own span. Domains have no public entry
    * point, so pruning starts from the model's.
    */
  private def replay(ds: CleaningDataset, model: Inference.Model): Replay =
    tracer.span("replay")(replayStages(ds, model))._1

  private def replayStages(ds: CleaningDataset, model: Inference.Model): Replay = {
    val effUcs = if (cfg.inference.useUc) ds.ucs else UcSet.empty
    val (dag0, sStructure) = tracer.span("structure")(StructureLearner.learn(ds.dirty, ds.attrs, cfg.structure))
    val (bn0, sCpt) = tracer.span("cpt")(BayesNet.learn(ds.dirty, ds.attrs, dag0, cfg.cptAlpha))
    val (bn, sEdits) = tracer.span("edits")(BayesNet.applyUserEdits(ds.dirty, bn0, ds.fdEdges))
    val (corr, sCorr) = tracer.span("corr") {
      val withConf = CompensatoryScore.withConfidence(ds.dirty, ds.attrs, effUcs, cfg.score.lambda).cache()
      try CompensatoryScore.collect(CompensatoryScore.corrTable(withConf, ds.attrs, cfg.score.tau, cfg.score.beta))
      finally withConf.unpersist(blocking = true)
    }
    val (co, sCooc) = tracer.span("cooc")(CoOccurrence.compute(ds.dirty, ds.attrs))
    val (pruned, sPrune) = tracer.span("prune")(DomainPruning.prune(model.domains, co, bn.dag, cfg.inference.topK))
    Replay(
      Seq("structure" -> sStructure, "cpt" -> sCpt, "edits" -> sEdits, "corr" -> sCorr, "cooc" -> sCooc,
        "prune" -> sPrune),
      dag0, bn0, model.copy(bn = bn, corr = corr, co = co, prunedDomains = pruned))
  }

  /** ns per scored candidate of `Inference.repairTuple`, single-threaded on
    * the driver over the first `KernelTuples` tuples, repeated until
    * `KernelMinNs` has passed.
    */
  private def kernel(model: Inference.Model, prep: Prepared): Double = {
    val sample = prep.dirty.take(KernelTuples)
    val perPass = ModelCounts.candidates(model, sample)
    var passes = 0
    val (_, s) = tracer.span("kernel") {
      val t0 = System.nanoTime()
      while (passes == 0 || System.nanoTime() - t0 < KernelMinNs) {
        sample.foreach(Inference.repairTuple(model, _))
        passes += 1
      }
    }
    (s.endNs - s.startNs).toDouble / (passes.toLong * perPass)
  }

  private def writeSpans(): Unit = {
    val dir = new java.io.File(sys.props.getOrElse("perfbench.dir", ".bench_build"), "traces")
    dir.mkdirs()
    val f = new java.io.File(dir, s"${workload.name}-seed$seed.jsonl")
    val w = new java.io.PrintWriter(f)
    try tracer.allSpans.foreach { s =>
      w.println(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally w.close()
  }
}

object Bench {

  /** The stage replay: each layer's span, the learned network before user
    * edits, and the model the layers rebuilt.
    */
  final case class Replay(spans: Seq[(String, Span)], dag0: Dag, bn0: BayesNet, model: Inference.Model) {
    def metrics(tracer: Tracer, counts: ModelCounts): Seq[Metric] = {
      val s = spans.toMap
      def work(name: String) = tracer.sparkWork(s(name))
      val before = bn0.dag.edges.keySet
      val after = model.bn.dag.edges.keySet
      Seq(
        Metric("structure.ms", s("structure").ms, "ms"),
        Metric("structure.jobs", work("structure").jobs.toDouble, "count"),
        Metric("structure.task_ms", work("structure").taskMs.toDouble, "ms"),
        Metric("structure.edges", dag0.edges.size.toDouble, "count"),
        Metric("cpt.ms", s("cpt").ms, "ms"),
        Metric("cpt.jobs", work("cpt").jobs.toDouble, "count"),
        Metric("cpt.task_ms", work("cpt").taskMs.toDouble, "ms"),
        Metric("cpt.cells", counts.cptCells.toDouble, "count"),
        Metric("edits.ms", s("edits").ms, "ms"),
        Metric("edits.jobs", work("edits").jobs.toDouble, "count"),
        Metric("edits.applied", ((before diff after) ++ (after diff before)).size.toDouble, "count"),
        Metric("corr.ms", s("corr").ms, "ms"),
        Metric("corr.jobs", work("corr").jobs.toDouble, "count"),
        Metric("corr.shuffle_mb", work("corr").shuffleMb, "MB"),
        Metric("corr.entries", counts.corrEntries.toDouble, "count"),
        Metric("cooc.ms", s("cooc").ms, "ms"),
        Metric("cooc.jobs", work("cooc").jobs.toDouble, "count"),
        Metric("cooc.shuffle_mb", work("cooc").shuffleMb, "MB"),
        Metric("cooc.pairs", counts.coocPairs.toDouble, "count"),
        Metric("prune.ms", s("prune").ms, "ms"),
        Metric("prune.kept", model.prunedDomains.valuesIterator.map(_.size.toDouble).sum, "count"),
      )
    }
  }

  /** Cleans every untraced run makes (traced runs: one iteration), however
    * long they take; further iterations start only while they are expected
    * to end within the run's seconds and within `MaxRunS` of the session
    * start.
    */
  val MinCleans = 3
  val MaxRunS = 140.0
  val KernelTuples = 32
  val KernelMinNs = 200000000L

  /** Output schema, row count and `_tid` set must equal the input's. */
  def gate(prep: Prepared, out: DataFrame, counted: Long): Option[String] =
    if (out.schema != prep.schema) Some(s"schema ${out.schema.simpleString} != ${prep.schema.simpleString}")
    else if (counted != prep.tids.length) Some(s"count() gave $counted rows, expected ${prep.tids.length}")
    else {
      val tids = out.select("_tid").collect().map(_.getLong(0)).sorted
      if (tids.length != prep.tids.length) Some(s"${tids.length} rows, expected ${prep.tids.length}")
      else if (!tids.sameElements(prep.tids)) Some("the _tid set differs from the input's")
      else None
    }

  /** Recompute repairs, correct repairs, errors and P/R/F1 in DuckDB from
    * the melted cell table (tid, attr, dirty, cleaned, truth); None when
    * they agree with `Metrics.evaluate`.
    */
  def duckDbCheck(ds: CleaningDataset, out: DataFrame, prf: Metrics.Prf): Option[String] = {
    val spark = out.sparkSession
    import spark.implicits._
    val fromSpark = Seq((prf.repairs, prf.correctRepairs, prf.errors, prf.precision, prf.recall, prf.f1))
      .toDF("repairs", "correct", "errors", "precision", "recall", "f1")
    val sql =
      """WITH counts AS (
        |  SELECT CAST(SUM(CASE WHEN cleaned <> dirty THEN 1 ELSE 0 END) AS BIGINT) AS repairs,
        |         CAST(SUM(CASE WHEN cleaned <> dirty AND cleaned = truth THEN 1 ELSE 0 END) AS BIGINT) AS correct,
        |         CAST(SUM(CASE WHEN dirty <> truth THEN 1 ELSE 0 END) AS BIGINT) AS errors
        |  FROM cells),
        |pr AS (
        |  SELECT *, CASE WHEN repairs = 0 THEN 0.0 ELSE correct::DOUBLE / repairs END AS p,
        |            CASE WHEN errors = 0 THEN 0.0 ELSE correct::DOUBLE / errors END AS r
        |  FROM counts)
        |SELECT repairs, correct, errors, p AS precision, r AS recall,
        |       CASE WHEN p + r = 0 THEN 0.0 ELSE 2 * p * r / (p + r) END AS f1
        |FROM pr""".stripMargin
    try {
      Oracle.assertEquivalent(fromSpark, sql, "cells" -> Metrics.cellTable(ds.dirty, out, ds.clean, ds.attrs))
      None
    } catch { case e: IllegalArgumentException => Some(e.getMessage) }
  }

  def median(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Per-name median over iterations, in first-seen order. */
  def medians(runs: Seq[Seq[Metric]]): Seq[Metric] =
    runs.headOption.toSeq.flatten.map { m =>
      m.copy(value = median(runs.flatMap(_.find(_.name == m.name)).map(_.value)))
    }
}
