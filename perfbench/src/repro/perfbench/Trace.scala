package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable.ArrayBuffer

/** One traced interval. `parent` is the id of the span that was innermost
  * when this one opened (-1 for a root). Times are `System.nanoTime`.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** What the Spark scheduler did on behalf of one span. */
final case class SparkWork(jobs: Long, taskMs: Long, shuffleBytes: Long) {
  def shuffleMb: Double = shuffleBytes / 1e6
}

/** Spans kept in memory, plus a `SparkListener` that credits jobs, executor
  * run time and shuffle bytes to the innermost span open when the job was
  * submitted.
  *
  * Attribution rides on a local property of the submitting thread: Spark
  * copies local properties into every job it submits, so a job is credited
  * to the right span even though listener events arrive asynchronously.
  * `drain` waits for the listener bus before counts are read.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  import Tracer.SpanKey

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[(Int, String, Long)] = Nil
  private var nextId = 0

  private val totalJobs = new AtomicLong
  private val stageSpan = new ConcurrentHashMap[Int, Int]
  private val work = new ConcurrentHashMap[Int, Array[Long]] // span → (jobs, task ms, shuffle bytes)

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    totalJobs.incrementAndGet()
    val id = Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).map(_.toInt).getOrElse(-1)
    e.stageInfos.foreach(s => stageSpan.put(s.stageId, id))
    acc(id)(0) += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      val a = acc(stageSpan.getOrDefault(e.stageId, -1))
      a(1) += m.executorRunTime
      a(2) += m.shuffleWriteMetrics.bytesWritten
    }
  }

  // The listener bus delivers events from a single thread.
  private def acc(id: Int): Array[Long] = work.computeIfAbsent(id, _ => new Array[Long](3))

  /** Every job submitted since this tracer was registered. */
  def jobs: Long = { drain(); totalJobs.get }

  /** Run `f` inside a span named `name`; returns its result and the span. */
  def span[A](name: String)(f: => A): (A, Span) = {
    val id = nextId; nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name, System.nanoTime()) :: open
    sc.setLocalProperty(SpanKey, id.toString)
    try {
      val r = f
      val s = Span(id, name, parent, open.head._3, System.nanoTime())
      spans += s
      (r, s)
    } finally {
      open = open.tail
      sc.setLocalProperty(SpanKey, open.headOption.map(_._1.toString).orNull)
    }
  }

  /** Spark work credited to `span` itself (not to spans nested in it). */
  def sparkWork(span: Span): SparkWork = {
    drain()
    Option(work.get(span.id)).map(a => SparkWork(a(0), a(1), a(2))).getOrElse(SparkWork(0, 0, 0))
  }

  def allSpans: Seq[Span] = spans.toSeq

  private def drain(): Unit = org.apache.spark.BenchAccess.drainListenerBus(sc)
}

object Tracer {
  val SpanKey = "perfbench.span"
}
