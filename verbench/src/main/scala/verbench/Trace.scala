package verbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval of a layer call, recorded by the benchmark around a
  * call into the program's public API. `parent` is -1 for a root span;
  * spans of one operation share `query`.
  */
final case class Span(id: Int, name: String, parent: Int, query: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

object Span {
  /** Total length of the union of `intervals`, each clipped to `[lo, hi)`. */
  def coveredNs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var total = 0L; var curS = 0L; var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else curE = math.max(curE, e)
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Self time: the span's duration minus the part of it its children cover.
    * Overlapping children are counted once; children reaching outside the
    * parent are clipped to it.
    */
  def selfNs(span: Span, children: Seq[Span]): Long =
    span.durNs - coveredNs(children.map(c => (c.startNs, c.endNs)), span.startNs, span.endNs)
}

/** Spark work attributed to one span. Times are in ms from the scheduler's
  * clock; bytes and counts are summed over the span's jobs.
  */
final class SparkCounters {
  var jobs = 0L
  var tasks = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  var executorRunMs = 0L
  val jobIntervalsMs = mutable.ArrayBuffer.empty[(Long, Long)]
}

/** Attributes Spark jobs, and their stages' tasks, to the span that was
  * innermost on the driver thread when the job was submitted. The tracer
  * names that span in a local property, which Spark copies into each job's
  * properties, so the attribution does not depend on when the listener bus
  * delivers events.
  */
final class SpanListener extends SparkListener {
  private val spanOfStage = new ConcurrentHashMap[Int, Int]()
  private val spanOfJob = new ConcurrentHashMap[Int, Int]()
  private val jobStartMs = new ConcurrentHashMap[Int, Long]()
  private val counters = new ConcurrentHashMap[Int, SparkCounters]()

  private def of(span: Int): SparkCounters = counters.computeIfAbsent(span, _ => new SparkCounters)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(SpanListener.Property)))
      .map(_.toInt).getOrElse(-1)
    spanOfJob.put(e.jobId, span)
    jobStartMs.put(e.jobId, e.time)
    e.stageIds.foreach(spanOfStage.put(_, span))
    of(span).synchronized(of(span).jobs += 1)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = {
    val span = spanOfJob.getOrDefault(e.jobId, -1)
    val start = jobStartMs.getOrDefault(e.jobId, e.time)
    val c = of(span)
    c.synchronized(c.jobIntervalsMs += ((start, e.time)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val c = of(spanOfStage.getOrDefault(e.stageId, -1))
    val m = e.taskMetrics
    c.synchronized {
      c.tasks += 1
      if (m != null) {
        c.executorRunMs += m.executorRunTime
        c.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Counters per span id; -1 holds work submitted outside any span. */
  def bySpan: Map[Int, SparkCounters] = counters.asScala.toMap
}

object SpanListener {
  val Property = "verbench.span"
}

/** In-memory span recorder. A disabled tracer runs the wrapped code and
  * records nothing. Spans are written out only when the run ends.
  */
final class Tracer(sc: Option[SparkContext]) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var stack: List[(Int, String, Long)] = Nil
  private var nextId = 0
  var enabled = false
  var query = ""

  private def setSparkSpan(id: Option[Int]): Unit =
    sc.foreach(_.setLocalProperty(SpanListener.Property, id.map(_.toString).orNull))

  def span[A](name: String)(f: => A): A =
    if (!enabled) f
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.map(_._1).getOrElse(-1)
      stack = (id, name, System.nanoTime()) :: stack
      setSparkSpan(Some(id))
      try f
      finally {
        val end = System.nanoTime()
        val (_, _, start) = stack.head
        stack = stack.tail
        setSparkSpan(stack.headOption.map(_._1))
        done += Span(id, name, parent, query, start, end)
      }
    }

  def spans: Vector[Span] = done.toVector
}
