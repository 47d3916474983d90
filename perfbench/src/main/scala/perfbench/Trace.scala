package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.{SparkContext, Success}
import org.apache.spark.scheduler._
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable

/** Spans opened by the benchmark around its calls into the program. Each span
  * records its name, parent, start and end. While a span is open its id is a
  * SparkContext local property, so every Spark job the call launches carries
  * the id of the innermost span that caused it.
  */
final class Spans(sc: SparkContext) {
  import Spans._

  private val nano0 = System.nanoTime()
  private val wall0 = System.currentTimeMillis()
  private val all = mutable.ArrayBuffer.empty[Span]
  private var stack = List.empty[Span]

  /** Milliseconds since this recorder started, on the span clock. */
  def now: Double = (System.nanoTime() - nano0) / 1e6
  /** A Spark event time (epoch ms) on the span clock. */
  def fromWall(epochMs: Long): Double = (epochMs - wall0).toDouble
  def toWall(ms: Double): Long = wall0 + math.round(ms)

  def apply[T](name: String)(body: => T): T = {
    val s = Span(all.length, stack.headOption.map(_.id).getOrElse(-1), name, now)
    all += s
    stack ::= s
    sc.setLocalProperty(SpanKey, s.id.toString)
    try body
    finally {
      s.end = now
      stack = stack.tail
      sc.setLocalProperty(SpanKey, stack.headOption.map(_.id.toString).orNull)
    }
  }

  def spans: Seq[Span] = all.toSeq
  def last(name: String): Span = all.findLast(_.name == name).getOrElse(sys.error(s"no span $name"))
  def children(s: Span): Seq[Span] = all.filter(_.parent == s.id).toSeq
  /** The span and every span opened inside it. */
  def subtree(s: Span): Set[Int] = {
    val ids = mutable.Set(s.id)
    all.foreach(c => if (ids(c.parent)) ids += c.id)
    ids.toSet
  }
}

object Spans {
  val SpanKey = "perfbench.span"
  final case class Span(id: Int, parent: Int, name: String, start: Double) {
    var end: Double = Double.NaN
    def ms: Double = end - start
  }

  /** Length of the union of [start, end) intervals. */
  def unionLength(iv: Seq[(Double, Double)]): Double = {
    var total = 0.0
    var curS = Double.NaN; var curE = Double.NaN
    iv.sortBy(_._1).foreach { case (s, e) =>
      if (curS.isNaN || s > curE) {
        if (!curS.isNaN) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (!curS.isNaN) total += curE - curS
    total
  }
}

/** Spark task and stage metrics, summed per stage. */
final class StageRec(val id: Int, val jobId: Int) {
  var name = ""
  var tasks = 0L
  var failedTasks = 0L
  var shuffleWriteBytes = 0L
  var shuffleWriteRecords = 0L
  var spillBytes = 0L
  var deserMs = 0L
  var resultBytes = 0L
  var runMs = 0L
  val durations = mutable.ArrayBuffer.empty[Long]

  def taskSkew: Double =
    if (durations.isEmpty) 1.0
    else {
      val d = durations.sorted
      d.last.toDouble / math.max(d(d.length / 2), 1L).toDouble
    }
}

final class JobRec(val id: Int, val span: Int, val sqlExecution: String, val start: Long, val stageIds: Seq[Int]) {
  var end: Long = -1L
  var succeeded = false
  /** Call site of the job's final stage, e.g. "count at GraphFlat.scala:118". */
  var callSite = ""
}

/** Start and end (epoch ms) of a Spark SQL execution: one Dataset action,
  * including the planning and codegen its jobs wait for.
  */
final class ExecRec(val start: Long) {
  var end: Long = -1L
}

/** SparkListener (public Spark API) that ties jobs and stages to the span
  * that launched them and sums task metrics per stage. Events arrive on
  * Spark's listener thread; `sync` waits until every event posted before it
  * has been handled.
  */
final class Recorder extends SparkListener {
  private val jobs = mutable.LinkedHashMap.empty[Int, JobRec]
  private val stages = mutable.LinkedHashMap.empty[Int, StageRec]
  private val stageToJob = mutable.Map.empty[Int, Int]
  private val markerOf = mutable.Map.empty[Int, String]
  private val execs = mutable.Map.empty[String, ExecRec]
  private val markersSeen = ConcurrentHashMap.newKeySet[String]()
  private val MarkerKey = "perfbench.marker"

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val marker = props.flatMap(p => Option(p.getProperty(MarkerKey)))
    marker.foreach(m => markerOf(e.jobId) = m)
    if (marker.isEmpty) {
      val span = props.flatMap(p => Option(p.getProperty(Spans.SpanKey))).map(_.toInt).getOrElse(-1)
      val exec = props.flatMap(p => Option(p.getProperty("spark.sql.execution.id"))).getOrElse("")
      val j = new JobRec(e.jobId, span, exec, e.time, e.stageIds)
      if (e.stageInfos.nonEmpty) j.callSite = e.stageInfos.maxBy(_.stageId).name
      jobs(e.jobId) = j
      e.stageIds.foreach(s => stageToJob.getOrElseUpdate(s, e.jobId))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach { j =>
      j.end = e.time
      j.succeeded = e.jobResult == JobSucceeded
    }
    markerOf.remove(e.jobId).foreach(m => markersSeen.add(m))
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => synchronized(execs(s.executionId.toString) = new ExecRec(s.time))
    case s: SparkListenerSQLExecutionEnd   => synchronized(execs.get(s.executionId.toString).foreach(_.end = s.time))
    case _                                 =>
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageToJob.get(e.stageInfo.stageId).foreach { jid =>
      stages.getOrElseUpdate(e.stageInfo.stageId, new StageRec(e.stageInfo.stageId, jid)).name = e.stageInfo.name
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageToJob.get(e.stageId).foreach { jid =>
      val s = stages.getOrElseUpdate(e.stageId, new StageRec(e.stageId, jid))
      s.tasks += 1
      if (e.reason != Success) s.failedTasks += 1
      s.durations += e.taskInfo.duration
      val m = e.taskMetrics
      if (m != null) {
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        s.shuffleWriteRecords += m.shuffleWriteMetrics.recordsWritten
        s.spillBytes += m.diskBytesSpilled
        s.deserMs += m.executorDeserializeTime
        s.resultBytes += m.resultSize
        s.runMs += m.executorRunTime
      }
    }
  }

  /** Run a one-task marker job and wait until the listener has handled its
    * end, so every earlier event has been handled too.
    */
  def sync(sc: SparkContext): Unit = {
    val token = java.util.UUID.randomUUID().toString
    val prevSpan = sc.getLocalProperty(Spans.SpanKey)
    sc.setLocalProperty(MarkerKey, token)
    sc.setLocalProperty(Spans.SpanKey, null)
    try sc.parallelize(Seq(1), 1).count()
    finally { sc.setLocalProperty(MarkerKey, null); sc.setLocalProperty(Spans.SpanKey, prevSpan) }
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (!markersSeen.contains(token)) {
      if (System.nanoTime() > deadline) throw new IllegalStateException("Spark listener did not catch up")
      Thread.sleep(2)
    }
  }

  def allJobs: Seq[JobRec] = synchronized(jobs.values.toSeq)
  def jobsIn(spanIds: Set[Int]): Seq[JobRec] = synchronized(jobs.values.filter(j => spanIds(j.span)).toSeq)
  def stagesOf(j: JobRec): Seq[StageRec] = synchronized(j.stageIds.flatMap(stages.get))
  def execution(id: String): Option[ExecRec] = synchronized(execs.get(id))
}

/** QueryExecutionListener (public Spark SQL API) that keeps the driver-side
  * planning phases of every finished Dataset action: analysis, optimization
  * and physical planning, as [start, end] epoch-ms intervals. Spark runs
  * these on the calling thread before the action's jobs start.
  */
final class PlanRecorder extends QueryExecutionListener {
  private val phases = mutable.ArrayBuffer.empty[(String, Long, Long)]

  private def record(qe: QueryExecution): Unit = synchronized {
    qe.tracker.phases.foreach { case (name, p) => phases += ((name, p.startTimeMs, p.endTimeMs)) }
  }
  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = record(qe)
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = record(qe)

  /** Planning intervals that lie inside [from, to] (epoch ms). */
  def within(from: Long, to: Long): Seq[(String, Long, Long)] =
    synchronized(phases.filter { case (_, s, e) => s >= from && e <= to }.toSeq)
}
