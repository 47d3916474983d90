package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Benchmark entry point; `perfbench/run.py` builds the harness and starts it.
  *
  *   --workload uug-gat|ppi-sage --seed N --seconds S --trace 0|1
  *   --out DIR --commit ID
  *
  * Set-up starts a Spark session and generates and caches the graph three
  * times (a fresh session each time), then runs untimed warm-up passes of
  * the measured pipeline; `setup_s` is the median of the
  * three plus the warm-up. Then whole pipeline passes repeat for
  * `--seconds`, at least three, and every end-to-end metric is the median
  * over them (`train_epoch_s` over all their epochs after the first of each
  * pass). With `--trace 1` the warm-up is followed by one untraced pass, one
  * traced pass and a layer replay, and the per-layer metrics are printed.
  * The last stdout line is the result object.
  */
object Main {
  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)
  def json(v: Any): String = mapper.writeValueAsString(v)

  val SetupReps = 3
  val MinPasses = 3
  def shufflePartitions(threads: Int): Int = 4 * threads

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String, commit: String)

  /** The end-to-end numbers of one pass. */
  final case class PassRow(values: Map[String, Double], epochsMs: Seq[Double], gcMs: Double, jitMs: Double,
                           tasks: Long, failedTasks: Long, failedJobs: Long)

  final class Session(val spark: SparkSession, val rec: Recorder, val plans: PlanRecorder, val spans: Spans,
                      val pipe: Pipeline) {
    def stop(): Unit = { pipe.close(); spark.stop() }
  }

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
      m.getOrElse("out", "perfbench/out"), m.getOrElse("commit", "unknown"))
  }

  /** Start a session and generate and cache the graph; `parts` holds the
    * seconds each step took.
    */
  def startSession(w: Workload, seed: Long, threads: Int): (Session, Seq[(String, Double)]) = {
    val parts = mutable.ArrayBuffer.empty[(String, Double)]
    def step[T](name: String)(body: => T): T = {
      val t0 = System.nanoTime()
      val v = body
      parts += name -> (System.nanoTime() - t0) / 1e9
      v
    }
    val spark = step("session") {
      val s = SparkSession.builder
        .master(s"local[$threads]")
        .appName(s"perfbench-${w.name}")
        .config("spark.sql.shuffle.partitions", shufflePartitions(threads).toLong)
        .config("spark.sql.autoBroadcastJoinThreshold", -1L)
        .config("spark.ui.enabled", false)
        // bounded status retention: the heap measured between stages then
        // holds the pipeline's data, not the history of earlier passes
        .config("spark.ui.retainedJobs", 50L)
        .config("spark.ui.retainedStages", 50L)
        .config("spark.ui.retainedTasks", 1000L)
        .config("spark.sql.ui.retainedExecutions", 10L)
        // room for every class one pass generates: with the default of 100
        // entries, timed passes recompiled code that the warm-up had compiled
        .config("spark.sql.codegen.cache.maxEntries", 2000L)
        .getOrCreate()
      s.sparkContext.setLogLevel("WARN")
      s
    }
    val rec = new Recorder
    spark.sparkContext.addSparkListener(rec)
    val plans = new PlanRecorder
    spark.listenerManager.register(plans)
    val graph = step("generate")(w.graph(seed))
    val pipe = step("cache")(new Pipeline(spark, w, graph, threads))
    (new Session(spark, rec, plans, new Spans(spark.sparkContext), pipe), parts.toSeq)
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workload(a.workload)
    val threads = Runtime.getRuntime.availableProcessors()
    Files.createDirectories(Paths.get(a.out))
    val info = mutable.LinkedHashMap[String, Any](
      "workload" -> w.name, "seed" -> a.seed, "trace" -> a.trace, "commit" -> a.commit,
      "nproc" -> threads, "heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "spark_master" -> s"local[$threads]", "shuffle_partitions" -> shufflePartitions(threads))

    var session: Session = null
    val checks = mutable.ArrayBuffer.empty[Check]
    val rows = mutable.ArrayBuffer.empty[PassRow]
    var stageCalls = 0L
    var failedCalls = 0L
    var exitCode = 0
    var metrics: Map[String, (Double, String)] = Map.empty
    try {
      val setupParts = (1 to SetupReps).map { _ =>
        if (session != null) session.stop()
        val (s, parts) = startSession(w, a.seed, threads)
        session = s
        parts
      }
      val s = session
      val checker = new Checks(s.pipe, threads)
      var digest: Option[Long] = None

      def pass(detail: Boolean, warmUp: Boolean = false): PassResult = {
        stageCalls += 3
        val r =
          try s.pipe.run(s.spans, detail, measureHeap = !warmUp)
          catch { case t: Throwable => failedCalls += 1; throw t }
        s.rec.sync(s.spark.sparkContext)
        val (cs, d) = checker.run(r, digest)
        digest = Some(d)
        checks ++= cs
        cs.filterNot(_.ok).foreach(c => System.err.println(s"[perfbench] check ${c.name} FAILED: ${c.detail}"))
        rows += row(s, r)
        r
      }

      // the warm-up is made of whole passes on the measured graph: after a
      // pass over a smaller graph the first timed pass was still 1.3x slower
      val w0 = System.nanoTime()
      (1 to w.warmUpPasses).foreach(_ => pass(detail = false, warmUp = true))
      val warmS = (System.nanoTime() - w0) / 1e9
      val setup = Stats.median(setupParts.map(_.map(_._2).sum)) + warmS
      val g = s.pipe.graph
      info ++= Seq("graph_nodes" -> g.nodes.length, "graph_edges" -> g.edges.length,
        "setup_parts_s" -> setupParts.map(_.toMap), "warmup_s" -> warmS)

      if (!a.trace) {
        val t0 = System.nanoTime()
        def elapsed = (System.nanoTime() - t0) / 1e9
        var last = 0.0
        while (rows.length < w.warmUpPasses + MinPasses || elapsed + last <= a.seconds) {
          val p0 = elapsed
          pass(detail = false)
          last = elapsed - p0
        }
        metrics = endToEnd(setup, rows.toSeq.drop(w.warmUpPasses))
      } else {
        val untraced = pass(detail = false).pipelineMs
        val traced = pass(detail = true)
        val layers = new Layers(s.pipe, traced, s.spans, s.rec, s.plans, threads)
        val (perLayer, notes) = layers.compute(untraced)
        metrics = perLayer.map { case (k, v) => k -> (v, Main.unitOf(k)) }
        writeTrace(a, info, s, perLayer, notes)
      }
    } catch {
      case t: Throwable =>
        t.printStackTrace()
        exitCode = 1
    } finally {
      if (session != null) session.stop()
    }

    val failedChecks = checks.count(!_.ok)
    val tasks = rows.map(_.tasks).sum
    val failed = failedChecks + rows.map(r => r.failedTasks + r.failedJobs).sum + failedCalls + exitCode
    val correct = exitCode == 0 && failed == 0 && checks.nonEmpty
    val report = info ++ Seq(
      "passes" -> rows.zipWithIndex.map { case (r, i) =>
        val warmUp = if (i < w.warmUpPasses) 1.0 else 0.0
        r.values ++ Seq("gc_ms" -> r.gcMs, "jit_ms" -> r.jitMs, "warm_up" -> warmUp)
      },
      "checks" -> checks.map(c => Map("name" -> c.name, "ok" -> c.ok, "detail" -> c.detail)))
    val tag = s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
    Files.write(Paths.get(a.out, s"result-$tag.json"), json(report).getBytes("UTF-8"))
    println(json(info))
    println(json(Map(
      "correct" -> correct,
      "attempted" -> (stageCalls + checks.length + tasks),
      "failed" -> failed,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> Map("value" -> v, "unit" -> u) })))
    System.out.flush()
    if (!correct) sys.exit(1)
  }

  /** End-to-end values of one pass; Spark counts come from the jobs launched
    * inside its flat, train and infer spans.
    */
  private def row(s: Session, r: PassResult): PassRow = {
    val pass = s.spans.last("pass")
    val jobs = s.spans.children(pass).flatMap(c => s.rec.jobsIn(s.spans.subtree(c)))
    val stages = jobs.flatMap(s.rec.stagesOf)
    PassRow(Map(
      "flat_s" -> r.flatMs / 1e3,
      "train_s" -> r.trainMs / 1e3,
      "train_epoch_s" -> r.epochMs / 1e3,
      "infer_s" -> r.inferMs / 1e3,
      "pipeline_s" -> r.pipelineMs / 1e3,
      "cpu_core_s" -> r.cpuS,
      "shuffle_mb" -> stages.map(_.shuffleWriteBytes).sum / 1e6,
      "heap_peak_mb" -> r.heapMb,
      "val_quality" -> r.quality),
      r.history.drop(1).map(_.timeMs.toDouble), r.gcMs, r.jitMs,
      stages.map(_.tasks).sum, stages.map(_.failedTasks).sum, jobs.count(!_.succeeded).toLong)
  }

  /** Medians over the timed passes; the epoch time pools every pass's epochs. */
  private def endToEnd(setup: Double, rows: Seq[PassRow]): Map[String, (Double, String)] =
    (Seq("setup_s" -> setup, "train_epoch_s" -> Stats.median(rows.flatMap(_.epochsMs)) / 1e3) ++
      rows.head.values.keys.filter(_ != "train_epoch_s").map(k => k -> Stats.median(rows.map(_.values(k)))))
      .map { case (k, v) => k -> (v, unitOf(k)) }.toMap

  /** Unit of a metric, from the last part of its name. */
  def unitOf(metric: String): String = metric.split("[._]").last match {
    case "s"                                        => "s"
    case "ms"                                       => "ms"
    case "mb"                                       => "MB"
    case "kb"                                       => "kB"
    case "ratio" | "share" | "coverage" | "quality" => "ratio"
    case "skew" | "speedup"                         => "x"
    case _ if metric.contains("ms_per")             => "ms"
    case _                                          => "count"
  }

  /** The span and listener file of a traced run. */
  private def writeTrace(a: Args, info: collection.Map[String, Any], s: Session,
                         perLayer: Map[String, Double], notes: Map[String, Any]): Unit = {
    val spanRows = s.spans.spans.map { sp =>
      val kids = s.spans.children(sp).map(c => (c.start, c.end))
      Map("id" -> sp.id, "parent" -> sp.parent, "name" -> sp.name, "start_ms" -> sp.start,
        "end_ms" -> sp.end, "self_ms" -> (sp.ms - Spans.unionLength(kids)))
    }
    val jobRows = s.rec.allJobs.map { j =>
      Map("id" -> j.id, "span" -> j.span, "sql_execution" -> j.sqlExecution, "call_site" -> j.callSite,
        "start_ms" -> s.spans.fromWall(j.start), "end_ms" -> s.spans.fromWall(j.end),
        "succeeded" -> j.succeeded,
        "stages" -> s.rec.stagesOf(j).map { st =>
          Map("id" -> st.id, "name" -> st.name, "tasks" -> st.tasks, "failed_tasks" -> st.failedTasks,
            "shuffle_write_bytes" -> st.shuffleWriteBytes, "shuffle_write_records" -> st.shuffleWriteRecords,
            "spill_bytes" -> st.spillBytes, "deser_ms" -> st.deserMs, "result_bytes" -> st.resultBytes,
            "run_ms" -> st.runMs, "task_skew" -> st.taskSkew)
        })
    }
    val doc = Map("info" -> info, "per_layer" -> perLayer, "notes" -> notes,
      "spans" -> spanRows, "jobs" -> jobRows)
    Files.write(Paths.get(a.out, s"trace-${a.workload}-seed${a.seed}.json"), json(doc).getBytes("UTF-8"))
  }
}
