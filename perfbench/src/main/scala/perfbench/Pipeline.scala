package perfbench

import java.io.{File, IOException}
import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.Files
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.graph._
import repro.nn.TrainedModel
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** What one pass of the pipeline produced and how long each stage took. */
final case class PassResult(
    flatMs: Double,
    trainMs: Double,
    inferMs: Double,
    cpuS: Double,
    gcMs: Double,
    jitMs: Double,
    heapMb: Double,
    feats: Array[GraphFeature],
    examples: Map[String, Array[Example]],
    trainSet: Option[Dataset[FlatExample]],
    model: TrainedModel,
    history: Vector[EpochStat],
    quality: Double,
    scores: Map[Long, Array[Double]]
) {
  def pipelineMs: Double = flatMs + trainMs + inferMs
  /** Median epoch wall time after the first epoch. */
  def epochMs: Double = Stats.median(history.drop(1).map(_.timeMs.toDouble))
  def split(s: String): Array[Example] = examples.getOrElse(s, Array.empty)
}

/** The AGL pipeline through the public entry points the jobs use:
  * GraphFlat.run → PsTrainer.train | LocalTrainer.train → GraphInfer.inferScores.
  * The node and edge Datasets are cached once, at set-up.
  */
final class Pipeline(spark: SparkSession, val w: Workload, val graph: LocalGraph, threads: Int) {
  import spark.implicits._

  val nodes: Dataset[LabeledNode] = graph.nodeDs(spark).persist(StorageLevel.MEMORY_AND_DISK)
  val edges: Dataset[GEdge] = graph.edgeDs(spark).persist(StorageLevel.MEMORY_AND_DISK)
  nodes.count(); edges.count()

  /** LocalTrainer's aggregation threads. One core is left to its prefetch
    * (Vectorize) thread, so that the trainer's busy threads do not outnumber
    * the cores: with `nproc` of them the epoch time of ten runs spread up
    * to 0.18.
    */
  val localThreads: Int = math.max(1, threads - 1)

  val labeled: Map[Long, LabeledNode] =
    graph.nodes.iterator.filter(_.split != "none").map(n => n.id -> n).toMap

  lazy val inDegree: mutable.LongMap[Int] = {
    val m = mutable.LongMap.empty[Int]
    graph.edges.foreach(e => m(e.dst) = m.getOrElse(e.dst, 0) + 1)
    m
  }

  /** Run flat, train and infer once. `detail` adds child spans around the
    * calls inside each stage. `measureHeap` forces a GC between stages to
    * measure the heap; stage wall times exclude it.
    */
  def run(spans: Spans, detail: Boolean, measureHeap: Boolean): PassResult = {
    def sub[T](name: String)(body: => T): T = if (detail) spans(name)(body) else body
    var cpuNs = 0L
    var gcMs = 0L
    var jitMs = 0L
    def stage[T](name: String)(body: => T): (T, Double) = {
      val c0 = Pipeline.cpuNs()
      val g0 = Pipeline.gcMs()
      val j0 = Pipeline.jitMs()
      val out = spans(name)(body)
      cpuNs += Pipeline.cpuNs() - c0
      gcMs += Pipeline.gcMs() - g0
      jitMs += Pipeline.jitMs() - j0
      (out, spans.last(name).ms)
    }
    var heap = 0.0
    def heapCheckpoint(): Unit = if (measureHeap) heap = math.max(heap, Pipeline.oldGenAfterGcMb())

    spans("pass") {
      val (feats, flatMs) = stage("flat") {
        val wanted = spark.sparkContext.broadcast(labeled.keySet)
        val flat = sub("graphflat.run")(GraphFlat.run(spark, nodes, edges, w.flat))
        val out = sub("graphflat.collect")(flat.filter(gf => wanted.value.contains(gf.target)).collect())
        flat.unpersist()
        wanted.destroy()
        out
      }
      heapCheckpoint()
      val examples = feats
        .map(gf => labeled.get(gf.target).map(nd => nd.split -> Example(gf.target, nd.label, gf)))
        .flatten
        .groupBy(_._1)
        .map { case (s, arr) => s -> arr.map(_._2).sortBy(_.target) }
      val train = examples.getOrElse("train", Array.empty[Example])
      val valSet = examples.getOrElse("val", Array.empty[Example])

      val ((res, trainSet), trainMs) = stage("train") {
        if (w.parameterServer) {
          val ds = sub("graph.encode") {
            spark.createDataset(train.toIndexedSeq.map(e =>
              FlatExample(e.target, e.label, GraphFeature.encode(e.gf))))
          }
          val r = sub("pstrainer.train") {
            PsTrainer.train(spark, ds, valSet, w.spec,
              PsOpts(w.epochs, w.batch, w.lr, numWorkers = threads, threadsPerWorker = 1,
                evalEvery = w.epochs))
          }
          (r, Some(ds))
        } else {
          val r = sub("localtrainer.train") {
            LocalTrainer.train(train, valSet, w.spec,
              TrainOpts(w.epochs, w.batch, w.lr, threads = localThreads, prune = true,
                partition = true, pipeline = true, evalEvery = w.epochs))
          }
          (r, None)
        }
      }
      heapCheckpoint()

      val (scoresDs, inferMs) = stage("infer") {
        sub("graphinfer.inferScores")(GraphInfer.inferScores(spark, nodes, edges, res.model, w.flat))
      }
      heapCheckpoint()
      val scores = scoresDs.collect().toMap
      scoresDs.unpersist()

      PassResult(flatMs, trainMs, inferMs, cpuNs / 1e9, gcMs.toDouble, jitMs.toDouble, heap, feats, examples,
        trainSet, res.model, res.history, res.bestVal, scores)
    }
  }

  def close(): Unit = { nodes.unpersist(); edges.unpersist() }
}

object Pipeline {
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]

  /** CPU time of the process without its JIT compiler threads, in ns. The
    * JIT keeps compiling Spark's planning code for many passes, and that work
    * is the JVM warming up, not the program.
    */
  def cpuNs(): Long = os.getProcessCpuTime - jitCpuNs()

  /** CPU time of the JIT compiler threads so far, in ns, from
    * /proc/self/task (Linux; 0 elsewhere). run.py keeps the compiler
    * threads alive for the whole run, so none of their time is lost.
    */
  def jitCpuNs(): Long = {
    val tasks = Option(new File("/proc/self/task").listFiles).getOrElse(Array.empty[File])
    tasks.iterator.map { t =>
      try {
        if (!read(new File(t, "comm")).contains("CompilerThre")) 0L
        else {
          val stat = read(new File(t, "stat"))
          val f = stat.substring(stat.lastIndexOf(')') + 2).split(' ')
          (f(11).toLong + f(12).toLong) * NsPerTick // utime + stime
        }
      } catch { case _: IOException => 0L } // the thread ended
    }.sum
  }
  private val NsPerTick = 10000000L // USER_HZ = 100
  private def read(f: File): String = new String(Files.readAllBytes(f.toPath), "UTF-8")

  /** Old-generation occupancy right after a full collection, in MB. The
    * first collection lets Spark's ContextCleaner release the shuffles and
    * broadcasts that became unreachable; the second measures what is left.
    */
  def oldGenAfterGcMb(): Double = {
    System.gc()
    Thread.sleep(100)
    System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(p => p.getType == MemoryType.HEAP && (p.getName.contains("Old") || p.getName.contains("Tenured")))
      .map(_.getUsage.getUsed)
      .sum / 1e6
  }

  /** Total JIT compilation time so far, in ms. */
  def jitMs(): Long = ManagementFactory.getCompilationMXBean.getTotalCompilationTime

  /** Total JVM GC time so far, in ms. */
  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}
