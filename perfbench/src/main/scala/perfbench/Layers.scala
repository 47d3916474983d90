package perfbench

import repro.core._
import repro.graph.{Example, GraphFeature}
import repro.linalg.Mat
import repro.nn.{Adam, Loss, VecBatch}
import scala.collection.mutable

/** Per-layer numbers of one traced pass. Spark-side layers come from the
  * listener's jobs under each span; in-process layers come from a replay of
  * one epoch's batches through the same public calls the trainers make.
  */
final class Layers(p: Pipeline, r: PassResult, spans: Spans, rec: Recorder, plans: PlanRecorder, threads: Int) {
  private val w = p.w
  private val K = w.spec.layers
  /** Aggregation threads the trainer uses: one per PS worker, `localThreads` for LocalTrainer. */
  private val aggThreads = if (w.parameterServer) 1 else p.localThreads
  private val out = mutable.LinkedHashMap.empty[String, Double]
  /** Facts for the trace file that are not metrics: unmapped actions, replay timings. */
  private val notes = mutable.LinkedHashMap.empty[String, Any]

  /** One Dataset action (a SQL execution and its jobs) or one RDD job. */
  final case class Action(jobs: Seq[JobRec]) {
    private val exec = rec.execution(jobs.head.sqlExecution)
    def start: Double = spans.fromWall((jobs.map(_.start) ++ exec.map(_.start)).min)
    def end: Double = spans.fromWall((jobs.map(_.end) ++ exec.map(_.end).filter(_ >= 0)).max)
    def ms: Double = end - start
    /** The user call site; jobs that adaptive execution submits from its own
      * threads carry a Java frame instead.
      */
    def callSite: String = jobs.map(_.callSite).find(_.matches(".* at \\w+\\.scala:\\d+")).getOrElse("")
    def stages: Seq[StageRec] = jobs.flatMap(rec.stagesOf)
    def shuffleMb: Double = stages.map(_.shuffleWriteBytes).sum / 1e6
    def records: Double = stages.map(_.shuffleWriteRecords).sum.toDouble
    def skew: Double = if (stages.isEmpty) 1.0 else stages.maxBy(_.runMs).taskSkew
  }

  private def actionsUnder(span: Spans.Span): Seq[Action] = {
    val jobs = rec.jobsIn(spans.subtree(span))
    val bySql = jobs.filter(_.sqlExecution.nonEmpty).groupBy(_.sqlExecution).values.map(Action(_))
    val rdd = jobs.filter(_.sqlExecution.isEmpty).map(j => Action(Seq(j)))
    (bySql ++ rdd).toSeq.sortBy(_.start)
  }

  /** Driver-side planning of the Dataset actions run inside a span. */
  private def planning(span: Spans.Span): Seq[(Double, Double)] =
    plans.within(spans.toWall(span.start), spans.toWall(span.end)).map { case (_, s, e) =>
      (spans.fromWall(s), spans.fromWall(e))
    }

  /** Time inside a span covered by its Spark actions and their planning. */
  private def covered(span: Spans.Span): Double =
    Spans.unionLength(actionsUnder(span).map(a => (a.start, a.end)) ++ planning(span))
  private def coverage(span: Spans.Span): Double = covered(span) / span.ms

  /** Rounds of a K-round dataflow: its count actions are the map phase,
    * then one per round, then the output.
    */
  private def rounds(prefix: String, span: Spans.Span, file: String): Option[Action] = {
    val counts = actionsUnder(span).filter(a => a.callSite.startsWith("count at " + file))
    val mapped = counts.length == K + 2
    if (!mapped) notes(s"$prefix.unmapped") = s"${counts.length} count actions in $file, expected ${K + 2}"
    (1 to 3).foreach { n =>
      val a = if (mapped && n <= K) Some(counts(n)) else None
      out(s"$prefix.r$n.ms") = a.map(_.ms).getOrElse(0.0)
      out(s"$prefix.r$n.shuffle_mb") = a.map(_.shuffleMb).getOrElse(0.0)
      out(s"$prefix.r$n.records") = a.map(_.records).getOrElse(0.0)
      out(s"$prefix.r$n.task_skew") = a.map(_.skew).getOrElse(0.0)
    }
    if (mapped) Some(counts.last) else None
  }

  private def time[T](acc: Array[Double], i: Int)(body: => T): T = {
    val t0 = System.nanoTime()
    val v = body
    acc(i) += (System.nanoTime() - t0) / 1e6
    v
  }
  private def timed(body: => Unit): Double = { val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6 }

  def compute(untracedPipelineMs: Double): (Map[String, Double], Map[String, Any]) = {
    graphFlat()
    val replay = spans("replay")(replayEpoch())
    trainer(replay)
    rounds("graphinfer", spans.last("graphinfer.inferScores"), "GraphInfer.scala") match {
      case Some(predict) => out("graphinfer.predict_ms") = predict.ms
      case None          => out("graphinfer.predict_ms") = 0.0
    }
    spark()
    out("trace.flat_coverage") = coverage(spans.last("flat"))
    out("trace.infer_coverage") = coverage(spans.last("infer"))
    out("trace.overhead_ratio") = r.pipelineMs / untracedPipelineMs
    (out.toMap, notes.toMap)
  }

  private def graphFlat(): Unit = {
    rounds("graphflat", spans.last("graphflat.run"), "GraphFlat.scala")
    val indeg = p.inDegree
    out("graphflat.hubs") =
      if (w.reindexing) indeg.valuesIterator.count(_ > w.flat.reindexThreshold).toDouble else 0.0
    val nodes = r.feats.map(_.numNodes.toDouble).toSeq
    val edges = r.feats.map(_.numEdges.toDouble).toSeq
    out("graphflat.nodes_per_target.mean") = Stats.mean(nodes)
    out("graphflat.nodes_per_target.max") = nodes.max
    out("graphflat.edges_per_target.mean") = Stats.mean(edges)
    out("graphflat.edges_per_target.max") = edges.max
    val kept = r.feats.map(gf => gf.edges.count(_.dst == gf.target).toLong).sum
    val deg = r.feats.map(gf => indeg.getOrElse(gf.target, 0).toLong).sum
    out("sampling.keep_ratio") = kept.toDouble / math.max(deg, 1L)
  }

  /** Timings of one epoch's batches, replayed layer by layer. */
  final case class Replay(vectorizeMs: Double, stepMs: Double, evalMs: Double, batches: Int)

  /** The batches of one epoch as the trainer forms them: LocalTrainer
    * shuffles all examples with its seed; each PS worker batches its own
    * partition (sizes measured by repartitioning the same Dataset).
    */
  private def epochBatches(train: Array[Example]): Seq[Seq[Example]] =
    r.trainSet match {
      case Some(ds) =>
        val sizes = ds.rdd.repartition(threads).mapPartitions(it => Iterator(it.size)).collect()
        val rng = new scala.util.Random(42L)
        val shuffled = rng.shuffle(train.toSeq)
        val parts = sizes.scanLeft(0)(_ + _).sliding(2).map { case Array(a, b) => shuffled.slice(a, b) }
        parts.flatMap(_.grouped(w.batch)).toSeq
      case None =>
        val order = new scala.util.Random(TrainOpts(1, 1, 0.0).seed).shuffle(train.indices.toList)
        order.grouped(w.batch).map(_.map(train).toSeq).toSeq
    }

  private def replayEpoch(): Replay = {
    val train = r.split("train")
    val batches = epochBatches(train)
    val model = r.model.materialize()
    val adam = new Adam(model.paramShapes, w.lr)
    val vbs = batches.map(b => Vectorize(b, K, prune = true))

    // 3 repetitions; every figure is the median over them
    val reps = (1 to 3).map { _ =>
      val vec = new Array[Double](1)
      val fwd = new Array[Double](K); val bwd = new Array[Double](K)
      val head = new Array[Double](1); val adamMs = new Array[Double](1)
      val steps = mutable.ArrayBuffer.empty[Double]
      batches.foreach(b => time(vec, 0)(Vectorize(b, K, prune = true)))
      vbs.foreach { vb =>
        model.zeroGrads()
        var h = vb.x
        (0 until K).foreach(k => h = time(fwd, k)(model.gnn(k).forward(vb.adjs(k), h, aggThreads)))
        var dH = time(head, 0)(headForwardBackward(model, vb, h))
        (K - 1 to 0 by -1).foreach(k => dH = time(bwd, k)(model.gnn(k).backward(vb.adjs(k), dH)))
        time(adamMs, 0)(adam.step(model.getParamsRef, model.getGrads))
        steps += timed { val (_, g) = model.lossAndGrad(vb, aggThreads); adam.step(model.getParamsRef, g) }
      }
      val agg1 = timed(vbs.foreach(vb => aggregate(vb, 1)))
      val aggN = timed(vbs.foreach(vb => aggregate(vb, threads)))
      val evalMs = timed(LocalTrainer.evaluate(model, r.split("val"), w.batch, aggThreads, prune = true))
      val (encMs, decMs, encMb) = if (w.parameterServer) codec(train) else (0.0, 0.0, 0.0)
      Map("vec" -> vec(0), "head" -> head(0), "adam" -> adamMs(0), "agg1" -> agg1, "aggN" -> aggN,
        "eval" -> evalMs, "step" -> Stats.median(steps.toSeq), "stepSum" -> steps.sum,
        "enc" -> encMs, "dec" -> decMs, "encMb" -> encMb) ++
        (0 until K).flatMap(k => Seq(s"fwd$k" -> fwd(k), s"bwd$k" -> bwd(k)))
    }
    val m = reps.head.keys.map(k => k -> Stats.median(reps.map(_(k)))).toMap

    val gfNodes = batches.map(_.map(_.gf.numNodes.toDouble).sum).sum
    val full = batches.map(b => Vectorize(b, K, prune = false).adjs(0).nnz.toDouble).sum
    out("vectorize.ms_per_batch") = m("vec") / batches.length
    out("vectorize.batches") = batches.length.toDouble
    out("vectorize.nodes_per_batch") = Stats.mean(vbs.map(_.x.rows.toDouble))
    out("vectorize.dedup_ratio") = vbs.map(_.x.rows.toDouble).sum / gfNodes
    out("vectorize.prune_ratio") = vbs.map(_.adjs.map(_.nnz.toDouble).sum).sum / (K * full)
    (1 to 3).foreach { n =>
      out(s"nn.l$n.fwd_ms") = if (n <= K) m(s"fwd${n - 1}") else 0.0
      out(s"nn.l$n.bwd_ms") = if (n <= K) m(s"bwd${n - 1}") else 0.0
    }
    out("nn.head_ms") = m("head")
    // PsTrainer steps Adam once per epoch, LocalTrainer once per batch
    out("nn.adam_ms") = if (w.parameterServer) m("adam") / batches.length else m("adam")
    val csrAgg = w.spec.kind != "gat"
    out("linalg.agg_ms") = if (csrAgg) m("aggN") else 0.0
    out("linalg.partition_speedup") = if (csrAgg) m("agg1") / m("aggN") else 0.0
    val ps = w.parameterServer
    out("graph.encoded_mb") = if (ps) m("encMb") else 0.0
    out("graph.encode_ms") = if (ps) m("enc") else 0.0
    out("graph.decode_ms") = if (ps) m("dec") else 0.0
    out("localtrainer.step_ms") = if (ps) 0.0 else m("step")
    val hidden = (m("vec") + m("stepSum") - r.epochMs) / m("vec")
    out("localtrainer.pipeline_hidden_share") = if (ps) 0.0 else math.min(1.0, math.max(0.0, hidden))
    notes("replay_ms") = m
    Replay(m("vec"), m("stepSum"), m("eval"), batches.length)
  }

  /** First-layer Csr aggregation of the model's kind: GraphSAGE's neighbor
    * mean or GCN's self-inclusive mean (GAT aggregates inside its layer).
    */
  private def aggregate(vb: VecBatch, t: Int): Unit = w.spec.kind match {
    case "sage" => vb.adjs(0).neighborMean(vb.x, t)
    case "gcn"  => vb.adjs(0).meanAggregate(vb.x, t)
    case _      =>
  }

  /** Dense head forward, loss, head backward, and the scatter of target-row
    * gradients back to all node rows (what Model.lossAndGrad does between
    * the GNN layers' forward and backward passes).
    */
  private def headForwardBackward(model: repro.nn.Model, vb: VecBatch, emb: Mat): Mat = {
    val logits = model.predictor.forward(emb.rowsAt(vb.targets))
    val (_, d) =
      if (w.spec.task == "softmax") Loss.softmaxCE(logits, vb.labels) else Loss.bceLogits(logits, vb.labels)
    val dT = model.predictor.backward(d)
    val e = w.spec.embDim
    val dH = Mat.zeros(vb.x.rows, e)
    vb.targets.indices.foreach { i =>
      var c = 0
      while (c < e) { dH.data(vb.targets(i) * e + c) += dT.data(i * e + c); c += 1 }
    }
    dH
  }

  /** Encode every training GraphFeature once and decode the strings once, as
    * the PS trainer's workers do every epoch.
    */
  private def codec(train: Array[Example]): (Double, Double, Double) = {
    var enc: Array[String] = null
    val encMs = timed { enc = train.map(e => GraphFeature.encode(e.gf)) }
    var sink = 0L
    val decMs = timed(enc.foreach(s => sink += GraphFeature.decode(s).numNodes))
    require(sink == train.map(_.gf.numNodes.toLong).sum)
    (encMs, decMs, enc.map(_.length.toLong).sum / 1e6)
  }

  private def trainer(rp: Replay): Unit = {
    val train = spans.last("train")
    if (w.parameterServer) {
      val acts = actionsUnder(spans.last("pstrainer.train"))
      val repart = acts.find(_.callSite.startsWith("count at PsTrainer.scala"))
      val epochs = acts.filter(_.callSite.startsWith("treeReduce at PsTrainer.scala"))
      val mapped = epochs.length == w.epochs
      if (!mapped) notes("pstrainer.unmapped") = s"${epochs.length} treeReduce jobs, expected ${w.epochs}"
      val later = epochs.drop(1)
      val wall = r.history.drop(1).map(_.timeMs.toDouble)
      out("pstrainer.job_ms") = Stats.median(later.map(_.ms))
      out("pstrainer.driver_ms") =
        if (mapped) Stats.median(wall.zip(later).map { case (e, a) => e - a.ms }) else 0.0
      out("pstrainer.task_skew") = Stats.median(later.map(_.skew))
      out("pstrainer.result_kb") = Stats.median(later.map(_.stages.map(_.resultBytes).sum / 1e3))
      out("pstrainer.broadcast_kb") = r.model.params.map(_.length.toLong).sum * 8 / 1e3
      out("pstrainer.steps_per_epoch") = rp.batches.toDouble
      out("pstrainer.repartition_mb") = repart.map(_.shuffleMb).getOrElse(0.0)
      val parts = spans.last("graph.encode").ms + covered(spans.last("pstrainer.train")) +
        rp.evalMs + w.epochs * out("nn.adam_ms")
      out("trace.train_coverage") = parts / train.ms
    } else {
      Seq("job_ms", "driver_ms", "task_skew", "result_kb", "broadcast_kb", "steps_per_epoch", "repartition_mb")
        .foreach(k => out(s"pstrainer.$k") = 0.0)
      // the pipeline thread vectorizes while the trainer computes, so an
      // epoch's critical path is the longer of the two
      val parts = w.epochs * math.max(rp.vectorizeMs, rp.stepMs) + rp.evalMs
      out("trace.train_coverage") = parts / train.ms
    }
  }

  private def spark(): Unit = {
    val pass = spans.last("pass")
    val stages = spans.children(pass).flatMap(s => rec.jobsIn(spans.subtree(s))).flatMap(rec.stagesOf)
    out("spark.planning_ms") = Spans.unionLength(spans.children(pass).flatMap(planning))
    out("spark.gc_ms") = r.gcMs
    out("spark.spill_mb") = stages.map(_.spillBytes).sum / 1e6
    out("spark.tasks") = stages.map(_.tasks).sum.toDouble
    out("spark.task_failures") = stages.map(_.failedTasks).sum.toDouble
    out("spark.deser_ms") = stages.map(_.deserMs).sum.toDouble
  }
}
