package repro.nn

import repro.linalg.{Csr, Mat}
import scala.util.Random

/** Shared builders for the nn test suites: small random graphs vectorized
  * into batches, and a central-difference gradient checker.
  */
object NnTestUtil {

  case class TinyGraph(csr: Csr, x: Mat, edges: Seq[(Int, Int, Double, Int)])

  def randomGraph(n: Int, e: Int, inDim: Int, seed: Long): TinyGraph = {
    val rng = new Random(seed)
    val set = scala.collection.mutable.LinkedHashSet.empty[(Int, Int)]
    var guard = 0
    while (set.size < e && guard < e * 50) {
      guard += 1
      val s = rng.nextInt(n); val d = rng.nextInt(n)
      if (s != d) set += ((s, d))
    }
    val edges = set.toSeq.zipWithIndex.map { case ((s, d), i) => (s, d, 0.5 + rng.nextDouble(), i) }
    TinyGraph(Csr.fromEdges(n, edges), Mat.rand(n, inDim, rng), edges)
  }

  def randomBatch(spec: ModelSpec, n: Int, e: Int, numTargets: Int, seed: Long): VecBatch = {
    val rng = new Random(seed + 999)
    val g = randomGraph(n, e, spec.inDim, seed)
    val targets = rng.shuffle((0 until n).toList).take(numTargets).toArray
    val labels = Mat.zeros(numTargets, spec.numClasses)
    for (i <- 0 until numTargets) {
      if (spec.task == "softmax") labels(i, rng.nextInt(spec.numClasses)) = 1.0
      else for (c <- 0 until spec.numClasses) labels(i, c) = if (rng.nextBoolean()) 1.0 else 0.0
    }
    VecBatch(Array.fill(spec.layers)(g.csr), g.x, Mat.zeros(e, 1), targets, labels)
  }

  /** Central-difference gradient check over a deterministic sample of
    * parameter entries. Returns the worst (relative error, absolute error).
    */
  def gradCheck(spec: ModelSpec, vb: VecBatch, seed: Long,
                samplesPerParam: Int = 6, eps: Double = 1e-5): (Double, Double) = {
    val model = Model.build(spec, seed)
    val (_, analytic) = model.lossAndGrad(vb, 1)
    val pref = model.getParamsRef
    val rng = new Random(seed + 1)
    var worstRel = 0.0
    var worstAbs = 0.0
    for (p <- pref.indices) {
      val idxs = (0 until samplesPerParam).map(_ => rng.nextInt(pref(p).length)).distinct
      for (i <- idxs) {
        val orig = pref(p)(i)
        pref(p)(i) = orig + eps
        val (lp, _) = model.lossAndGrad(vb, 1)
        pref(p)(i) = orig - eps
        val (lm, _) = model.lossAndGrad(vb, 1)
        pref(p)(i) = orig
        val num = (lp - lm) / (2 * eps)
        val ana = analytic(p)(i)
        val abs = math.abs(num - ana)
        val rel = abs / math.max(1e-6, math.abs(num) + math.abs(ana))
        if (rel > worstRel && abs > 1e-7) { worstRel = rel; worstAbs = abs }
        worstAbs = math.max(worstAbs, abs)
      }
    }
    (worstRel, worstAbs)
  }

  /** Naive per-node reference for each layer's math, written for clarity,
    * not speed: one node's output from its own input row and its in-edge
    * neighbors' rows. Production has a single implementation (the batched
    * `forward`, which GraphInfer also runs); the layer tests compare it with
    * this second one.
    */
  def applyOne(layer: GnnLayer, self: Array[Double], nbrs: Seq[Array[Double]]): Array[Double] =
    layer match {
      case l: GcnLayer => plus(times(mean(self +: nbrs), l.w), l.b.data).map(Act.relu)
      case l: SageLayer =>
        val nbMean = if (nbrs.isEmpty) new Array[Double](l.inDim) else mean(nbrs)
        plus(plus(times(self, l.wSelf), times(nbMean, l.wNb)), l.b.data).map(Act.relu)
      case l: GatLayer =>
        val zSelf = times(self, l.w)
        val z = nbrs.map(times(_, l.w)) :+ zSelf
        val score = z.map(zu => Act.leaky(dot(zSelf, l.aDst.data) + dot(zu, l.aSrc.data)))
        val ex = score.map(e => math.exp(e - score.max))
        val alpha = ex.map(_ / ex.sum)
        Array.tabulate(l.outDim)(c => Act.elu(z.indices.map(u => alpha(u) * z(u)(c)).sum))
    }

  /** The prediction slice for one node: logits = h W + b. */
  def applyOne(d: Dense, h: Array[Double]): Array[Double] = plus(times(h, d.w), d.b.data)

  private def times(x: Array[Double], w: Mat): Array[Double] =
    Array.tabulate(w.cols)(c => x.indices.map(k => x(k) * w(k, c)).sum)
  private def plus(a: Array[Double], b: Array[Double]): Array[Double] =
    a.zip(b).map { case (x, y) => x + y }
  private def dot(a: Array[Double], b: Array[Double]): Double = a.indices.map(i => a(i) * b(i)).sum
  private def mean(rows: Seq[Array[Double]]): Array[Double] =
    rows.map(_.toSeq).transpose.map(_.sum / rows.length).toArray

  /** Every node's embedding, layer by layer, through [[applyOne]] over its
    * in-neighbors: what GraphInfer computes, without Spark or batching.
    */
  def sliceForward(model: Model, csr: Csr, x: Mat): Mat = {
    var h = x
    for (k <- 0 until model.spec.layers) {
      val layer = model.gnn(k)
      val next = Mat.zeros(csr.numRows, layer.outDim)
      for (v <- 0 until csr.numRows) {
        val nbrs = (csr.rowPtr(v) until csr.rowPtr(v + 1)).map(e => h.row(csr.colIdx(e)))
        next.setRow(v, applyOne(layer, h.row(v), nbrs))
      }
      h = next
    }
    h
  }
}
