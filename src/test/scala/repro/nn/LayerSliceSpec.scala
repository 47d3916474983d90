package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.{Csr, Mat}
import scala.util.Random

/** The hierarchical-model-segmentation invariant (§3.4): the batch forward
  * pass (what GraphTrainer and GraphInfer's reducers run) must equal the
  * naive per-node slices of `NnTestUtil.applyOne` over in-neighbors.
  */
class LayerSliceSpec extends AnyFunSuite {

  private def close(a: Array[Double], b: Array[Double], tol: Double): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) => math.abs(x - y) < tol }

  for (kind <- Seq("gcn", "sage", "gat"); layers <- Seq(1, 2, 3)) {
    test(s"applyOne slices of $layers-layer $kind equal batch forward") {
      val spec = ModelSpec(kind, layers, inDim = 6, hidden = 5, embDim = 4,
        numClasses = 2, task = "softmax")
      val g = NnTestUtil.randomGraph(n = 15, e = 45, inDim = 6, seed = kind.hashCode + layers)
      val model = Model.build(spec, 11)
      val batch = model.forwardEmb(Array.fill(layers)(g.csr), g.x, 1)
      val sliced = NnTestUtil.sliceForward(model, g.csr, g.x)
      assert(batch.approxEquals(sliced, 1e-9),
        s"max diff ${batch.data.zip(sliced.data).map { case (a, b) => math.abs(a - b) }.max}")
    }
  }

  test("applyOne on a node with no neighbors (gcn: self mean; sage: zero neighbor term)") {
    val rng = new Random(3)
    val self = Array(1.0, -2.0, 0.5)
    val lone = Csr.fromEdges(1, Seq.empty)
    def reluAffine(w: Mat, b: Mat) = Array.tabulate(2) { c =>
      math.max(0.0, (0 until 3).map(k => self(k) * w(k, c)).sum + b(0, c))
    }
    val gcn = LayerInit.gcn(3, 2, rng)
    val sage = LayerInit.sage(3, 2, rng)
    // mean over {self} is self itself; SAGE's neighbor mean is zero
    for ((layer, expected) <- Seq(gcn -> reluAffine(gcn.w, gcn.b), sage -> reluAffine(sage.wSelf, sage.b))) {
      assert(close(layer.forward(lone, Mat.fromRows(Seq(self)), 1).row(0), expected, 1e-12))
      assert(close(NnTestUtil.applyOne(layer, self, Seq.empty), expected, 1e-12))
    }
  }

  test("gat applyOne attention weights sum to one (implied by convexity of output)") {
    val rng = new Random(5)
    val gat = LayerInit.gat(3, 3, rng)
    // identical self and neighbors => output is elu(z) regardless of weights
    val v = Array(0.3, -0.1, 0.8)
    val star = Csr.fromEdges(3, Seq((1, 0, 1.0, 0), (2, 0, 1.0, 1)))
    val a = gat.forward(star, Mat.fromRows(Seq(v, v, v)), 1).row(0)
    val b = gat.forward(Csr.fromEdges(1, Seq.empty), Mat.fromRows(Seq(v)), 1).row(0)
    assert(close(a, b, 1e-12))
    assert(close(NnTestUtil.applyOne(gat, v, Seq(v, v)), b, 1e-12))
  }

  test("dense applyOne equals batch forward row") {
    val rng = new Random(7)
    val d = LayerInit.dense(4, 3, rng)
    val h = Mat.rand(5, 4, rng)
    val batch = d.forward(h)
    for (r <- 0 until 5) assert(close(NnTestUtil.applyOne(d, h.row(r)), batch.row(r), 1e-12))
  }

  test("predictor slice + activation equals predictScores") {
    val spec = ModelSpec("gat", 2, inDim = 4, hidden = 4, embDim = 3, numClasses = 2, task = "softmax")
    val vb = NnTestUtil.randomBatch(spec, n = 10, e = 30, numTargets = 4, seed = 13)
    val model = Model.build(spec, 2)
    val scores = model.predictScores(vb, 1)
    val emb = NnTestUtil.sliceForward(model, vb.adjs(0), vb.x)
    for ((t, i) <- vb.targets.zipWithIndex) {
      val logits = NnTestUtil.applyOne(model.predictor, emb.row(t))
      val ex = logits.map(x => math.exp(x - logits.max))
      assert(close(ex.map(_ / ex.sum), scores.row(i), 1e-9))
    }
  }

  test("forward with threads > 1 is bitwise identical to sequential (all kinds)") {
    for (kind <- Seq("gcn", "sage", "gat")) {
      val spec = ModelSpec(kind, 2, inDim = 5, hidden = 6, embDim = 4, numClasses = 2, task = "bce")
      val g = NnTestUtil.randomGraph(30, 150, 5, seed = 42)
      val m1 = Model.build(spec, 3)
      val m2 = Model.build(spec, 3)
      val a = m1.forwardEmb(Array.fill(2)(g.csr), g.x, 1)
      val b = m2.forwardEmb(Array.fill(2)(g.csr), g.x, 8)
      assert(a.approxEquals(b, 0.0))
    }
  }
}
