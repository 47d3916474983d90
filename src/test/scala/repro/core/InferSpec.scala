package repro.core

import repro.SparkSpec
import repro.graph._
import repro.nn.{Model, ModelSpec, TrainedModel}

/** The load-bearing system test: GraphInfer's sliced MapReduce inference must
  * produce exactly what training-side forward passes produce — against the
  * full in-memory graph when sampling is off, and against the
  * GraphFlat → Vectorize → Model path ("Original" inference) always,
  * including with sampling and re-indexing enabled.
  */
class InferSpec extends SparkSpec {

  private def randomTm(kind: String, layers: Int, seed: Long): TrainedModel = {
    val spec = ModelSpec(kind, layers, inDim = 32, hidden = 6, embDim = 4, numClasses = 1, task = "bce")
    TrainedModel(spec, Model.build(spec, seed).getParams)
  }

  private lazy val g = GraphGen.uugLite(n = 150)

  private def assertEmbeddingsMatchFullGraph(graph: LocalGraph, tm: TrainedModel): Unit = {
    val layers = tm.spec.layers
    val cfg = FlatConfig(layers, NoSampling, seed = 3)
    val emb = GraphInfer.inferEmbeddings(spark, graph.nodeDs(spark), graph.edgeDs(spark), tm, cfg)
      .collect().map(e => e.id -> e.vec).toMap
    val vb = FullGraphTrainer.vectorizeFull(graph, layers, "train")
    val full = tm.materialize().forwardEmb(vb.adjs, vb.x, 1)
    assert(emb.size == graph.nodes.length)
    graph.nodes.zipWithIndex.foreach { case (nd, idx) =>
      val diff = emb(nd.id).zip(full.row(idx)).map { case (x, y) => math.abs(x - y) }.max
      assert(diff < 1e-8, s"node ${nd.id} embedding diff $diff")
    }
  }

  for (kind <- Seq("gcn", "sage", "gat"); layers <- Seq(1, 2)) {
    test(s"GraphInfer embeddings equal full-graph forward ($kind, $layers-layer, no sampling)") {
      assertEmbeddingsMatchFullGraph(g, randomTm(kind, layers, seed = kind.hashCode + layers))
    }
  }

  /** Nodes 7 and 8 are isolated; 1, 2 and 6 are sources only (in-degree 0). */
  private lazy val sparse: LocalGraph = {
    val rng = new scala.util.Random(8)
    val nodes = (1L to 8L).map(id =>
      LabeledNode(id, Array.fill(32)(rng.nextFloat() - 0.5f), Array(0f), "train")).toArray
    val edges = Seq((1L, 3L), (2L, 3L), (3L, 4L), (1L, 4L), (4L, 5L), (5L, 3L), (6L, 5L))
      .map { case (s, d) => GEdge(s, d, 1f, Array(1f)) }.toArray
    LocalGraph("sparse", nodes, edges, 1, "bce")
  }

  for (kind <- Seq("gcn", "sage", "gat")) {
    test(s"GraphInfer embeddings equal full-graph forward with isolated and source-only nodes ($kind)") {
      assertEmbeddingsMatchFullGraph(sparse, randomTm(kind, 2, seed = 7 + kind.hashCode))
    }
  }

  test("GraphInfer scores agree between one shuffle partition and many (batches never mix neighborhoods)") {
    val cfg = FlatConfig(2, UniformSampling(5), reindexThreshold = 20, numSalts = 4, seed = 11)
    val key = "spark.sql.shuffle.partitions"
    val default = spark.conf.get(key)
    for (kind <- Seq("gcn", "sage", "gat")) {
      val tm = randomTm(kind, 2, seed = 21 + kind.hashCode)
      def run() = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg).collect().toMap
      val many = run()
      spark.conf.set(key, "1")
      val one = try run() finally spark.conf.set(key, default)
      assert(one.keySet == many.keySet)
      val worst = many.keys.map(id => many(id).zip(one(id)).map { case (a, b) => math.abs(a - b) }.max).max
      assert(worst < 1e-12, s"$kind: worst score diff $worst")
    }
  }

  for (kind <- Seq("gcn", "sage", "gat")) {
    test(s"GraphInfer scores equal Original (GraphFlat+model) inference with sampling on ($kind)") {
      val tm = randomTm(kind, 2, seed = 100 + kind.hashCode)
      val cfg = FlatConfig(2, UniformSampling(5), reindexThreshold = 20, numSalts = 4, seed = 11)
      val gi = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
        .collect().toMap
      val orig = OriginalInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
        .collect().toMap
      assert(gi.keySet == orig.keySet)
      assert(gi.size == g.nodes.length)
      val worst = gi.keys.map { id =>
        gi(id).zip(orig(id)).map { case (a, b) => math.abs(a - b) }.max
      }.max
      assert(worst < 1e-8, s"worst score diff $worst")
    }
  }

  test("GraphInfer scores are valid probabilities") {
    val tm = randomTm("gcn", 2, 9)
    val cfg = FlatConfig(2, NoSampling, seed = 1)
    val scores = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg).collect()
    scores.foreach { case (_, s) => s.foreach(v => assert(v >= 0.0 && v <= 1.0)) }
  }

  test("softmax-task GraphInfer scores sum to one per node") {
    val spec = ModelSpec("sage", 2, inDim = 32, hidden = 5, embDim = 4, numClasses = 3, task = "softmax")
    val tm = TrainedModel(spec, Model.build(spec, 4).getParams)
    val cfg = FlatConfig(2, NoSampling, seed = 1)
    val scores = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg).collect()
    scores.foreach { case (_, s) => assert(math.abs(s.sum - 1.0) < 1e-9) }
  }

  test("GraphInfer rejects a round count different from the model depth") {
    val tm = randomTm("gcn", 2, 1)
    intercept[IllegalArgumentException] {
      GraphInfer.inferEmbeddings(spark, g.nodeDs(spark), g.edgeDs(spark), tm, FlatConfig(3))
    }
  }

  test("a trained model scores identically through training-eval and GraphInfer") {
    val cfg = FlatConfig(2, UniformSampling(8), reindexThreshold = 30, numSalts = 4, seed = 5)
    val ex = repro.tables.Tables.splitExamples(spark, g, cfg)
    val spec = ModelSpec("gat", 2, 32, 8, 4, 1, "bce")
    val res = LocalTrainer.train(ex("train"), Array.empty, spec,
      TrainOpts(epochs = 3, batchSize = 32, lr = 0.02))
    val tm = res.model
    val gi = GraphInfer.inferScores(spark, g.nodeDs(spark), g.edgeDs(spark), tm, cfg)
      .collect().toMap
    // per-example training-style forward over each test GraphFeature
    val model = tm.materialize()
    ex("test").foreach { e =>
      val vb = Vectorize(Seq(e), 2, prune = true)
      val s = model.predictScores(vb, 1)(0, 0)
      assert(math.abs(s - gi(e.target)(0)) < 1e-8,
        s"target ${e.target}: trainer-side $s vs GraphInfer ${gi(e.target)(0)}")
    }
  }
}
