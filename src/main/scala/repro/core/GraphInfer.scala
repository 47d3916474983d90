package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.LongAccumulator
import repro.graph._
import repro.linalg.{Csr, Mat}
import repro.nn.{GnnLayer, Model, TrainedModel}
import scala.collection.mutable

/** GraphInfer (§3.4): hierarchical model segmentation + K+1 rounds of
  * MapReduce message passing.
  *
  * A trained K-layer model is split into K GNN-layer slices plus the
  * prediction slice. Round k merges the (k-1)-layer embeddings arriving from
  * in-edge neighbors (plus the node's own), applies slice k, and propagates
  * the k-layer embedding along out-edges. The final round applies the
  * prediction slice. Every node's intermediate embedding is computed exactly
  * once — no overlap-induced recomputation.
  *
  * A slice is the trainer's own batched `forward`: each reducer task
  * materializes its model from the broadcast and runs its partition's groups
  * through the layer as one CSR batch (`forwardGroups`).
  *
  * Sampling/re-indexing use the same `Sampling.selectInEdges` (same seed,
  * same hub set) as GraphFlat, so inference sees precisely the neighborhoods
  * the model was trained on.
  */
object GraphInfer {

  case class Emb(id: Long, vec: Array[Double])
  case class InMsg(key: Long, src: Long, weight: Float, vec: Array[Double], isSelf: Boolean)
  /** A reducer's input after sampling: the node's own embedding and its kept
    * in-edge messages, in sampled order.
    */
  case class Group(key: Long, self: Array[Double], nbrs: Array[InMsg])

  /** Groups per batched forward, bounding a reducer's working set. */
  private val BatchGroups = 4096

  /** Returns per-node K-layer embeddings (before the prediction slice). */
  def inferEmbeddings(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig
  ): Dataset[Emb] = embeddings(spark, nodes, edges, spark.sparkContext.broadcast(tm), cfg)

  private def embeddings(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      bcModel: Broadcast[TrainedModel],
      cfg: FlatConfig
  ): Dataset[Emb] = {
    import spark.implicits._
    val layers = bcModel.value.spec.layers
    require(cfg.k == layers, "GraphInfer rounds must equal model depth")
    val hubs = spark.sparkContext.broadcast(GraphFlat.hubIds(edges, cfg))
    val sampling = cfg.sampling
    val seed = cfg.seed
    val numSalts = cfg.numSalts

    // Map phase: initial "embeddings" are the raw features (h^(0) = x).
    var state: Dataset[Emb] = nodes
      .map(n => Emb(n.id, n.feat.map(_.toDouble)))
      .persist(StorageLevel.MEMORY_AND_DISK)
    state.count()

    var k = 0
    while (k < layers) {
      val layerIdx = k
      val selfMsgs = state.map(e => InMsg(e.id, e.id, 0f, e.vec, isSelf = true))
      val nbMsgs = state
        .joinWith(edges, state.col("id") === edges.col("src"))
        .map { case (s, e) => InMsg(e.dst, e.src, e.weight, s.vec, isSelf = false) }
      val newState = selfMsgs
        .union(nbMsgs)
        .groupByKey(_.key)
        .mapGroups { (key, it) =>
          val all = it.toArray
          val self = all.find(_.isSelf)
            .getOrElse(throw new IllegalStateException(s"node $key lost its self message"))
          val cands = all.filterNot(_.isSelf).toSeq
          val sel = Sampling.selectInEdges[InMsg](
            cands, _.src, _.weight.toDouble, sampling, seed, key,
            isHub = hubs.value.contains(key), numSalts = numSalts)
          Group(key, self.vec, sel.toArray)
        }
        .mapPartitions { it =>
          val layer = bcModel.value.materialize().gnn(layerIdx)
          it.grouped(BatchGroups).flatMap(b => forwardGroups(layer, b.toIndexedSeq))
        }
        .persist(StorageLevel.MEMORY_AND_DISK)
      newState.count()
      state.unpersist()
      state = newState
      k += 1
    }
    state
  }

  /** Applies `layer` to a batch of groups in one `forward` call. Destinations
    * take rows 0 until groups.length and are the CSR's active rows; each
    * other distinct source id gets one row after them, so a node feeding
    * several destinations is projected once. Row entries keep the sampled
    * order.
    */
  private def forwardGroups(layer: GnnLayer, groups: IndexedSeq[Group]): IndexedSeq[Emb] = {
    val rowOf = mutable.LongMap.empty[Int]
    val rows = mutable.ArrayBuffer.empty[Array[Double]]
    def intern(id: Long, vec: Array[Double]): Int =
      rowOf.getOrElseUpdate(id, { rows += vec; rows.length - 1 })
    groups.foreach(g => intern(g.key, g.self))
    val nnz = groups.map(_.nbrs.length).sum
    val colIdx = new Array[Int](nnz)
    val weight = new Array[Double](nnz)
    var e = 0
    groups.foreach(_.nbrs.foreach { m =>
      colIdx(e) = intern(m.src, m.vec); weight(e) = m.weight; e += 1
    })
    val rowPtr = new Array[Int](rows.length + 1)
    groups.indices.foreach(i => rowPtr(i + 1) = rowPtr(i) + groups(i).nbrs.length)
    java.util.Arrays.fill(rowPtr, groups.length + 1, rowPtr.length, nnz)
    val adj = new Csr(rows.length, rowPtr, colIdx, weight, Array.range(0, nnz),
      activeRows = Array.range(0, groups.length))
    val out = layer.forward(adj, Mat.fromRows(rows.toSeq), threads = 1)
    groups.indices.map(i => Emb(groups(i).key, out.row(i)))
  }

  /** Full pipeline: K embedding rounds + the prediction slice. Returns
    * per-node task scores (softmax probs / sigmoids).
    */
  def inferScores(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig
  ): Dataset[(Long, Array[Double])] = {
    import spark.implicits._
    val bcModel = spark.sparkContext.broadcast(tm)
    val emb = embeddings(spark, nodes, edges, bcModel, cfg)
    val scores = emb.mapPartitions { it =>
      val model = bcModel.value.materialize()
      it.grouped(BatchGroups).flatMap { b =>
        val s = Model.activateScores(model.predictor.forward(Mat.fromRows(b.map(_.vec))), model.spec.task)
        b.iterator.zipWithIndex.map { case (e, i) => (e.id, s.row(i)) }
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    scores.count()
    emb.unpersist()
    scores
  }
}

/** The "Original" inference baseline of Table 5: run GraphFlat for *every*
  * node, then apply the full K-layer model independently per GraphFeature.
  * Overlapping neighborhoods are recomputed for each target — the
  * repetition GraphInfer eliminates.
  */
object OriginalInfer {

  /** @param embAcc   accumulates node-embedding computations (per layer)
    * @param recAcc   accumulates subgraph node records materialized
    */
  def inferScores(
      spark: SparkSession,
      nodes: Dataset[LabeledNode],
      edges: Dataset[GEdge],
      tm: TrainedModel,
      cfg: FlatConfig,
      embAcc: Option[LongAccumulator] = None,
      recAcc: Option[LongAccumulator] = None
  ): Dataset[(Long, Array[Double])] = {
    import spark.implicits._
    require(cfg.k == tm.spec.layers)
    val flat = GraphFlat.run(spark, nodes, edges, cfg)
    val bcModel = spark.sparkContext.broadcast(tm)
    val layers = tm.spec.layers
    val scores = flat.mapPartitions { it =>
      val model = bcModel.value.materialize()
      it.map { gf =>
        val ex = Example(gf.target, Array.fill(model.spec.numClasses)(0f), gf)
        val vb = Vectorize(Seq(ex), layers, prune = true)
        // every node row of every layer is recomputed for this one target
        embAcc.foreach(_.add(gf.numNodes.toLong * layers))
        recAcc.foreach(_.add(gf.numNodes.toLong))
        (gf.target, model.predictScores(vb, 1).row(0))
      }
    }.persist(StorageLevel.MEMORY_AND_DISK)
    scores.count()
    flat.unpersist()
    scores
  }
}
