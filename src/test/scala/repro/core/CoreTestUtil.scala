package repro.core

import org.apache.spark.sql.SparkSession
import repro.graph._

/** Builders for hand-made graphs in the Spark suites. */
object CoreTestUtil {

  /** Nodes 1..n with feature [id]; edges given as (src, dst) or with weight. */
  def toyGraph(n: Int, edges: Seq[(Long, Long, Float)]): LocalGraph = {
    val nodes = (1L to n.toLong).map(i =>
      LabeledNode(i, Array(i.toFloat), Array(if (i % 2 == 0) 1f else 0f), "train")).toArray
    val es = edges.map { case (s, d, w) => GEdge(s, d, w, Array(w)) }.toArray
    LocalGraph("toy", nodes, es, 1, "bce")
  }

  def toyGraph(n: Int, simpleEdges: Seq[(Long, Long)])(implicit d: DummyImplicit): LocalGraph =
    toyGraph(n, simpleEdges.map { case (s, t) => (s, t, 1.0f) })

  def flatMap(spark: SparkSession, g: LocalGraph, cfg: FlatConfig): Map[Long, GraphFeature] =
    GraphFlat.run(spark, g.nodeDs(spark), g.edgeDs(spark), cfg)
      .collect()
      .map(gf => gf.target -> gf)
      .toMap

  def nodeIds(gf: GraphFeature): Set[Long] = gf.nodes.map(_.id).toSet
  def edgePairs(gf: GraphFeature): Set[(Long, Long)] = gf.edges.map(e => (e.src, e.dst)).toSet
}
