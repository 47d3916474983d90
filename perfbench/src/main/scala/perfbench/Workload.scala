package perfbench

import repro.core._
import repro.graph.{GraphGen, LocalGraph}
import repro.nn.ModelSpec
import repro.tables.Tables

/** One benchmark workload: a seeded graph generator plus the GraphFlat,
  * model and trainer settings of the AGL pipeline run on it.
  *
  * @param graph           the measured graph for a seed
  * @param parameterServer train with PsTrainer (else LocalTrainer)
  * @param warmUpPasses    untimed whole passes before timing, counted in set-up
  */
final case class Workload(
    name: String,
    graph: Long => LocalGraph,
    flat: FlatConfig,
    spec: ModelSpec,
    epochs: Int,
    batch: Int,
    lr: Double,
    parameterServer: Boolean,
    warmUpPasses: Int
) {
  /** Upper bound on kept in-edges per node: numSalts × cap (∞ without sampling). */
  def inEdgeBound: Long = flat.sampling match {
    case UniformSampling(c)  => c.toLong * flat.numSalts
    case WeightedSampling(c) => c.toLong * flat.numSalts
    case TopKSampling(c)     => c.toLong * flat.numSalts
    case NoSampling          => Long.MaxValue
  }
  def reindexing: Boolean = flat.reindexThreshold != Int.MaxValue
}

object Workload {
  val names: Seq[String] = Seq("uug-gat", "ppi-sage")

  def apply(name: String): Workload = name match {
    // Table 5's inference setting: Zipf in-degree hubs drive re-indexing and
    // sampling; small neighborhoods and a narrow model, so Spark shuffles,
    // the codec and the parameter-server round trip dominate.
    case "uug-gat" =>
      Workload(name,
        seed => GraphGen.uugLite(n = 3000, seed = seed),
        FlatConfig(2, UniformSampling(15), reindexThreshold = 100, numSalts = 4, seed = 5),
        Tables.uugSpec("gat"), epochs = 10, batch = 256, lr = 0.02, parameterServer = true,
        // its passes are mostly Spark's query planning and job scheduling,
        // which the JIT keeps compiling for several passes: after one warm-up
        // pass the next was still 1.2x slower, and ten runs spread 0.15
        // instead of 0.05 on flat_s
        warmUpPasses = 2)
    // Table 4's standalone setting: every 3-hop neighborhood is its whole
    // dense component, so GraphFlat's merge and payload, Vectorize, mean
    // aggregation and the dense transforms dominate. No hubs, no codec, no PS.
    case "ppi-sage" =>
      Workload(name,
        seed => GraphGen.ppiLite(nGraphs = 24, nodesPerGraph = 32, avgDegree = 10, seed = seed),
        FlatConfig(3, UniformSampling(20), seed = 5),
        Tables.ppiSpec("sage", 3), epochs = 20, batch = 512, lr = 0.01, parameterServer = false,
        // a second warm-up pass here left the spread of ten runs where it was
        // (host noise between runs dominates) and cost 11 s a run
        warmUpPasses = 1)
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other' (${names.mkString(", ")})")
  }
}
