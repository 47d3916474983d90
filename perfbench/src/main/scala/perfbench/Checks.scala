package perfbench

import repro.core.Vectorize
import repro.graph.GraphFeature
import scala.collection.mutable
import scala.util.hashing.MurmurHash3

final case class Check(name: String, ok: Boolean, detail: String)

/** Invariants every pass must satisfy. They hold for any correct sampler and
  * merge, so a legitimate change to either does not require editing them.
  */
final class Checks(p: Pipeline, threads: Int) {
  private val w = p.w
  private val labeledIds: Set[Long] = p.labeled.keySet

  def run(r: PassResult, previousDigest: Option[Long]): (Seq[Check], Long) = {
    val digest = Checks.digest(r.feats)
    val checks = Seq(
      oneFeaturePerTarget(r),
      closedWithinKHops(r),
      inEdgesWithinBounds(r),
      lossFinite(r),
      qualityBeatsChance(r),
      inferMatchesForward(r),
      Check("digest_repeats", previousDigest.forall(_ == digest),
        s"neighborhood digest $digest, previous ${previousDigest.getOrElse("none")}")
    )
    (checks, digest)
  }

  private def oneFeaturePerTarget(r: PassResult): Check = {
    val counts = r.feats.groupBy(_.target).view.mapValues(_.length)
    val dup = counts.count(_._2 != 1)
    val missing = labeledIds.count(id => !counts.contains(id))
    val noSelf = r.feats.count(gf => !gf.nodes.exists(_.id == gf.target))
    Check("one_feature_per_target", dup == 0 && missing == 0 && noSelf == 0 && counts.size == labeledIds.size,
      s"${r.feats.length} GraphFeatures for ${labeledIds.size} labeled nodes; " +
        s"duplicated $dup, missing $missing, without their target $noSelf")
  }

  /** Edges stay inside their GraphFeature and every node reaches the target
    * along at most K edges.
    */
  private def closedWithinKHops(r: PassResult): Check = {
    var dangling = 0L
    var far = 0L
    r.feats.foreach { gf =>
      val ids = gf.nodes.iterator.map(_.id).toSet
      val inNb = mutable.LongMap.empty[List[Long]]
      gf.edges.foreach { e =>
        if (!ids(e.src) || !ids(e.dst)) dangling += 1
        inNb(e.dst) = e.src :: inNb.getOrElse(e.dst, Nil)
      }
      val seen = mutable.Set(gf.target)
      var frontier = List(gf.target)
      var hop = 0
      while (hop < w.flat.k && frontier.nonEmpty) {
        frontier = frontier.flatMap(v => inNb.getOrElse(v, Nil)).filter(seen.add)
        hop += 1
      }
      far += ids.count(id => !seen(id))
    }
    Check("closed_within_k_hops", dangling == 0 && far == 0,
      s"$dangling edges leave their GraphFeature; $far nodes lie more than ${w.flat.k} hops out")
  }

  private def inEdgesWithinBounds(r: PassResult): Check = {
    var overDegree = 0L
    var overCap = 0L
    r.feats.foreach { gf =>
      gf.edges.groupBy(_.dst).foreach { case (dst, es) =>
        if (es.length > p.inDegree.getOrElse(dst, 0)) overDegree += 1
        if (es.length > w.inEdgeBound) overCap += 1
      }
    }
    Check("in_edges_within_bounds", overDegree == 0 && overCap == 0,
      s"$overDegree nodes keep more in-edges than their in-degree; " +
        s"$overCap keep more than numSalts x cap = ${w.inEdgeBound}")
  }

  private def lossFinite(r: PassResult): Check = {
    val losses = r.history.map(_.loss)
    Check("loss_finite", losses.nonEmpty && losses.forall(l => !l.isNaN && !l.isInfinite),
      s"epoch losses ${losses.map(l => f"$l%.4f").mkString(", ")}")
  }

  /** AUC must beat 0.5; micro-F1 must beat predicting every label positive. */
  private def qualityBeatsChance(r: PassResult): Check = {
    val auc = w.spec.numClasses == 1
    val chance =
      if (auc) 0.5
      else {
        val labels = r.split("val").flatMap(_.label)
        val pos = labels.count(_ >= 0.5f).toDouble / math.max(labels.length, 1)
        2 * pos / (1 + pos)
      }
    Check("quality_beats_chance", r.quality > chance,
      f"validation ${if (auc) "AUC" else "micro-F1"} ${r.quality}%.4f vs chance $chance%.4f")
  }

  /** GraphInfer's score for every val/test node equals Model.predictScores on
    * that node's GraphFeature, and every node of the graph gets one score.
    */
  private def inferMatchesForward(r: PassResult): Check = {
    val model = r.model.materialize()
    var worst = 0.0
    var missing = 0
    (r.split("val") ++ r.split("test")).grouped(w.batch).foreach { batch =>
      val s = model.predictScores(Vectorize(batch.toSeq, w.spec.layers, prune = true), threads)
      batch.indices.foreach { i =>
        r.scores.get(batch(i).target) match {
          case Some(gi) => gi.indices.foreach(c => worst = math.max(worst, math.abs(gi(c) - s(i, c))))
          case None     => missing += 1
        }
      }
    }
    val nonFinite = r.scores.valuesIterator.count(_.exists(v => v.isNaN || v.isInfinite))
    val ok = worst <= 1e-6 && missing == 0 && nonFinite == 0 && r.scores.size == p.graph.nodes.length
    Check("infer_matches_forward", ok,
      s"max |GraphInfer - predictScores| = $worst over val+test; ${r.scores.size} scores for " +
        s"${p.graph.nodes.length} nodes; $missing missing, $nonFinite non-finite")
  }
}

object Checks {
  /** Order-independent digest of the neighborhoods: a sum of per-target
    * hashes over sorted node ids and sorted (src, dst) pairs.
    */
  def digest(feats: Array[GraphFeature]): Long = feats.iterator.map { gf =>
    val ids = gf.nodes.map(_.id).sorted
    val es = gf.edges.map(e => (e.src, e.dst)).sorted
    val h1 = MurmurHash3.arrayHash(ids, gf.target.toInt)
    val h2 = MurmurHash3.seqHash(es)
    (h1.toLong << 32) ^ (h2.toLong & 0xffffffffL) ^ gf.target
  }.sum
}
