package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{CoOccurrence, Values}
import repro.data.{CleaningDataset, PCleanSpec}
import repro.text.EditDistance

/** PClean-style comparator: a domain-specific probabilistic program, reduced
  * to its relational essentials. The "program" (`PCleanSpec`) partitions the
  * attributes into groups, each with a *pivot* whose latent value generates
  * the group: priors are the pivot's empirical frequencies and observations
  * are corrupted by an edit-distance typo kernel, exp(−min(ED, 9)/TypoCost).
  *
  * Inference is per-tuple MAP over the pivot domain; the group's cells are
  * rewritten to the implied latent record. PClean's strength *and* weakness
  * both fall out: with a faithful program (Flights, Hospital) this is
  * extremely accurate; with a mis-specified pivot (Soccer, Beers — the paper
  * reports experts could not articulate the distributions) the implied
  * records are wrong and precision collapses, as in Table 4.
  */
object PCleanLike {

  val TypoCost: Double = 1.5

  /** For each group: pivot domain with counts, and pivot → majority implied
    * values for each determined attribute (ties to the smallest value).
    */
  final case class GroupModel(
      pivot: Int,
      determined: Seq[Int],
      pivotCounts: Map[String, Long],
      implied: Map[String, Map[Int, String]],
  )

  def learnGroup(co: CoOccurrence, pivot: Int, determined: Seq[Int]): GroupModel = {
    val pivotCounts = co.unary(pivot).filter(_._1.nonEmpty)
    val implied = pivotCounts.keys.map { v =>
      val vals = determined.flatMap { d =>
        co.pairs.get((pivot, d)).flatMap { mp =>
          val cands = mp.collect { case ((`v`, w), c) if w.nonEmpty => (w, c) }
          if (cands.isEmpty) None else Some(d -> cands.minBy { case (w, c) => (-c, w) }._1)
        }
      }.toMap
      v -> vals
    }.toMap
    GroupModel(pivot, determined, pivotCounts, implied)
  }

  def clean(ds: CleaningDataset): DataFrame = {
    val attrPos = ds.attrs.zipWithIndex.toMap
    val co = CoOccurrence.compute(ds.dirty, ds.attrs)
    val spec: PCleanSpec = ds.pclean
    val groups = spec.groups.map { case (p, det) =>
      learnGroup(co, attrPos(p), det.map(attrPos))
    }
    // Each group's pivot values in canonical order (count descending, then
    // value): the MAP below keeps the first of equally scored values.
    val ranked = groups.map(g => g -> g.pivotCounts.toArray.sortBy { case (v, n) => (-n, v) })
    Values.mapTuples(ds.dirty, ds.attrs, ranked) { (ranked, t) =>
      def editLik(obs: String, latent: String): Double =
        if (Values.isNull(obs)) -2.0 // missing-observation likelihood
        else -EditDistance.atMost(obs, latent, 8).toDouble / TypoCost
      val out = t.clone()
      ranked.foreach { case (g, pivots) =>
        // MAP over the pivot domain: prior × typo likelihood of the group.
        var bestV: String = null
        var bestS = Double.NegativeInfinity
        pivots.foreach { case (v, cnt) =>
          var s = math.log(cnt.toDouble) + editLik(t(g.pivot), v)
          val imp = g.implied.getOrElse(v, Map.empty)
          g.determined.foreach { d =>
            imp.get(d).foreach(w => s += editLik(t(d), w))
          }
          if (s > bestS) { bestS = s; bestV = v }
        }
        if (bestV != null) {
          out(g.pivot) = bestV
          val imp = g.implied.getOrElse(bestV, Map.empty)
          g.determined.foreach(d => imp.get(d).foreach(w => out(d) = w))
        }
      }
      out
    }
  }
}
