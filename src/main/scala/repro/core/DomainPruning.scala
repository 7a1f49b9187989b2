package repro.core

import repro.graph.Dag

/** Domain pruning (Section 6.2): each sub-network is an independent semantic
  * space; candidate values are ranked by a TF-IDF score
  *
  *   score(v) = context(v) · log(|D| / (1 + count(v, D)))
  *
  * where context(v) is the number of sub-networks whose observed values
  * contain v and count(v, D) is v's global occurrence count. Only the top-K
  * candidates per attribute survive. Attributes outside every sub-network
  * (isolated nodes) fall back to frequency-ranked top-K.
  *
  * Ties in (score, frequency) keep the order of the input domain, so the
  * kept set is only reproducible if that order is. `Stats.domain` gives the
  * canonical one: count descending, then value. (Spark's `distinct()` order
  * would change with `spark.sql.shuffle.partitions`; on an all-distinct
  * column such as Beers' `Id` every value ties and that order alone would
  * pick the top-K.)
  */
object DomainPruning {

  /** @param domains   full per-attribute domains (distinct observed values,
    *                  in canonical order; see `Stats.domain`)
    * @param co        co-occurrence stats (for count(v, D) and frequency ties)
    * @param dag       the learned BN (defines the sub-networks)
    * @param topK      candidates kept per attribute
    */
  def prune(
      domains: Map[Int, IndexedSeq[String]],
      co: CoOccurrence,
      dag: Dag,
      topK: Int,
  ): Map[Int, IndexedSeq[String]] = {
    val nD = math.max(co.nRows, 1L).toDouble

    def globalCount(v: String): Long =
      co.unary.valuesIterator.map(_.getOrElse(v, 0L)).sum

    domains.map { case (attr, dom) =>
      // TF: frequency of v inside this attribute's sub-network (its own
      // semantic space — the attribute and its one-hop neighbours). Reading
      // the paper's context(v) as a 0/1-ish sub-network count would rank
      // every one-off typo above the true values (IDF rewards rarity), which
      // contradicts the reported PIP quality; in-context frequency is the
      // TF-IDF reading that matches it.
      val context: Set[Int] =
        if (dag.isolated.contains(attr)) Set(attr) else dag.subNetwork(attr)
      def tf(v: String): Long = context.iterator.map(a => co.unary(a).getOrElse(v, 0L)).sum
      val ranked = dom
        .map { v =>
          // IDF clamped positive: a value shared across many columns must
          // not rank below never-seen garbage.
          val score = tf(v) * math.max(0.1, math.log(nD / (1.0 + globalCount(v))))
          (v, score, co.count(attr, v))
        }
        .sortBy { case (_, score, freq) => (-score, -freq) }
        .take(topK)
        .map(_._1)
      attr -> ranked
    }
  }
}
