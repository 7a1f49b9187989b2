package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{CoOccurrence, Values}
import repro.data.CleaningDataset

/** Garf-style comparator: rules are learned *from the dirty data itself*
  * (Garf uses a SeqGAN; here: confidence-thresholded association rules over
  * attribute-value pairs, which is the relational skeleton those generated
  * rules reduce to) and then applied as repairs.
  *
  * A rule (A_i = v) → (A_j = w) is kept when support(v,w) ≥ MinSupport and
  * conf = count(v,w)/count(v) ≥ MinConf. Tuples matching the LHS with a
  * different RHS value are repaired to w. High precision, recall limited to
  * rule-covered errors — the signature Garf shows in Table 4.
  */
object GarfLike {

  final case class Rule(lhsAttr: Int, lhsVal: String, rhsAttr: Int, rhsVal: String, conf: Double)

  val MinSupport: Long = 3
  val MinConf: Double = 0.9

  def mineRules(co: CoOccurrence): Seq[Rule] = {
    val rules = for {
      ((i, j), pairMap) <- co.pairs.toSeq
      ((vi, vj), cnt) <- pairMap.toSeq
      if vi.nonEmpty && vj.nonEmpty && cnt >= MinSupport
      base = co.count(i, vi)
      conf = cnt.toDouble / math.max(base, 1L)
      if conf >= MinConf
    } yield Rule(i, vi, j, vj, conf)
    rules
  }

  def clean(ds: CleaningDataset): DataFrame = {
    val co = CoOccurrence.compute(ds.dirty, ds.attrs)
    val rules = mineRules(co)
    // Index rules by LHS for O(1) application; strongest rule wins per RHS,
    // ties to the smallest RHS value.
    val byLhs: Map[(Int, String), Seq[Rule]] = rules
      .groupBy(r => (r.lhsAttr, r.lhsVal))
      .view.mapValues(_.groupBy(_.rhsAttr).values.map(_.minBy(r => (-r.conf, r.rhsVal))).toSeq).toMap
    Values.mapTuples(ds.dirty, ds.attrs, byLhs) { (idx, t) =>
      val out = t.clone()
      var i = 0
      while (i < t.length) {
        idx.get((i, t(i))).foreach(_.foreach { r =>
          if (out(r.rhsAttr) != r.rhsVal) out(r.rhsAttr) = r.rhsVal
        })
        i += 1
      }
      out
    }
  }
}
