package repro.core

import org.apache.spark.sql.DataFrame

/** Raw (un-weighted) value statistics shared by tuple pruning (Section 6.2),
  * the Garf-like rule miner, and the Raha+Baran-like corrector:
  *
  *  - unary counts  count(v) per attribute,
  *  - pair counts   count(v_i, v_j) per ordered attribute pair.
  *
  * Both are projections of `Stats`; NULL (the empty string) is counted.
  */
final case class CoOccurrence(
    nRows: Long,
    unary: Map[Int, Map[String, Long]],
    pairs: Map[(Int, Int), Map[(String, String), Long]],
) extends Serializable {

  def count(attr: Int, v: String): Long = unary.get(attr).flatMap(_.get(v)).getOrElse(0L)

  def count(ai: Int, vi: String, aj: Int, vj: String): Long =
    pairs.get((ai, aj)).flatMap(_.get((vi, vj))).getOrElse(0L)

  /** Tuple-pruning filter (Section 6.2):
    * Filter(T, A_i) = 1/(m−1) Σ_{A_j≠A_i} count(T[A_i],T[A_j]) / count(T[A_j]).
    * High values ⇒ the cell co-occurs consistently with its context and can
    * skip inference.
    */
  def filterScore(t: Array[String], i: Int): Double = {
    val m = t.length
    var s = 0.0
    var j = 0
    while (j < m) {
      if (j != i) {
        val cj = count(j, t(j))
        if (cj > 0) s += count(i, t(i), j, t(j)).toDouble / cj
      }
      j += 1
    }
    s / math.max(m - 1, 1)
  }
}

object CoOccurrence {

  def compute(df: DataFrame, attrs: Seq[String]): CoOccurrence = Stats.compute(df, attrs).co
}
