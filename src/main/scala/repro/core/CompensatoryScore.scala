package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Compensatory scoring model (Section 5, Algorithm 2).
  *
  * Approximates Score_comp = log Pr[t] − log Pr[t|c] by the correlation score
  *   Score_corr(c, t, A_j) = Σ_{A_k ≠ A_j} corr(c, t[A_k], A_j, A_k)
  * where corr accumulates, over all tuples containing the value pair, +1 for
  * tuples whose UC-based confidence (Eq. 3) is ≥ τ and −β otherwise, divided
  * by |D|.
  *
  * A tuple's weight is one Scala function, `tupleWeight`, called per tuple
  * by the `Stats` pass and by inference's leave-one-out term; the corr
  * table is the Σ weight column of that pass. `withConfidence` and
  * `corrTable` rebuild the table from a `conf` column, for a replay.
  */
object CompensatoryScore {

  final case class Params(lambda: Double = 1.0, beta: Double = 2.0, tau: Double = 0.5)

  /** Tuple confidence (Eq. 3) of the normalized values `t` of `attrs`:
    * conf(T) = max(0, (Σ 1[UC=1] − λ · Σ 1[UC=0]) / |T|).
    */
  def confidence(t: Array[String], attrs: Seq[String], ucs: UcSet, lambda: Double): Double = {
    var sat = 0
    var i = 0
    while (i < t.length) { sat += ucs.check(attrs(i), t(i)); i += 1 }
    val viol = t.length - sat
    math.max(0.0, (sat - lambda * viol) / t.length)
  }

  /** A tuple's weight in every corr entry it touches (Algorithm 2). */
  def tupleWeight(t: Array[String], attrs: Seq[String], ucs: UcSet, params: Params): Double =
    weight(confidence(t, attrs, ucs, params.lambda), params.tau, params.beta)

  /** Adds the `conf` column (Eq. 3, `confidence`) to the relation. */
  def withConfidence(df: DataFrame, attrs: Seq[String], ucs: UcSet, lambda: Double): DataFrame = {
    val conf = udf((vs: Seq[String]) => confidence(vs.map(Values.norm).toArray, attrs, ucs, lambda))
    df.withColumn("conf", conf(array(attrs.map(col): _*)))
  }

  /** The corr table of Algorithm 2 as a DataFrame with columns
    * (ai, aj, c, e, w): for each ordered attribute pair (A_i, A_j), i ≠ j,
    * and non-NULL value pair (c, e), w = Σ_T weight(conf(T)). A projection
    * of the local DataFrame `Stats.aggregate` returns, so it sums exactly
    * as `Stats.compute` does. Normalization by |D| happens at lookup time.
    */
  def corrTable(dfWithConf: DataFrame, attrs: Seq[String], tau: Double, beta: Double): DataFrame =
    Stats.aggregate(dfWithConf, attrs, tau, beta)
      .where(col("ai") =!= col("aj") && col("c") =!= Values.Null && col("e") =!= Values.Null)
      .select("ai", "aj", "c", "e", "w")

  /** Collect the corr table into a broadcast-friendly nested map:
    * (ai, aj) → ((c, e) → w). Zero-weight entries are dropped.
    */
  def collect(corrDf: DataFrame): Map[(Int, Int), Map[(String, String), Double]] =
    corrDf.collect().groupBy(r => (r.getInt(0), r.getInt(1))).map { case (k, rs) =>
      k -> rs.iterator.filter(_.getDouble(4) != 0.0).map(r => (r.getString(2), r.getString(3)) -> r.getDouble(4)).toMap
    }

  /** Score_corr(c, t, A_j) from the collected corr map (Eq. 2), normalized by
    * the relation size. `self` is taken off every entry read: the weight the
    * tuple itself put into them, for a leave-one-out score.
    */
  def scoreCorr(
      corr: Map[(Int, Int), Map[(String, String), Double]],
      nRows: Long,
      j: Int,
      c: String,
      t: Array[String],
      self: Double = 0.0,
  ): Double = {
    var s = 0.0
    var k = 0
    while (k < t.length) {
      if (k != j && !Values.isNull(t(k))) {
        corr.get((j, k)) match {
          case Some(mp) => s += mp.getOrElse((c, t(k)), 0.0) - self
          case None     => s -= self
        }
      }
      k += 1
    }
    s / math.max(nRows, 1L)
  }

  /** Per-tuple corr weight. The paper's Algorithm 2 uses the cliff
    * 1[conf ≥ τ] / −β·1[conf < τ]; we grade the penalty by how far below τ
    * the tuple sits, −β·(τ−conf)/τ, so that at high noise rates (Flights,
    * ~30%) tuples one violation short of τ do not erase the legitimate
    * support of their clean value pairs. On Hospital at λ = 1 no tuple
    * falls below τ = 0.5, so β never applies and Table 9 is flat; a large λ
    * pushes every tuple with a UC violation below τ, and the penalty grows
    * as its confidence falls toward 0, which is where Table 8 drops
    * (DESIGN §6 item 6).
    */
  def weight(conf: Double, tau: Double, beta: Double): Double =
    if (conf >= tau) 1.0 else -beta * (tau - conf) / math.max(tau, 1e-9)

  /** The paper combines scores as log(BN) + log(CS). Score_corr may be ≤ 0
    * (β-penalties), where a raw log is undefined; since only the relative
    * order of candidates matters (Section 5), we use the monotone signed-log
    * transform sign(x)·log1p(|x·n|) over the *un-normalized* net support
    * count. It agrees with log on large positive support, is defined and
    * order-preserving for penalized (negative) scores, and has no cliff that
    * would let a weakly-supported candidate crush a penalized-but-correct
    * incumbent.
    */
  def logCs(scoreCorr: Double, nRows: Long): Double = {
    val net = scoreCorr * math.max(nRows, 1L)
    math.signum(net) * math.log1p(math.abs(net))
  }
}
