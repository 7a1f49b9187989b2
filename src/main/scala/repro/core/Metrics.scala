package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Cleaning-quality metrics (Section 7.1):
  *
  *  - Precision: correctly repaired cells / all modified cells
  *  - Recall:    correctly repaired errors / all erroneous cells
  *  - F1:        harmonic mean
  *
  * All computed cell-wise by melting the dirty/cleaned/truth relations to
  * (tid, attr, value) and joining on (tid, attr) — pure DataFrame algebra,
  * oracle-checked against DuckDB in the tests.
  */
object Metrics {

  final case class Prf(
      precision: Double,
      recall: Double,
      f1: Double,
      repairs: Long,
      correctRepairs: Long,
      errors: Long,
  ) {
    def pretty: String = f"P=$precision%.3f R=$recall%.3f F1=$f1%.3f " +
      s"(repairs=$repairs correct=$correctRepairs errors=$errors)"
  }

  /** Melt a wide relation to (tid, attr, value); NULLs normalized to "". */
  def melt(df: DataFrame, attrs: Seq[String]): DataFrame = {
    val m = attrs.length
    val stackArgs = attrs.map(a => s"'$a', coalesce(cast(`$a` as string), '')").mkString(", ")
    df.selectExpr("_tid", s"stack($m, $stackArgs) as (attr, value)")
  }

  /** Join the three melted relations into one cell-level comparison table
    * with columns (_tid, attr, dirty, cleaned, truth).
    */
  def cellTable(dirty: DataFrame, cleaned: DataFrame, truth: DataFrame, attrs: Seq[String]): DataFrame = {
    val d = melt(dirty, attrs).withColumnRenamed("value", "dirty")
    val c = melt(cleaned, attrs).withColumnRenamed("value", "cleaned")
    val t = melt(truth, attrs).withColumnRenamed("value", "truth")
    d.join(c, Seq("_tid", "attr")).join(t, Seq("_tid", "attr"))
  }

  def evaluate(dirty: DataFrame, cleaned: DataFrame, truth: DataFrame, attrs: Seq[String]): Prf = {
    val cells = cellTable(dirty, cleaned, truth, attrs)
    val agg = cells.agg(
      sum(when(col("cleaned") =!= col("dirty"), 1L).otherwise(0L)) as "repairs",
      sum(when(col("cleaned") =!= col("dirty") && col("cleaned") === col("truth"), 1L).otherwise(0L)) as "correct",
      sum(when(col("dirty") =!= col("truth"), 1L).otherwise(0L)) as "errors",
    ).collect()(0)
    val repairs = Option(agg.get(0)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val correct = Option(agg.get(1)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val errors = Option(agg.get(2)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val p = if (repairs == 0) 0.0 else correct.toDouble / repairs
    val r = if (errors == 0) 0.0 else correct.toDouble / errors
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    Prf(p, r, f1, repairs, correct, errors)
  }

  /** Recall per injected error type (Table 6): the mask relation carries one
    * row (tid, attr, errType) per injected error.
    */
  def recallByType(
      dirty: DataFrame,
      cleaned: DataFrame,
      truth: DataFrame,
      attrs: Seq[String],
      mask: DataFrame,
  ): Map[String, Double] = {
    val cells = cellTable(dirty, cleaned, truth, attrs)
    val byType = cells
      .join(mask, Seq("_tid", "attr"))
      .groupBy("errType")
      .agg(
        sum(when(col("cleaned") === col("truth"), 1L).otherwise(0L)) as "fixed",
        count(lit(1)) as "total",
      )
      .collect()
    byType.map(r => r.getString(0) -> r.getLong(1).toDouble / math.max(r.getLong(2), 1L)).toMap
  }
}
