package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import scala.reflect.ClassTag

/** Cell-value conventions shared across the system: NULL is represented as the
  * empty string (generators emit "", Spark nulls are normalized on ingestion).
  */
object Values {
  val Null: String = ""

  def norm(s: String): String = if (s == null) Null else s

  def isNull(s: String): Boolean = s == null || s.isEmpty

  /** Extract the attribute values of a row (positions given by `attrIdx`). */
  def ofRow(row: Row, attrIdx: Array[Int]): Array[String] = {
    val out = new Array[String](attrIdx.length)
    var i = 0
    while (i < attrIdx.length) { out(i) = norm(row.getString(attrIdx(i))); i += 1 }
    out
  }

  /** The one tuple-rewrite pass every cleaner runs: `state` is broadcast
    * once, each row's `attrs` values (read by `ofRow`) go through `repair`,
    * and the result is written back into the attribute columns. A cell is
    * written only when `repair` changed its normalized value, so an
    * untouched Spark NULL stays NULL. Every other column and the schema are
    * unchanged.
    */
  def mapTuples[S: ClassTag](df: DataFrame, attrs: Seq[String], state: S)(
      repair: (S, Array[String]) => Array[String]): DataFrame = {
    val schema = df.schema
    val attrIdx = attrs.map(schema.fieldIndex).toArray
    val bc = df.sparkSession.sparkContext.broadcast(state)
    df.mapPartitions { rows =>
      val s = bc.value
      rows.map { row =>
        val out = repair(s, ofRow(row, attrIdx))
        val vals = new Array[Any](schema.length)
        var i = 0
        while (i < schema.length) { vals(i) = row.get(i); i += 1 }
        var k = 0
        while (k < attrIdx.length) {
          if (out(k) != norm(row.getString(attrIdx(k)))) vals(attrIdx(k)) = out(k)
          k += 1
        }
        Row.fromSeq(vals.toIndexedSeq)
      }
    }(Encoders.row(schema))
  }
}
