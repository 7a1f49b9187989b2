package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.Values
import repro.data.CleaningDataset

/** HoloClean-style comparator: denial-constraint (here: FD) violation
  * detection compiled into per-group majority repairs.
  *
  * For each FD X → Y the dirty relation is grouped by X; within a group the
  * majority Y value is the repair candidate, and minority/NULL cells are the
  * detected errors. Only detected cells are repaired — reproducing
  * HoloClean's signature high precision / low recall (errors in attributes
  * not covered by any DC are never touched).
  */
object HoloCleanLike {

  /** FD repair map: X-values → (majority Y, majority count, group size). */
  def fdMajorities(
      dirty: DataFrame,
      fd: (Seq[String], String),
  ): Map[Seq[String], (String, Long, Long)] = {
    val (xs, y) = fd
    val grouped = dirty.na.fill("", xs :+ y)
      .groupBy((xs :+ y).map(col): _*).count().collect()
    grouped
      .groupBy(r => xs.indices.map(i => Values.norm(r.getString(i))): Seq[String])
      .map { case (k, rows) =>
        // NULL never wins the majority vote — it is an error signal itself.
        val candidates = rows.map(r => (Values.norm(r.getString(xs.length)), r.getLong(xs.length + 1)))
        val total = candidates.map(_._2).sum
        val (bestY, bestCnt) = candidates.filter(_._1.nonEmpty)
          .sortBy { case (v, c) => (-c, v) }.headOption.getOrElse(("", 0L))
        k -> (bestY, bestCnt, total)
      }
  }

  /** Repair: replace a cell by its FD-group majority when the group supports
    * it (≥ 2 witnesses and > half the group agrees).
    */
  def clean(ds: CleaningDataset, minSupport: Long = 2, minRatio: Double = 0.5): DataFrame = {
    val attrPos = ds.attrs.zipWithIndex.toMap
    val maps = ds.fds.map(fd => (fd._1.map(attrPos), attrPos(fd._2), fdMajorities(ds.dirty, fd)))
    Values.mapTuples(ds.dirty, ds.attrs, maps) { (fdMaps, t) =>
      val out = t.clone()
      fdMaps.foreach { case (xIdx, yIdx, mp) =>
        val key: Seq[String] = xIdx.map(t)
        mp.get(key).foreach { case (bestY, bestCnt, total) =>
          val current = t(yIdx)
          val violates = current != bestY && bestY.nonEmpty
          if (violates && bestCnt >= minSupport && bestCnt.toDouble / total > minRatio)
            out(yIdx) = bestY
        }
      }
      out
    }
  }
}
