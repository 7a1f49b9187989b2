package repro.baselines

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{array, col, explode, lit, struct}
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

  /** FD repair maps, one per FD of `fds`: X-values → (majority Y, majority
    * count, group size). Every FD's groups come from one aggregation.
    */
  def fdMajorities(
      dirty: DataFrame,
      fds: Seq[(Seq[String], String)],
  ): Seq[Map[Seq[String], (String, Long, Long)]] = {
    if (fds.isEmpty) return Seq.empty
    val cells = fds.zipWithIndex.map { case ((xs, y), f) =>
      struct(lit(f) as "f", array(xs.map(col): _*) as "x", col(y) as "y")
    }
    val byFd = dirty.na.fill("", fds.flatMap { case (xs, y) => xs :+ y }.distinct)
      .select(explode(array(cells: _*)) as "c")
      .groupBy(col("c.f"), col("c.x"), col("c.y")).count().collect()
      .groupBy(_.getInt(0))
    fds.indices.map { f =>
      byFd.getOrElse(f, Array.empty[Row])
        .groupBy(r => r.getSeq[String](1).map(Values.norm))
        .map { case (k, rows) =>
          // NULL never wins the majority vote — it is an error signal itself.
          val candidates = rows.map(r => (Values.norm(r.getString(2)), r.getLong(3)))
          val total = candidates.map(_._2).sum
          val (bestY, bestCnt) = candidates.filter(_._1.nonEmpty)
            .sortBy { case (v, c) => (-c, v) }.headOption.getOrElse(("", 0L))
          k -> (bestY, bestCnt, total)
        }
    }
  }

  val MinSupport: Long = 2   // witnesses the majority needs
  val MinRatio: Double = 0.5 // share of the group the majority must exceed

  /** One FD X → Y of a dataset: the positions of X and of Y among its
    * attributes, and the FD's map from `fdMajorities`.
    */
  final case class FdMap(xs: Seq[Int], y: Int, majorities: Map[Seq[String], (String, Long, Long)]) {

    /** The majority value that repairs t's Y cell: it differs from t(y), is
      * not NULL, and its X-group supports it (≥ MinSupport witnesses and
      * > MinRatio of the group agrees).
      */
    def repair(t: Array[String]): Option[String] =
      majorities.get(xs.map(t)).collect {
        case (best, cnt, total)
            if best.nonEmpty && best != t(y) && cnt >= MinSupport && cnt.toDouble / total > MinRatio => best
      }
  }

  /** The FD maps of `ds`'s FDs over its dirty relation. */
  def fdMaps(ds: CleaningDataset): Seq[FdMap] = {
    val attrPos = ds.attrs.zipWithIndex.toMap
    ds.fds.zip(fdMajorities(ds.dirty, ds.fds)).map { case ((xs, y), mp) => FdMap(xs.map(attrPos), attrPos(y), mp) }
  }

  /** Repair: replace a cell by its FD-group majority when the group supports
    * it (`FdMap.repair`).
    */
  def clean(ds: CleaningDataset): DataFrame =
    Values.mapTuples(ds.dirty, ds.attrs, fdMaps(ds)) { (fds, t) =>
      val out = t.clone()
      fds.foreach(fd => fd.repair(t).foreach(out(fd.y) = _))
      out
    }
}
