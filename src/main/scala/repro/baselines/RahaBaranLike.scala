package repro.baselines

import org.apache.spark.sql.DataFrame
import repro.core.{CoOccurrence, Values}
import repro.data.CleaningDataset
import repro.text.EditDistance

/** Raha+Baran-style comparator: a detector ensemble weighted on ~20 labeled
  * tuples, followed by a context-based corrector — mirroring the paper's
  * semi-supervised pipeline and, crucially, its detection→correction error
  * propagation.
  *
  * Detectors (Raha's strategy families, reduced to their relational cores):
  *   null        — the cell is NULL
  *   pattern     — the cell's character-class pattern is rare in its column
  *   frequency   — the value occurs once while the column is repetitive
  *   fd          — the cell disagrees with its FD-group majority
  *
  * Each detector's weight is its accuracy on the cells of the first
  * `Labels` tuples (the user-labeled sample). A cell is flagged when the
  * weighted vote passes 0.5. Corrections (Baran): argmax over the column
  * domain of freq × edit-proximity × context co-occurrence.
  */
object RahaBaranLike {

  val Labels: Int = 20 // size of the user-labeled sample

  def charClassPattern(v: String): String =
    v.map(c => if (c.isDigit) 'd' else if (c.isLetter) 'a' else 's').mkString

  def patternHistogram(co: CoOccurrence): Map[Int, Map[String, Long]] =
    co.unary.map { case (i, counts) =>
      i -> counts.toSeq.groupBy { case (v, _) => charClassPattern(v) }
        .view.mapValues(_.map(_._2).sum).toMap
    }

  /** Per attribute: its total count (at least 1) and its most frequent
    * value's count.
    */
  def columnSizes(co: CoOccurrence): Map[Int, (Long, Long)] =
    co.unary.map { case (i, counts) => i -> (math.max(counts.values.sum, 1L), counts.values.maxOption.getOrElse(0L)) }

  /** Votes of the four detectors for one cell. */
  def votes(
      t: Array[String],
      i: Int,
      co: CoOccurrence,
      sizes: Map[Int, (Long, Long)],
      patterns: Map[Int, Map[String, Long]],
      fdMaps: Seq[(Seq[Int], Int, Map[Seq[String], (String, Long, Long)])],
  ): Array[Boolean] = {
    val v = t(i)
    val (colN, colMax) = sizes(i)
    val nullVote = Values.isNull(v)
    val patVote = !Values.isNull(v) && {
      val p = charClassPattern(v)
      patterns(i).getOrElse(p, 0L).toDouble / colN < 0.05
    }
    val freqVote = !Values.isNull(v) &&
      co.count(i, v) == 1L && colMax >= 3L
    val fdVote = fdMaps.exists { case (xIdx, yIdx, mp) =>
      yIdx == i && mp.get(xIdx.map(t): Seq[String]).exists { case (best, cnt, total) =>
        best.nonEmpty && best != v && cnt >= 2 && cnt.toDouble / total > 0.5
      }
    }
    Array(nullVote, patVote, freqVote, fdVote)
  }

  def clean(ds: CleaningDataset): DataFrame = {
    val dirty = ds.dirty
    val schema = dirty.schema
    val attrIdx = ds.attrs.map(schema.fieldIndex).toArray
    val attrPos = ds.attrs.zipWithIndex.toMap
    val co = CoOccurrence.compute(dirty, ds.attrs)
    val sizes = columnSizes(co)
    val patterns = patternHistogram(co)
    val fdMaps = ds.fds.map(fd =>
      (fd._1.map(attrPos), attrPos(fd._2), HoloCleanLike.fdMajorities(dirty, fd)))

    // ---- detector weighting on the labeled sample (tuples 0..Labels-1) ----
    import org.apache.spark.sql.functions.col
    val labeledDirty = dirty.where(col("_tid") < Labels).collect()
      .map(r => r.getLong(schema.fieldIndex("_tid")) -> Values.ofRow(r, attrIdx)).toMap
    val labeledTruth = ds.clean.where(col("_tid") < Labels).collect()
      .map(r => r.getLong(schema.fieldIndex("_tid")) -> Values.ofRow(r, attrIdx)).toMap
    val nDet = 4
    val correct = new Array[Double](nDet)
    var total = 0.0
    labeledDirty.foreach { case (tid, t) =>
      val truth = labeledTruth(tid)
      for (i <- t.indices) {
        val isErr = t(i) != truth(i)
        val vs = votes(t, i, co, sizes, patterns, fdMaps)
        total += 1
        for (d <- 0 until nDet) if (vs(d) == isErr) correct(d) += 1
      }
    }
    val weights = correct.map(c => math.max(c / math.max(total, 1.0) - 0.5, 0.01))
    val wSum = weights.sum

    // ---- correction model: domain candidates scored in context ------------
    val domains: Map[Int, IndexedSeq[String]] = co.unary.map { case (i, counts) =>
      i -> counts.toSeq.sortBy(-_._2).take(300).map(_._1).filter(_.nonEmpty).toIndexedSeq
    }
    val model = (co, sizes, patterns, fdMaps, weights, wSum, domains)
    Values.mapTuples(dirty, ds.attrs, model) { case ((co, sizes, patterns, fdMaps, weights, wSum, domains), t) =>
      val out = t.clone()
      var i = 0
      while (i < t.length) {
        val vs = votes(t, i, co, sizes, patterns, fdMaps)
        val vote = vs.zip(weights).collect { case (true, w) => w }.sum
        if (vote > 0.5 * wSum) {
          // Baran-style correction: frequency × edit proximity × context.
          var bestC: String = null
          var bestS = Double.NegativeInfinity
          val dom = domains(i)
          var k = 0
          while (k < dom.length) {
            val c = dom(k)
            if (c != t(i)) {
              val ed = if (Values.isNull(t(i))) 3 else EditDistance.atMost(c, t(i), 6)
              var ctx = 0.0
              var j = 0
              while (j < t.length) {
                if (j != i) ctx += co.count(i, c, j, t(j)).toDouble
                j += 1
              }
              val s = math.log(co.count(i, c).toDouble + 1) - 0.8 * ed + math.log1p(ctx)
              if (s > bestS) { bestS = s; bestC = c }
            }
            k += 1
          }
          if (bestC != null) out(i) = bestC
        }
        i += 1
      }
      out
    }
  }
}
