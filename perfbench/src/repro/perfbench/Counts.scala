package repro.perfbench

import java.io.{ObjectOutputStream, OutputStream}
import repro.core.{Inference, UserConstraint, Values}

/** Counts read from outside the program: from the public fields of a built
  * `Inference.Model` and the dataset's relations, replaying the candidate
  * rules of `Inference.repairTuple` without scoring anything.
  *
  * @param cells         cells of the relation (rows × attributes)
  * @param cellsSkipped  cells tuple pruning lets through unscored
  * @param candidates    `Inference.score` calls: the incumbent plus every
  *                      non-NULL, UC-satisfying domain value per scored cell
  * @param errors        cells whose dirty value differs from the truth
  * @param truthHits     erroneous cells whose true value is a candidate
  * @param modelBytes    Java-serialized size of the model (what is broadcast)
  * @param cptCells      CPT and prior entries of the network
  * @param corrEntries   entries of the compensatory-score table
  * @param coocPairs     value-pair entries of the co-occurrence statistics
  */
final case class ModelCounts(
    cells: Long,
    cellsSkipped: Long,
    candidates: Long,
    errors: Long,
    truthHits: Long,
    modelBytes: Long,
    cptCells: Long,
    corrEntries: Long,
    coocPairs: Long,
) {
  def truthHitRate: Double = if (errors == 0) 1.0 else truthHits.toDouble / errors
}

object ModelCounts {

  /** @param dirty tuples of the dirty relation, attribute values in model order
    * @param truth the same tuples' true values, index-aligned with `dirty`
    */
  def of(model: Inference.Model, dirty: Array[Array[String]], truth: Array[Array[String]]): ModelCounts = {
    val (skipped, candidates, errors, hits) = scan(model, dirty, truth)
    ModelCounts(
      cells = dirty.length.toLong * model.attrs.length,
      cellsSkipped = skipped,
      candidates = candidates,
      errors = errors,
      truthHits = hits,
      modelBytes = serializedSize(model),
      cptCells = model.bn.cpts.valuesIterator.flatten.map(_.table.valuesIterator.map(_._1.size.toLong).sum).sum +
        model.bn.priors.valuesIterator.map(_.size.toLong).sum,
      corrEntries = model.corr.valuesIterator.map(_.size.toLong).sum,
      coocPairs = model.co.pairs.valuesIterator.map(_.size.toLong).sum,
    )
  }

  /** `Inference.score` calls `repairTuple` makes on `tuples`. */
  def candidates(model: Inference.Model, tuples: Array[Array[String]]): Long =
    scan(model, tuples, tuples)._2

  /** (cells skipped, candidates, erroneous cells, erroneous cells whose truth is a candidate) */
  private def scan(
      model: Inference.Model,
      dirty: Array[Array[String]],
      truth: Array[Array[String]],
  ): (Long, Long, Long, Long) = {
    val cfg = model.cfg
    val m = model.attrs.length
    // The candidate set of a cell depends on the tuple only through the
    // incumbent, so each attribute's UC-filtered domain is built once.
    val allowed: Array[Set[String]] = Array.tabulate(m) { j =>
      val uc = if (cfg.useUc) model.ucs(model.attrs(j)) else UserConstraint.Unconstrained
      val base = if (cfg.domainPruning) model.prunedDomains(j) else model.domains(j)
      base.iterator.filter(c => !Values.isNull(c) && uc.holds(c)).toSet
    }
    var skipped, candidates, errors, hits = 0L
    var i = 0
    while (i < dirty.length) {
      val t = dirty(i)
      var j = 0
      while (j < m) {
        val err = t(j) != truth(i)(j)
        if (err) errors += 1
        val skip = cfg.tuplePruning && !Values.isNull(t(j)) && model.co.filterScore(t, j) >= cfg.tauClean
        if (skip) skipped += 1
        else {
          candidates += 1 + allowed(j).size - (if (allowed(j).contains(t(j))) 1 else 0)
          if (err && allowed(j).contains(truth(i)(j))) hits += 1
        }
        j += 1
      }
      i += 1
    }
    (skipped, candidates, errors, hits)
  }

  def serializedSize(o: AnyRef): Long = {
    var n = 0L
    val sink = new OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new ObjectOutputStream(sink)
    out.writeObject(o)
    out.close()
    n
  }
}
