package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.{BClean, UcSet}
import repro.data.{Benchmarks, CleaningDataset}

/** A benchmark workload: a generated relation, cut to the attributes in
  * `keep`, and the BClean variant that cleans it. The seed reaches the
  * generator and the error injector only.
  *
  * Each Spark query costs the cleaner a roughly fixed overhead, and the
  * number of queries per clean grows with the number of attributes, so the
  * workloads keep a handful of attributes (with their declared FDs) to leave
  * several cleans per run.
  */
final case class Workload(
    name: String,
    variant: String,
    rows: Long,
    keep: Seq[String],
    generate: (SparkSession, Long, Long) => CleaningDataset,
) {
  def config: BClean.Config = BClean.Config.variant(variant)

  def dataset(spark: SparkSession, seed: Long, rowsOverride: Option[Long] = None): CleaningDataset = {
    val ds = generate(spark, rowsOverride.getOrElse(rows), seed)
    val cols = ("_tid" +: keep).map(col)
    ds.copy(
      attrs = keep,
      clean = ds.clean.select(cols: _*),
      dirty = ds.dirty.select(cols: _*),
      mask = ds.mask.where(col("attr").isin(keep: _*)),
      ucs = UcSet(ds.ucs.byAttr.filter { case (a, _) => keep.contains(a) }),
      fds = ds.fds.filter { case (xs, y) => (xs :+ y).forall(keep.contains) },
    )
  }
}

object Workloads {

  val all: Seq[Workload] = Seq(
    // Partitioned inference on Hospital's provider/location block: model
    // construction (structure, CPTs, user edits, statistics) dominates.
    Workload("hospital-pi", "BClean_PI", 1000,
      Seq("ProviderNumber", "HospitalName", "ZipCode", "City"),
      (s, n, seed) => Benchmarks.hospital(s, n, seed)),
    // Tuple and domain pruning on Beers: a 2410-value Id column, numeric
    // range UCs and a BreweryId FD. Most cells skip inference and the rest
    // scan a TF-IDF top-K list, so candidate quality drives recall.
    Workload("beers-pip", "BClean_PIP", 2410,
      Seq("Id", "Ounces", "Abv", "BreweryId", "City"),
      (s, n, seed) => Benchmarks.beers(s, n, seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
