package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.lit
import repro.SparkSpec
import repro.bench.Harness
import repro.data.{CleaningDataset, PCleanSpec}

/** BClean, BClean_PI and BClean_PIP on degenerate relations: each keeps the
  * schema, the row count and the `_tid` set, and leaves alone what it has
  * no alternative for. Where a relation leaves the scoring kernel no
  * context or no candidate, every variant's kernel also scores and
  * repairs each tuple as the per-candidate reference loop.
  */
class DegenerateInputsSpec extends SparkSpec {

  private val variants = Seq("BClean", "BClean_PI", "BClean_PIP")

  private def dataset(name: String, dirty: DataFrame, attrs: Seq[String],
                      fds: Seq[(Seq[String], String)] = Nil): CleaningDataset =
    CleaningDataset(name, attrs, clean = dirty, dirty = dirty, mask = spark.emptyDataFrame, ucs = UcSet.empty,
      fds = fds, pclean = PCleanSpec(Nil), targetNoise = 0.0, errorTypes = Seq('T'))

  private val fds = Seq(Seq("code") -> "city", Seq("city") -> "state")

  private def byTid(df: DataFrame): Seq[Row] = df.collect().sortBy(_.getLong(0)).toSeq

  /** Runs every variant on `ds`, checks its shape, and hands each output's
    * rows (ordered by `_tid`) to `check`.
    */
  private def cleanAll(ds: CleaningDataset)(check: (String, Seq[Row]) => Unit): Unit = {
    val in = byTid(ds.dirty)
    variants.foreach { v =>
      val out = Harness.clean(ds, v)
      assert(out.schema == ds.dirty.schema, v)
      val rows = byTid(out)
      assert(rows.map(_.getLong(0)) == in.map(_.getLong(0)), v)
      check(v, rows)
    }
  }

  private def unchanged(ds: CleaningDataset): Unit = {
    val in = byTid(ds.dirty)
    cleanAll(ds)((v, rows) => assert(rows == in, v))
  }

  /** Every variant's model of `ds` scores each tuple through the kernel
    * exactly as `Inference.score`, and repairs it as the reference loop.
    */
  private def kernelMatchesReference(ds: CleaningDataset): Seq[Inference.Model] = {
    val tuples = byTid(ds.dirty).map(r => ds.attrs.map(a => Values.norm(r.getAs[String](a))).toArray)
    Seq("BClean", "BClean-UC", "BClean_PI", "BClean_PIP").map { v =>
      val model = BClean.buildModel(ds.dirty, ds.attrs, ds.ucs, BClean.Config.variant(v), userEdits = ds.fdEdges)
      tuples.foreach { t =>
        assert(ReferenceLoop.scoreMismatches(model, t).isEmpty, v)
        assert(Inference.repairTuple(model, t).toSeq == ReferenceLoop.repairTuple(model, t).toSeq, v)
      }
      model
    }
  }

  test("one row: nothing to repair, the output equals the input") {
    unchanged(dataset("one-row", Fixtures.fdTableDirty(spark, 1), Fixtures.fdAttrs, fds))
  }

  test("one attribute: schema, rows and _tid set are kept") {
    val ds = dataset("one-attr", Fixtures.fdTableDirty(spark, 60).select("_tid", "city"), Seq("city"))
    cleanAll(ds)((_, _) => ())
    // No context attribute: the kernel's BN term is the prior alone and
    // its corr sums are empty.
    kernelMatchesReference(ds)
  }

  test("an all-NULL column: no candidate, the column stays NULL, the kernel repairs as the reference loop") {
    val dirty = Fixtures.fdTableDirty(spark, 60).withColumn("phone", lit(null).cast("string"))
    val ds = dataset("null-col", dirty, Fixtures.fdAttrs :+ "phone", fds)
    cleanAll(ds)((v, rows) => assert(rows.forall(_.isNullAt(4)), v))
    kernelMatchesReference(ds).foreach(model => assert(model.kernel.candidates(3).isEmpty))
  }

  test("a constant column comes back unchanged") {
    val dirty = Fixtures.fdTableDirty(spark, 60).withColumn("country", lit("us"))
    cleanAll(dataset("const-col", dirty, Fixtures.fdAttrs :+ "country", fds)) { (v, rows) =>
      assert(rows.forall(_.getAs[String]("country") == "us"), v)
    }
  }

  test("an all-constant relation: nothing to repair, the output equals the input") {
    val dirty = Fixtures.fdTable(spark, 20)
      .withColumn("code", lit("c01")).withColumn("city", lit("akron")).withColumn("state", lit("oh"))
    unchanged(dataset("all-const", dirty, Fixtures.fdAttrs, fds))
  }

  test("an empty relation: nothing to repair, the output is empty") {
    unchanged(dataset("empty", Fixtures.fdTable(spark, 0), Fixtures.fdAttrs, fds))
  }
}
