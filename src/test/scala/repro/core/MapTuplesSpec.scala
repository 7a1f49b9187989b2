package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, when}
import repro.SparkSpec
import repro.baselines.{GarfLike, HoloCleanLike, PCleanLike, RahaBaranLike}
import repro.data.{CleaningDataset, PCleanSpec}

/** Every cleaner writes its repairs through `Values.mapTuples`. */
class MapTuplesSpec extends SparkSpec {

  // fdTable with an all-NULL attribute `note`, a non-attribute Int column
  // `hits`, and the dirty side's missing city as a real Spark NULL.
  private val attrs = Fixtures.fdAttrs :+ "note"

  private def withExtras(df: DataFrame): DataFrame = df
    .withColumn("city", when(col("city") =!= "", col("city")))
    .withColumn("note", lit(null).cast("string"))
    .withColumn("hits", (col("_tid") % 7).cast("int"))

  private lazy val ds = CleaningDataset("nulls", attrs,
    clean = withExtras(Fixtures.fdTable(spark, 60)),
    dirty = withExtras(Fixtures.fdTableDirty(spark, 60)),
    mask = spark.emptyDataFrame,
    ucs = UcSet.empty,
    fds = Seq(Seq("code") -> "city", Seq("city") -> "state"),
    pclean = PCleanSpec(Seq("code" -> Seq("city", "state"))),
    targetNoise = 0.05,
    errorTypes = Seq('T', 'M'))

  private val cleaners: Seq[(String, CleaningDataset => DataFrame)] = Seq(
    "BClean" -> (d => BClean.clean(d.dirty, d.attrs, d.ucs)),
    "HoloClean" -> (d => HoloCleanLike.clean(d)),
    "Garf" -> (d => GarfLike.clean(d)),
    "PClean" -> (d => PCleanLike.clean(d)),
    "Raha+Baran" -> (d => RahaBaranLike.clean(d)),
  )

  test("every cleaner keeps the schema, _tid set and other columns, and leaves unrepaired NULLs NULL") {
    val in = ds.dirty.collect().map(r => r.getLong(0) -> r).toMap
    assert(in(1L).isNullAt(in(1L).fieldIndex("city")))
    cleaners.foreach { case (name, clean) =>
      val out = clean(ds)
      assert(out.schema == ds.dirty.schema, name)
      val rows = out.collect()
      assert(rows.map(_.getLong(0)).sorted.toSeq == in.keys.toSeq.sorted, name)
      rows.foreach { r =>
        val before = in(r.getLong(0))
        assert(r.getAs[Int]("hits") == before.getAs[Int]("hits"), name)
        // No cleaner has a candidate for `note`; a NULL never comes back as "".
        assert(r.isNullAt(r.fieldIndex("note")), name)
        attrs.foreach(a => if (before.isNullAt(before.fieldIndex(a))) assert(r.getAs[String](a) != "", s"$name $a"))
      }
    }
  }
}
