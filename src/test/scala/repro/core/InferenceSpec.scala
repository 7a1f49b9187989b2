package repro.core

import repro.SparkSpec
import repro.core.{UserConstraint => UC}
import repro.graph.Dag

class InferenceSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private val ucs = UcSet(Map(
    "code" -> UC.All(Seq(UC.NotNull, UC.Pattern("c[0-9]{2}"))),
    "city" -> UC.All(Seq(UC.NotNull, UC.Length(3, 10))),
    "state" -> UC.All(Seq(UC.NotNull, UC.Length(2, 2))),
  ))

  private def model(cfg: Inference.Config): Inference.Model =
    BClean.buildModel(Fixtures.fdTableDirty(spark, 120), attrs, ucs,
      BClean.Config(inference = cfg))

  private lazy val piModel = model(Inference.Config())

  test("repairTuple fixes a typo'd city (partitioned inference)") {
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 0").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 0").collect()(0)
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(1) == truth.getString(2), s"got ${repaired.mkString(",")}")
  }

  test("repairTuple fills a missing city") {
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 1").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 1").collect()(0)
    assert(t(1) == "")
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(1) == truth.getString(2))
  }

  test("repairTuple repairs a wrong state") {
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 2").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 2").collect()(0)
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(2) == truth.getString(3))
  }

  test("clean tuples are left untouched") {
    val rows = Fixtures.fdTableDirty(spark, 120).where("_tid >= 10").collect()
    rows.take(20).foreach { r =>
      val t = attrs.indices.map(i => Values.norm(r.getString(i + 1))).toArray
      val repaired = Inference.repairTuple(piModel, t)
      assert(repaired.toSeq == t.toSeq, s"tid=${r.getLong(0)}")
    }
  }

  test("UC filters candidates: state candidates must have length 2") {
    val t = Array("c01", "akron", "zz")
    val repaired = Inference.repairTuple(piModel, t)
    assert(repaired(2).length == 2)
  }

  test("basic (full joint) and PI variants agree on this relation") {
    val basic = model(Inference.Config(partitioned = false))
    val rows = Fixtures.fdTableDirty(spark, 120).where("_tid < 6").collect()
    rows.foreach { r =>
      val t = attrs.indices.map(i => Values.norm(r.getString(i + 1))).toArray
      assert(Inference.repairTuple(basic, t).toSeq == Inference.repairTuple(piModel, t).toSeq)
    }
  }

  test("tuple pruning skips confident cells") {
    val pruning = model(Inference.Config(tuplePruning = true, tauClean = 0.9))
    val noPruning = piModel
    // A clean consistent tuple: with pruning all cells skip; result is equal
    // to input even if inference would also not change it (cheap path).
    val t = Array("c01", "akron", "oh")
    assert(Inference.repairTuple(pruning, t).toSeq == t.toSeq)
    assert(Inference.repairTuple(noPruning, t).toSeq == t.toSeq)
  }

  test("domain pruning restricts the candidate set but still repairs typos") {
    val pip = model(Inference.Config(tuplePruning = true, domainPruning = true, topK = 8))
    val dirtyRow = Fixtures.fdTableDirty(spark, 120).where("_tid = 0").collect()(0)
    val t = attrs.indices.map(i => Values.norm(dirtyRow.getString(i + 1))).toArray
    val truth = Fixtures.fdTable(spark, 120).where("_tid = 0").collect()(0)
    assert(Inference.repairTuple(pip, t)(1) == truth.getString(2))
  }

  test("on 2100 ids, repairs repeat across passes and equal the reference loop") {
    import spark.implicits._
    // 2100 ids seen twice each, and every 97th tuple with a typo'd id seen
    // once.
    val k = 2100
    val rows = (0 until 2 * k).map { i =>
      val id = f"${i % k}%04d"
      (i.toLong, if (i % 97 == 0) id + "9" else id, s"g${i % k % 7}")
    }
    val model = BClean.buildModel(rows.toDF("_tid", "id", "grp"), Seq("id", "grp"), UcSet.empty, BClean.Config.pi,
      presetDag = Some(Dag(2, Map((1, 0) -> 1.0))))
    val tuples = rows.map { case (_, id, grp) => Array(id, grp) }
    val first = tuples.map(Inference.repairTuple(model, _).toSeq)
    assert(tuples.map(Inference.repairTuple(model, _).toSeq) == first)
    tuples.indices.by(20).foreach { i =>
      assert(first(i) == ReferenceLoop.repairTuple(model, tuples(i)).toSeq, tuples(i).mkString("|"))
    }
  }

  test("clean() preserves schema and _tid") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val cleaned = Inference.clean(dirty, piModel)
    assert(cleaned.schema == dirty.schema)
    assert(cleaned.select("_tid").collect().map(_.getLong(0)).sorted.toSeq == (0L until 120L))
  }

  test("clean() repairs the planted errors end-to-end") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val truth = Fixtures.fdTable(spark, 120)
    val cleaned = Inference.clean(dirty, piModel)
    val prf = Metrics.evaluate(dirty, cleaned, truth, attrs)
    assert(prf.recall >= 0.75, prf.pretty)
    assert(prf.precision >= 0.75, prf.pretty)
  }
}
