package repro.core

import repro.{Oracle, SparkSpec}

class CoOccurrenceSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val df = Fixtures.fdTable(spark, 100)
  private lazy val co = Stats.compute(df, attrs).co

  test("nRows is the relation size") {
    assert(co.nRows == 100L)
  }

  test("unary counts sum to n per attribute") {
    attrs.indices.foreach(i => assert(co.unary(i).values.sum == 100L))
  }

  test("unary counts match DuckDB") {
    import spark.implicits._
    Oracle.assertEquivalent(co.unary(2).toSeq.toDF("state", "cnt"),
      "SELECT state, count(*) AS cnt FROM t GROUP BY state", "t" -> df)
  }

  test("pair counts match DuckDB") {
    import spark.implicits._
    val pairs = co.pairs((0, 2)).toSeq.map { case ((c, s), n) => (c, s, n) }
    Oracle.assertEquivalent(pairs.toDF("code", "state", "cnt"),
      "SELECT code, state, count(*) AS cnt FROM t GROUP BY code, state", "t" -> df)
  }

  test("pair counts are symmetric under key swap") {
    assert(co.count(0, "c01", 1, "akron") == co.count(1, "akron", 0, "c01"))
  }

  test("count of unknown value is 0") {
    assert(co.count(0, "zzz") == 0L)
    assert(co.count(0, "zzz", 1, "akron") == 0L)
  }

  test("filterScore is 1 for a perfectly consistent FD tuple") {
    // code c01 always co-occurs with akron/oh: count(c01,akron)/count(akron)=1.
    val t = Array("c01", "akron", "oh")
    val s = co.filterScore(t, 0)
    assert(s > 0.9, s"filter=$s")
  }

  test("filterScore is low for a foreign value") {
    val t = Array("c01", "akron", "oh")
    val tBad = t.clone(); tBad(0) = "c02" // c02 never pairs with akron
    assert(co.filterScore(tBad, 0) < 0.1)
  }

  test("filterScore on dirty relation separates clean from corrupted cells") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val codirty = Stats.compute(dirty, attrs).co
    val rows = dirty.collect().map(r => (r.getLong(0), Array(r.getString(1), Values.norm(r.getString(2)), r.getString(3))))
    val typoRow = rows.find(_._1 == 0L).get._2 // city typo'd
    val cleanRow = rows.find(_._1 == 50L).get._2
    assert(codirty.filterScore(typoRow, 1) < codirty.filterScore(cleanRow, 1))
  }
}
