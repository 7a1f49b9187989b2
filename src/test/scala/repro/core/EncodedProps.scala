package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
import repro.SparkSpec
import repro.core.{UserConstraint => UC}

/** ScalaCheck properties of the `Map` views over the dictionary-encoded
  * `Stats` tables, against plain maps materialized from `Stats.aggregate`.
  */
object EncodedProps extends Properties("Encoded") {

  // Each case runs two Spark passes.
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(30)

  /** A relation of 1–5 attributes with NULL cells, one row in a quarter of
    * the cases and an all-NULL column in a third; length UCs that the value
    * "w" violates, and β = 0 (zero-weight corr entries) in a third.
    */
  private val genCase = for {
    m <- Gen.choose(1, 5)
    n <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 12))
    cells <- Gen.listOfN(n * m, Gen.frequency(6 -> Gen.oneOf("v0", "v1", "v2", "w"), 2 -> Gen.const("")))
    allNull <- Gen.frequency(1 -> Gen.choose(0, m - 1).map(Some(_)), 2 -> Gen.const(None))
    constrained <- Gen.listOfN(m, Gen.oneOf(true, false))
    lambda <- Gen.oneOf(1.0, 4.0)
    beta <- Gen.oneOf(0.0, 0.5, 2.0)
  } yield {
    val rows = Seq.tabulate(n, m)((i, j) => if (allNull.contains(j)) "" else cells(i * m + j))
    val attrs = Seq.tabulate(m)(j => s"a$j")
    val ucs = UcSet(attrs.zip(constrained).collect { case (a, true) => a -> (UC.Length(2, 2): UserConstraint) }.toMap)
    (rows, attrs, ucs, CompensatoryScore.Params(lambda = lambda, beta = beta))
  }

  /** Equal to the plain map both ways, with the same hash code and size;
    * keys the plain map lacks are absent from the view.
    */
  private def agrees[K, V](view: Map[K, V], plain: Map[K, V], absent: Seq[K]): Prop =
    (view == plain && plain == view && view.hashCode == plain.hashCode && view.size == plain.size &&
      view.iterator.length == plain.size) :| s"view $view, plain $plain" &&
      absent.filterNot(plain.contains).forall(k => view.get(k).isEmpty && !view.contains(k)) :| "absent keys"

  property("every view equals the plain map of the aggregated rows") = Prop.forAllNoShrink(genCase) {
    case (rows, attrs, ucs, params) =>
      val spark = SparkSpec.shared
      import spark.implicits._
      val df = rows.zipWithIndex.map { case (t, i) => (i.toLong, t.map(v => Option(v).filter(_.nonEmpty))) }
        .toDF("_tid", "vs")
        .selectExpr(("_tid" +: attrs.indices.map(j => s"vs[$j] as a$j")): _*)
      val stats = Stats.compute(df, attrs, ucs, params)
      val withConf = CompensatoryScore.withConfidence(df, attrs, ucs, params.lambda)
      val agg = Stats.aggregate(withConf, attrs, params.tau, params.beta).as[(Int, Int, String, String, Long, Double)]
        .collect().toSeq
      val unary = attrs.indices.map(i => i -> agg.collect { case (`i`, `i`, v, _, n, _) => v -> n }.toMap).toMap
      val off = agg.filter { case (i, j, _, _, _, _) => i != j }
      val pairs = off.groupBy(r => (r._1, r._2)).map { case (ij, rs) => ij -> rs.map(r => (r._3, r._4) -> r._5).toMap }
      val corr = off.filter(r => r._3.nonEmpty && r._4.nonEmpty).groupBy(r => (r._1, r._2)).map { case (ij, rs) =>
        ij -> rs.filter(_._6 != 0.0).map(r => (r._3, r._4) -> r._6).toMap
      }
      // Values absent from every dictionary, NULL sides, and pairs that
      // occur in the counts (so absent from corr only by NULL or zero weight).
      val values = Seq("", "v0", "v1", "v2", "w", "zz")
      val keys = for (c <- values; e <- values) yield (c, e)
      Prop.all(
        (stats.co.nRows == rows.length.toLong) :| "nRows",
        (stats.co.unary.keySet == unary.keySet) :| "unary attributes",
        (stats.co.pairs.keySet == pairs.keySet) :| "pair attributes",
        (stats.corr.keySet == corr.keySet) :| "corr attributes",
        Prop.all(unary.toSeq.map { case (i, plain) => agrees(stats.co.unary(i), plain, values) :| s"unary $i" }: _*),
        Prop.all(pairs.toSeq.map { case (ij, plain) => agrees(stats.co.pairs(ij), plain, keys) :| s"pairs $ij" }: _*),
        Prop.all(corr.toSeq.map { case (ij, plain) =>
          agrees(stats.corr(ij), plain, keys) && stats.corr(ij).keysIterator.forall { case (c, e) =>
            c.nonEmpty && e.nonEmpty
          } :| s"corr $ij"
        }: _*),
      )
  }
}
