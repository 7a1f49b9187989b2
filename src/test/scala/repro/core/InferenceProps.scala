package repro.core

import org.scalacheck.{Gen, Prop, Properties, Test}
import repro.SparkSpec
import repro.core.{UserConstraint => UC}
import repro.graph.Dag

/** ScalaCheck properties of the inference score over random relations. */
object InferenceProps extends Properties("Inference") {

  // Each case runs one Spark aggregation; fewer cases keep the suite fast.
  override def overrideParameters(p: Test.Parameters): Test.Parameters = p.withMinSuccessfulTests(30)

  /** A relation of m attributes over a three-value pool, with NULLs and
    * values unique to their row (cell (0, 0) always is one), random length
    * UCs that the unique values violate, and random score parameters.
    */
  private val genCase: Gen[(Seq[Array[String]], Seq[String], UcSet, CompensatoryScore.Params)] = for {
    m <- Gen.choose(2, 12)
    n <- Gen.choose(3, 20)
    cells <- Gen.listOfN(n * m, Gen.frequency(7 -> Gen.oneOf("v0", "v1", "v2"), 1 -> Gen.const(""), 2 -> Gen.const("u")))
    constrained <- Gen.listOfN(m, Gen.oneOf(true, false))
    lambda <- Gen.oneOf(0.5, 1.0, 2.0)
    beta <- Gen.oneOf(0.5, 1.0, 2.0, 3.0)
    tau <- Gen.oneOf(0.3, 0.5, 0.7, 0.9)
  } yield {
    val rows = Seq.tabulate(n, m) { (i, j) =>
      val v = if (i == 0 && j == 0) "u" else cells(i * m + j)
      if (v == "u") s"u$i-$j" else v
    }.map(_.toArray)
    val attrs = Seq.tabulate(m)(j => s"a$j")
    val ucs = UcSet(attrs.zip(constrained).collect { case (a, true) => a -> (UC.Length(2, 2): UserConstraint) }.toMap)
    (rows, attrs, ucs, CompensatoryScore.Params(lambda, beta, tau))
  }

  property("leave-one-out: a value seen only in its own row gets a CS term of exactly 0") =
    Prop.forAll(genCase) { case (rows, attrs, ucs, params) =>
      val spark = SparkSpec.shared
      import spark.implicits._
      val df = rows.zipWithIndex.map { case (t, i) => (i.toLong, t.toSeq.map(v => Option(v).filter(_.nonEmpty))) }
        .toDF("_tid", "vs")
        .selectExpr(("_tid" +: attrs.indices.map(j => s"vs[$j] as a$j")): _*)
      val model = BClean.buildModel(df, attrs, ucs, BClean.Config(score = params),
        presetDag = Some(Dag(attrs.length, Map.empty)))
      rows.forall { t =>
        val selfW = model.selfWeight(t)
        attrs.indices.forall { j =>
          Values.isNull(t(j)) || model.co.count(j, t(j)) != 1L ||
            Inference.csLog(model, j, t(j), t, selfW) == 0.0
        }
      }
    }
}
