package repro.core

import org.scalacheck.{Arbitrary, Gen, Prop, Properties, Test}
import org.scalacheck.Prop.propBoolean
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

  /** Long ids and one-edit variants of them: distinct values of one column
    * as similar as 0.9 (10 characters) and 0.99 (100 characters). A probe
    * tuple cuts each long id by its first or its last character
    * (`withUnseen`), so the observation terms of its near-duplicate
    * candidates lie within 0.05 of 0, and the candidate that wins can
    * differ from the first one in canonical order only in that term.
    */
  private val nearDuplicates: Seq[String] = {
    val id10 = "h012345678"
    val id100 = ("provider-" * 12).take(91) + "012345678"
    Seq(id10, id10.updated(9, '9'), id100, id100.updated(99, '9'), id100.updated(0, 'a'))
  }

  /** A relation of 1–8 attributes over a pool of values of lengths 1–3 and
    * of near-duplicate long ids, with NULLs and values unique to their row;
    * random length UCs, some of which admit the long ids; a random DAG
    * (edges follow a random rank, so a node may have several parents or
    * none); α; score parameters; and the domain-pruning budget.
    */
  private val genKernelCase = for {
    m <- Gen.choose(1, 8)
    n <- Gen.choose(1, 30)
    cells <- Gen.listOfN(n * m, Gen.frequency(10 -> Gen.oneOf("a", "b", "ab", "ba", "abc", "bcd"),
      5 -> Gen.oneOf(nearDuplicates), 1 -> Gen.const(""), 1 -> Gen.const("u")))
    ucs <- Gen.listOfN(m, Gen.option(Gen.frequency(3 -> Gen.zip(Gen.choose(1, 3), Gen.choose(0, 2)),
      1 -> Gen.const((10, 90)))))
    rank <- Gen.listOfN(m, Gen.choose(0, 1000))
    edges <- Gen.listOfN(m * m, Gen.frequency(3 -> true, 2 -> false))
    alpha <- Gen.oneOf(0.0, 0.05, 1.0)
    lambda <- Gen.oneOf(0.5, 1.0, 2.0)
    beta <- Gen.oneOf(0.5, 2.0, 3.0)
    tau <- Gen.oneOf(0.3, 0.5, 0.9)
    topK <- Gen.choose(1, 4)
  } yield {
    val rows = Seq.tabulate(n, m) { (i, j) =>
      val v = cells(i * m + j)
      if (v == "u") s"u$i$j" else v
    }.map(_.toArray)
    val attrs = Seq.tabulate(m)(j => s"a$j")
    val uc = UcSet(attrs.zip(ucs).collect { case (a, Some((lo, d))) => a -> (UC.Length(lo, lo + d): UserConstraint) }.toMap)
    val order = (0 until m).sortBy(j => (rank(j), j))
    val dag = Dag(m, (for {
      x <- 0 until m; y <- x + 1 until m if edges(x * m + y)
    } yield (order(x), order(y)) -> 1.0).toMap)
    (rows, attrs, uc, dag, alpha, CompensatoryScore.Params(lambda, beta, tau), topK)
  }

  private def relation(rows: Seq[Array[String]], attrs: Seq[String]) = {
    val spark = SparkSpec.shared
    import spark.implicits._
    rows.zipWithIndex.map { case (t, i) => (i.toLong, t.toSeq.map(v => Option(v).filter(_.nonEmpty))) }
      .toDF("_tid", "vs")
      .selectExpr(("_tid" +: attrs.indices.map(j => s"vs[$j] as a$j")): _*)
  }

  /** The relation's tuples; each with one cell set to a value the relation
    * lacks (an unseen parent value, a missing corr row); and each that
    * holds a long id with every long id cut by its first, then by its last
    * character.
    */
  private def withUnseen(rows: Seq[Array[String]], m: Int): Seq[Array[String]] = {
    val longIds = rows.filter(_.exists(_.length >= 10))
    rows ++ rows.zipWithIndex.map { case (t, i) => t.updated(i % m, "zz") } ++
      Seq((v: String) => v.drop(1), (v: String) => v.dropRight(1)).flatMap { cut =>
        longIds.map(_.map(v => if (v.length >= 10) cut(v) else v))
      }
  }

  /** BClean-UC, BClean_PI and BClean_PIP with the case's α, score parameters
    * and domain-pruning budget.
    */
  private def partitioned(alpha: Double, params: CompensatoryScore.Params, topK: Int): Seq[BClean.Config] =
    Seq(BClean.Config.noUc, BClean.Config.pi, BClean.Config.pip).map { c =>
      c.copy(score = params, cptAlpha = alpha, inference = c.inference.copy(topK = topK))
    }

  property("the kernel scores every candidate exactly as Inference.score, and repairTuple repairs as the " +
    "per-candidate reference loop") =
    Prop.forAllNoShrink(genKernelCase) { case (rows, attrs, ucs, dag, alpha, params, topK) =>
      val df = relation(rows, attrs)
      val tuples = withUnseen(rows, attrs.length)
      Prop.all(partitioned(alpha, params, topK).map { cfg =>
        val model = BClean.buildModel(df, attrs, ucs, cfg, presetDag = Some(dag))
        val lists = attrs.indices.forall { j =>
          val base = if (cfg.inference.domainPruning) model.prunedDomains(j) else model.domains(j)
          model.kernel.candidates(j).toSeq == base.filter(c => !Values.isNull(c) && model.ucs(attrs(j)).holds(c))
        }
        val mismatches = tuples.flatMap(ReferenceLoop.scoreMismatches(model, _))
        val repairs = tuples.filterNot(t => Inference.repairTuple(model, t).sameElements(ReferenceLoop.repairTuple(model, t)))
        (lists && mismatches.isEmpty && repairs.isEmpty) :|
          s"${cfg.inference}: lists=$lists, score mismatches ${mismatches.take(3)}, " +
          s"repairs differ on ${repairs.take(3).map(_.mkString("|"))}"
      }: _*)
    }

  property("every repair passes its margin rule: a NULL fill leads every other candidate by NullFillMargin, a " +
    "UC-valid incumbent is beaten by more than RepairMargin, a UC-violating one is beaten") =
    Prop.forAllNoShrink(genKernelCase) { case (rows, attrs, ucs, dag, alpha, params, topK) =>
      val df = relation(rows, attrs)
      Prop.all(partitioned(alpha, params, topK).map { cfg =>
        val model = BClean.buildModel(df, attrs, ucs, cfg, presetDag = Some(dag))
        val broken = for {
          t <- withUnseen(rows, attrs.length)
          out = Inference.repairTuple(model, t)
          j <- attrs.indices if out(j) != t(j)
          selfW = model.selfWeight(t)
          score = (c: String) => Inference.score(model, j, c, t, selfW)
          c = out(j)
          ok =
            if (Values.isNull(t(j)))
              model.kernel.candidates(j).forall(o => o == c || score(c) - score(o) >= Inference.NullFillMargin)
            else if (model.ucs(attrs(j)).holds(t(j))) score(c) > score(t(j)) + Inference.RepairMargin
            else score(c) > score(t(j))
          if !ok
        } yield (t.mkString("|"), j, c)
        broken.isEmpty :| s"${cfg.inference}: repairs past no margin ${broken.take(3)}"
      }: _*)
    }

  /** Strings as the edit-distance properties draw them, plus the empty
    * string, one character and arbitrary Unicode.
    */
  private val anyString: Gen[String] = Gen.oneOf(
    Gen.stringOf(Gen.alphaLowerChar).map(_.take(12)),
    Gen.stringOf(Gen.oneOf('a', 'b')).map(_.take(12)),
    Gen.const(""),
    Gen.alphaNumChar.map(_.toString),
    Arbitrary.arbitrary[String])

  property("the observation term is never positive") = Prop.forAll(anyString, anyString) { (o, c) =>
    Inference.obsLog(o, c) <= 0.0
  }

  /** The lead by which `repairTuple` decides cell (t, j): the winner's
    * score over the runner-up's, the incumbent (with its repair margin)
    * among them, and for a NULL incumbent also that lead's distance from
    * `NullFillMargin`. NaN when every score is −∞.
    */
  private def lead(model: Inference.Model, t: Array[String], j: Int): Double = {
    val incumbentNull = Values.isNull(t(j))
    val margin = if (!incumbentNull && model.ucs(model.attrs(j)).holds(t(j))) Inference.RepairMargin else 0.0
    val selfW = model.selfWeight(t)
    val ps = (Inference.score(model, j, t(j), t, selfW) + margin) +:
      model.kernel.candidates(j).toSeq.filter(_ != t(j)).map(Inference.score(model, j, _, t, selfW))
    val top = ps.sorted(Ordering.Double.TotalOrdering.reverse)
    val gap = if (top.length < 2) Double.PositiveInfinity else top(0) - top(1)
    if (incumbentNull) math.min(gap, math.abs(gap - Inference.NullFillMargin)) else gap
  }

  // fullJointLog − blanketLog is constant over the candidates, but the two
  // sums round differently, so a cell that PI decides by less than this may
  // go the other way under basic BClean.
  private val FloatTie = 1e-9

  property("basic BClean repairs every tuple as BClean_PI, except where PI's choice is a float tie") =
    Prop.forAllNoShrink(genKernelCase) { case (rows, attrs, ucs, dag, alpha, params, _) =>
      val df = relation(rows, attrs)
      val Seq(basic, pi) = Seq(BClean.Config.basic, BClean.Config.pi).map { c =>
        BClean.buildModel(df, attrs, ucs, c.copy(score = params, cptAlpha = alpha), presetDag = Some(dag))
      }
      // A NaN lead (every score −∞) is no tie: no candidate can win.
      val differ = for {
        t <- rows
        (b, p) = (Inference.repairTuple(basic, t), Inference.repairTuple(pi, t))
        j <- attrs.indices if b(j) != p(j) && !(lead(pi, t, j) < FloatTie)
      } yield (t.mkString("|"), j, b(j), p(j))
      differ.isEmpty :| s"repairs differ on ${differ.take(3)}"
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
