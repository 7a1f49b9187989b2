package repro.text

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean

/** ScalaCheck properties of the numeric read of `Similarity`. */
object SimilarityProps extends Properties("Similarity") {

  /** The grammar `Similarity.number` scans for, kept here as its oracle
    * (Java's `\d` is the ASCII digits only).
    */
  private val Decimal = """[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?""".r

  private def oracle(s: String): Option[Double] =
    if (s == null || !Decimal.matches(s)) None else Some(s.toDouble).filter(_.isFinite)

  /** Strings from the pieces of a decimal and its near misses: signs, dots,
    * exponents, `f`/`d` suffixes, blanks and non-ASCII digits.
    */
  private val piece: Gen[String] = Gen.frequency(
    8 -> Gen.numChar.map(_.toString),
    2 -> Gen.oneOf("+", "-"),
    2 -> Gen.const("."),
    2 -> Gen.oneOf("e", "E"),
    1 -> Gen.oneOf("f", "d", "F", "D"),
    1 -> Gen.oneOf(" ", "\t"),
    1 -> Gen.oneOf("١", "٣", "１", "०"),
    1 -> Gen.oneOf("999", "308", "x"),
  )
  private val soup: Gen[String] = Gen.choose(0, 10).flatMap(Gen.listOfN(_, piece)).map(_.mkString)

  /** A well-formed decimal with a piece inserted, dropped or appended, or none. */
  private val shaped: Gen[String] = for {
    sign <- Gen.oneOf("", "+", "-")
    int <- Gen.stringOf(Gen.numChar).map(_.take(4))
    frac <- Gen.oneOf(Gen.const(""), Gen.stringOf(Gen.numChar).map("." + _.take(3)))
    exp <- Gen.oneOf(Gen.const(""), Gen.zip(Gen.oneOf("e", "E"), Gen.oneOf("", "+", "-"),
      Gen.stringOf(Gen.numChar).map(_.take(4))).map { case (e, s, d) => e + s + d })
    edit <- Gen.oneOf(0, 1, 2, 3)
    at <- Gen.choose(0, 12)
    extra <- piece
  } yield {
    val s = sign + int + frac + exp
    val k = math.min(at, s.length)
    edit match {
      case 0 => s
      case 1 => s.take(k) + extra + s.drop(k)
      case 2 => s.take(k) + s.drop(k + 1)
      case _ => s + extra
    }
  }

  property("number accepts exactly the plain-decimal grammar, with a finite value") =
    Prop.forAll(Gen.oneOf(soup, shaped)) { s =>
      Prop.classify(oracle(s).isDefined, "number", "string") {
        (Similarity.number(s) == oracle(s)) :| s"'$s': ${Similarity.number(s)} vs ${oracle(s)}"
      }
    }

  property("value compares as numbers exactly when both sides are numbers") =
    Prop.forAll(Gen.oneOf(soup, shaped), Gen.oneOf(soup, shaped)) { (a, b) =>
      val expected = oracle(a).zip(oracle(b)).fold(Similarity.string(a, b)) { case (x, y) => Similarity.numeric(x, y) }
      Similarity.value(a, b) == expected &&
        Similarity.value(a, Similarity.numberOrNaN(a), b, Similarity.numberOrNaN(b)) == expected
    }
}
