package repro.text

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean

/** ScalaCheck property suite for the edit-distance substrate. */
object EditDistanceProps extends Properties("EditDistance") {

  private val word: Gen[String] = Gen.stringOf(Gen.alphaLowerChar).map(_.take(12))
  // Two letters: close pairs, so the band's inside is exercised too.
  private val nearWord: Gen[String] = Gen.stringOf(Gen.oneOf('a', 'b')).map(_.take(12))

  property("symmetric") = Prop.forAll(word, word) { (a, b) =>
    EditDistance(a, b) == EditDistance(b, a)
  }

  property("zero iff equal") = Prop.forAll(word, word) { (a, b) =>
    (EditDistance(a, b) == 0) == (a == b)
  }

  property("bounded by max length") = Prop.forAll(word, word) { (a, b) =>
    EditDistance(a, b) <= math.max(a.length, b.length)
  }

  property("at least length difference") = Prop.forAll(word, word) { (a, b) =>
    EditDistance(a, b) >= math.abs(a.length - b.length)
  }

  property("single appended char costs exactly 1") = Prop.forAll(word) { a =>
    EditDistance(a, a + "x") == 1
  }

  property("atMost is the distance capped at bound + 1") =
    Prop.forAll(Gen.oneOf(word, nearWord), Gen.oneOf(word, nearWord), Gen.choose(0, 14)) { (a, b, bound) =>
      EditDistance.atMost(a, b, bound) == math.min(EditDistance(a, b), bound + 1)
    }

  property("string similarity is the clamped full-DP formula") =
    Prop.forAll(Gen.oneOf(word, nearWord), Gen.oneOf(word, nearWord)) { (a, b) =>
      (a.nonEmpty && b.nonEmpty) ==> {
        val full = 1.0 - 2.0 * EditDistance(a, b) / (a.length + b.length)
        Similarity.string(a, b) == math.min(1.0, math.max(0.0, full))
      }
    }

  property("similarity stays within [0,1]") = Prop.forAll(word, word) { (a, b) =>
    val s = Similarity.string(a, b)
    s >= 0.0 && s <= 1.0
  }

  // Numbers in every form `toDouble` reads, exponents past the double range
  // (a typo'd id such as `1e999`) and huge opposite-sign values included.
  private val number: Gen[String] = for {
    sign <- Gen.oneOf("", "-", "+")
    mantissa <- Gen.oneOf(Gen.numStr.map(_.take(6)), Gen.const("1.5"), Gen.const(".5"))
    exp <- Gen.option(Gen.zip(Gen.oneOf("e", "E"), Gen.oneOf("", "-"), Gen.choose(0, 999)))
  } yield sign + mantissa + exp.fold("") { case (e, s, x) => s"$e$s$x" }

  private val value: Gen[String] =
    Gen.oneOf(word, number, Gen.oneOf("1e999", "-1e999", "1.5e308", "-1.5e308", "NaN", "Infinity"))

  property("value similarity stays within [0,1], never NaN") = Prop.forAll(value, value) { (a, b) =>
    val s = Similarity.value(a, b)
    s >= 0.0 && s <= 1.0
  }
}
