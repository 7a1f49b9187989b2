package repro.text

import org.scalatest.funsuite.AnyFunSuite

class SimilaritySpec extends AnyFunSuite {

  test("identical strings have similarity 1") {
    assert(Similarity.string("sylacauga", "sylacauga") == 1.0)
  }

  test("paper example: Department similarity 0.86") {
    // Section 4: "315 w hickory st" vs "315 w hicky st" reports ~0.86.
    val s = Similarity.string("315 w hickory st", "315 w hicky st")
    assert(math.abs(s - 0.8666) < 0.01, s"got $s")
  }

  test("completely different short strings have low similarity") {
    assert(Similarity.string("ab", "xy") == 0.0)
  }

  test("null semantics: both null is 1, one null is 0") {
    assert(Similarity.string(null, null) == 1.0)
    assert(Similarity.string("", "") == 1.0)
    assert(Similarity.string("a", null) == 0.0)
    assert(Similarity.string("", "abc") == 0.0)
  }

  test("similarity is symmetric") {
    assert(Similarity.string("centre", "center") == Similarity.string("center", "centre"))
  }

  test("numeric similarity of equal values is 1") {
    assert(Similarity.numeric(5.0, 5.0) == 1.0)
  }

  test("numeric similarity: relative difference formula") {
    // 1 − |10−8| / ((10+8)/2) = 1 − 2/9
    assert(math.abs(Similarity.numeric(10, 8) - (1.0 - 2.0 / 9.0)) < 1e-12)
  }

  test("numeric similarity clamps at 0 for wildly different values") {
    assert(Similarity.numeric(1, 1000) == 0.0)
  }

  test("numeric similarity of opposite signs clamps to 0") {
    assert(Similarity.numeric(-5, 5) == 0.0)
  }

  test("numeric similarity is 0, not NaN, when the difference and the mean overflow") {
    assert(Similarity.numeric(1.5e308, -1.5e308) == 0.0)
  }

  test("value dispatches numerics to numeric similarity") {
    assert(Similarity.value("10", "8") == Similarity.numeric(10, 8))
  }

  test("value dispatches strings to string similarity") {
    assert(Similarity.value("abc", "abd") == Similarity.string("abc", "abd"))
  }

  test("value with one numeric and one string uses string similarity") {
    assert(Similarity.value("12", "1x") == Similarity.string("12", "1x"))
  }

  test("value compares a number past the double range as a string") {
    // Typo'd ids: `1e999`, `1e998` and `1e2138` parse as ∞, which is no number to compare.
    assert(Similarity.value("1e999", "1e998") == Similarity.string("1e999", "1e998"))
    assert(Similarity.value("1e2138", "12138") == Similarity.string("1e2138", "12138"))
  }

  test("number reads plain decimals only") {
    Seq("128" -> 128.0, "-1.5e3" -> -1500.0, "+7" -> 7.0, ".5" -> 0.5, "5." -> 5.0, "2E-2" -> 0.02)
      .foreach { case (s, d) => assert(Similarity.number(s).contains(d), s) }
    Seq("128f", "128d", "128F", "128D", " 128", "128 ", "0x10", "NaN", "Infinity", "1e999", "", null,
      ".", "1e", "e5", "1_000", "١٢٣").foreach(s => assert(Similarity.number(s).isEmpty, String.valueOf(s)))
  }

  test("value compares a suffixed or padded number as a string") {
    Seq("128f" -> "128", "128d" -> "128", " 128" -> "128", "128" -> "128 ").foreach { case (a, b) =>
      assert(Similarity.value(a, b) == Similarity.string(a, b), (a, b))
      assert(Similarity.value(a, b) < 1.0, (a, b))
    }
  }

  test("string similarity clamps negative values to 0") {
    // ED can exceed avg length: "a" vs "xyz" → 1 − 2·3/4 < 0 → clamp.
    assert(Similarity.string("a", "xyz") == 0.0)
  }
}
