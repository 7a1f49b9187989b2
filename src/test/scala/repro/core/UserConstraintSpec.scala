package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{UserConstraint => UC}

class UserConstraintSpec extends AnyFunSuite {

  test("NotNull rejects null and empty, accepts values") {
    assert(UC.NotNull.check(null) == 0)
    assert(UC.NotNull.check("") == 0)
    assert(UC.NotNull.check("x") == 1)
  }

  test("Length enforces inclusive bounds") {
    val uc = UC.Length(2, 4)
    assert(uc.check("a") == 0)
    assert(uc.check("ab") == 1)
    assert(uc.check("abcd") == 1)
    assert(uc.check("abcde") == 0)
  }

  test("Length lets nulls through (nullability is NotNull's job)") {
    assert(UC.Length(2, 4).check("") == 1)
  }

  test("Length rejects bad bounds") {
    intercept[IllegalArgumentException](UC.Length(5, 2))
  }

  test("Range checks numeric bounds and rejects non-numerics") {
    val uc = UC.Range(0.0, 100.0)
    assert(uc.check("50") == 1)
    assert(uc.check("100") == 1)
    assert(uc.check("100.5") == 0)
    assert(uc.check("-1") == 0)
    assert(uc.check("abc") == 0)
  }

  test("Range reads values as plain decimals: a suffix, blanks or a non-finite value violates") {
    val uc = UC.Range(0.0, 1000.0)
    Seq("128", "1e2", ".5", "+7", "5.").foreach(v => assert(uc.check(v) == 1, v))
    Seq("128f", "128d", " 128", "128 ", "0x10", "NaN").foreach(v => assert(uc.check(v) == 0, v))
    assert(UC.Range(0.0, Double.PositiveInfinity).check("1e999") == 0)
    assert(UC.Range(Double.NegativeInfinity, Double.PositiveInfinity).check("Infinity") == 0)
  }

  test("Pattern is a full match") {
    val uc = UC.Pattern("[1-9][0-9]{4}")
    assert(uc.check("35150") == 1)
    assert(uc.check("3960") == 0)   // the paper's truncated-zip error
    assert(uc.check("035150") == 0)
    assert(uc.check("1xx18") == 0)  // Section 7.3.1 example
  }

  test("Flights time pattern matches paper formats") {
    val uc = UC.Pattern("""(1[0-2]|[1-9]):[0-5][0-9] [ap]\.m\.""")
    assert(uc.check("7:10 a.m.") == 1)
    assert(uc.check("12:59 p.m.") == 1)
    assert(uc.check("7:21am") == 0) // Section 7.3.1: g1 must be excluded
    assert(uc.check("13:00 a.m.") == 0)
  }

  test("Custom wraps any predicate") {
    val uc = UC.Custom("even-length", v => v.length % 2 == 0)
    assert(uc.check("ab") == 1)
    assert(uc.check("abc") == 0)
  }

  test("All is a conjunction") {
    val uc = UC.All(Seq(UC.NotNull, UC.Length(1, 3)))
    assert(uc.check("") == 0)
    assert(uc.check("ab") == 1)
    assert(uc.check("abcd") == 0)
  }

  test("Unconstrained accepts everything") {
    assert(UC.Unconstrained.check(null) == 1)
    assert(UC.Unconstrained.check("anything") == 1)
  }

  test("UcSet returns Unconstrained for unknown attributes") {
    val s = UcSet(Map("a" -> UC.NotNull))
    assert(s("b") == UC.Unconstrained)
    assert(s.check("a", "") == 0)
    assert(s.check("b", "") == 1)
  }

  test("UcSet.count mirrors Table 2's #UCs") {
    val s = UcSet(Map("a" -> UC.NotNull, "b" -> UC.Length(1, 5)))
    assert(s.count == 2)
  }

  test("UcSet.without strips one constraint type (Section 7.3.1 ablation)") {
    val s = UcSet(Map(
      "a" -> UC.All(Seq(UC.NotNull, UC.Pattern("[0-9]+"))),
      "b" -> UC.Pattern("[a-z]+"),
    ))
    val noPat = s.without(_.isInstanceOf[UC.Pattern])
    assert(noPat.check("a", "") == 0)    // NotNull kept
    assert(noPat.check("a", "xyz") == 1) // Pattern dropped
    assert(noPat("b") == UC.Unconstrained)
  }

  test("UcSet.without removing everything yields empty set") {
    val s = UcSet(Map("a" -> UC.NotNull))
    assert(s.without(_ == UC.NotNull).count == 0)
  }
}
