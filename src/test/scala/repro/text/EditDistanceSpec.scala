package repro.text

import org.scalatest.funsuite.AnyFunSuite

class EditDistanceSpec extends AnyFunSuite {

  test("identical strings have distance 0") {
    assert(EditDistance("hickory", "hickory") == 0)
  }

  test("empty vs non-empty is the length") {
    assert(EditDistance("", "abc") == 3)
    assert(EditDistance("abc", "") == 3)
  }

  test("empty vs empty is 0") {
    assert(EditDistance("", "") == 0)
  }

  test("single substitution") {
    assert(EditDistance("cat", "cut") == 1)
  }

  test("single insertion") {
    assert(EditDistance("cat", "cart") == 1)
  }

  test("single deletion") {
    assert(EditDistance("cart", "cat") == 1)
  }

  test("paper example: hickory vs hicky") {
    // "315 w hickory st" vs "315 w hicky st": ED=2 (delete 'o','r')
    assert(EditDistance("315 w hickory st", "315 w hicky st") == 2)
  }

  test("classic kitten/sitting") {
    assert(EditDistance("kitten", "sitting") == 3)
  }

  test("symmetry") {
    assert(EditDistance("northwood", "nprthwood") == EditDistance("nprthwood", "northwood"))
  }

  test("triangle inequality on samples") {
    val ws = Seq("sylacauga", "sylacuga", "centre", "center", "")
    for (a <- ws; b <- ws; c <- ws)
      assert(EditDistance(a, c) <= EditDistance(a, b) + EditDistance(b, c))
  }

  test("distance bounded by max length") {
    assert(EditDistance("abcdef", "xyz") <= 6)
  }

  test("atMost early-exits when length gap exceeds the bound") {
    assert(EditDistance.atMost("a", "abcdefgh", 3) == 4)
  }

  test("atMost equals full distance within bound") {
    assert(EditDistance.atMost("cat", "cut", 3) == 1)
  }

  test("atMost caps a distance past the bound at bound + 1") {
    assert(EditDistance.atMost("abc", "xyz", 1) == 2)
    assert(EditDistance.atMost("kitten", "sitting", 2) == 3)
    assert(EditDistance.atMost("kitten", "sitting", 3) == 3)
  }
}
