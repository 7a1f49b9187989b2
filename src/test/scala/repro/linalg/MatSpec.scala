package repro.linalg

import org.scalatest.funsuite.AnyFunSuite

class MatSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-9): Boolean = math.abs(a - b) < eps

  test("zeros constructs an all-zero matrix") {
    val m = Mat.zeros(2, 3)
    assert(m.rows == 2 && m.cols == 3)
    assert(m.data.forall(_ == 0.0))
  }

  test("eye constructs the identity") {
    val m = Mat.eye(3)
    for (i <- 0 until 3; j <- 0 until 3) assert(m(i, j) == (if (i == j) 1.0 else 0.0))
  }

  test("of rejects mismatched value counts") {
    intercept[IllegalArgumentException](Mat.of(2, 2)(1.0, 2.0, 3.0))
  }

  test("apply/update round-trip") {
    val m = Mat.zeros(2, 2)
    m(0, 1) = 5.0
    assert(m(0, 1) == 5.0 && m(1, 0) == 0.0)
  }

  test("transpose swaps indices") {
    val m = Mat.of(2, 3)(1, 2, 3, 4, 5, 6)
    val t = m.t
    assert(t.rows == 3 && t.cols == 2)
    for (i <- 0 until 2; j <- 0 until 3) assert(t(j, i) == m(i, j))
  }

  test("matrix multiply matches hand computation") {
    val a = Mat.of(2, 2)(1, 2, 3, 4)
    val b = Mat.of(2, 2)(5, 6, 7, 8)
    val c = a * b
    assert(c(0, 0) == 19 && c(0, 1) == 22 && c(1, 0) == 43 && c(1, 1) == 50)
  }

  test("multiply by identity is a no-op") {
    val a = Mat.of(2, 2)(1.5, -2, 3, 0.25)
    val c = a * Mat.eye(2)
    assert(c.maxAbsDiff(a) == 0.0)
  }

  test("multiply rejects dimension mismatch") {
    intercept[IllegalArgumentException](Mat.of(2, 2)(1, 2, 3, 4) * Mat.of(3, 3)(1, 2, 3, 4, 5, 6, 7, 8, 9))
  }

  test("add and subtract are elementwise") {
    val a = Mat.of(2, 2)(1, 2, 3, 4)
    val b = Mat.of(2, 2)(10, 20, 30, 40)
    assert((a + b)(1, 1) == 44.0)
    assert((b - a)(0, 0) == 9.0)
  }

  test("scale multiplies all entries") {
    val a = Mat.of(2, 2)(1, 2, 3, 4).scale(2.5)
    assert(a(1, 0) == 7.5)
  }

  test("maxAbsDiff finds the largest deviation") {
    val a = Mat.of(2, 2)(1, 2, 3, 4)
    val b = Mat.of(2, 2)(1, 2.5, 3, 3.0)
    assert(a.maxAbsDiff(b) == 1.0)
  }

  test("inverse of identity is identity") {
    assert(Mat.inverse(Mat.eye(4)).maxAbsDiff(Mat.eye(4)) < 1e-12)
  }

  test("inverse times original is identity") {
    val a = Mat.of(3, 3)(4, 1, 0, 1, 3, 1, 0, 1, 2)
    val prod = Mat.inverse(a) * a
    assert(prod.maxAbsDiff(Mat.eye(3)) < 1e-9)
  }

  test("inverse throws on singular matrix") {
    intercept[ArithmeticException](Mat.inverse(Mat.of(2, 2)(1, 2, 2, 4)))
  }

  test("submatrix keeps selected rows/cols") {
    val a = Mat.of(3, 3)(1, 2, 3, 4, 5, 6, 7, 8, 9)
    val s = a.submatrix(IndexedSeq(0, 2))
    assert(s(0, 0) == 1 && s(0, 1) == 3 && s(1, 0) == 7 && s(1, 1) == 9)
  }

  test("property: (A+B) == (B+A) over random seeds") {
    for (s <- 1 to 50) {
      val rng = new java.util.Random(s)
      val a = new Mat(3, 3, Array.fill(9)(rng.nextDouble()))
      val b = new Mat(3, 3, Array.fill(9)(rng.nextDouble()))
      assert((a + b).maxAbsDiff(b + a) == 0.0)
    }
  }

  test("property: inverse(A)·A ≈ I for random diagonally dominant A") {
    for (s <- 1 to 50) {
      val rng = new java.util.Random(s)
      val a = new Mat(4, 4, Array.fill(16)(rng.nextDouble()))
      for (i <- 0 until 4) a(i, i) = 5.0 + rng.nextDouble()
      assert((Mat.inverse(a) * a).maxAbsDiff(Mat.eye(4)) < 1e-8)
    }
  }
}
