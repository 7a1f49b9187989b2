package repro.linalg

/** Minimal dense, row-major, mutable matrix — the linear-algebra substrate for
  * BClean's structure learning (Section 4). Sizes here are m×m where m is the
  * attribute count (≤ 15 in the paper's datasets), so simplicity beats BLAS.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, s"bad shape ${rows}x$cols for ${data.length} values")

  def apply(i: Int, j: Int): Double = data(i * cols + j)
  def update(i: Int, j: Int, v: Double): Unit = data(i * cols + j) = v

  def copy: Mat = new Mat(rows, cols, data.clone())

  def t: Mat = {
    val out = Mat.zeros(cols, rows)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out(j, i) = this(i, j); j += 1 }; i += 1 }
    out
  }

  def *(other: Mat): Mat = {
    require(cols == other.rows, s"dim mismatch ${rows}x$cols * ${other.rows}x${other.cols}")
    val out = Mat.zeros(rows, other.cols)
    var i = 0
    while (i < rows) {
      var k = 0
      while (k < cols) {
        val a = this(i, k)
        if (a != 0.0) { var j = 0; while (j < other.cols) { out(i, j) += a * other(k, j); j += 1 } }
        k += 1
      }
      i += 1
    }
    out
  }

  def +(other: Mat): Mat = zipWith(other)(_ + _)
  def -(other: Mat): Mat = zipWith(other)(_ - _)
  def scale(s: Double): Mat = new Mat(rows, cols, data.map(_ * s))

  private def zipWith(other: Mat)(f: (Double, Double) => Double): Mat = {
    require(rows == other.rows && cols == other.cols, "shape mismatch")
    val out = new Array[Double](data.length)
    var i = 0
    while (i < data.length) { out(i) = f(data(i), other.data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  /** Max |a_ij − b_ij|. */
  def maxAbsDiff(other: Mat): Double = {
    var m = 0.0; var i = 0
    while (i < data.length) { m = math.max(m, math.abs(data(i) - other.data(i))); i += 1 }
    m
  }

  def isSquare: Boolean = rows == cols

  /** Symmetric submatrix keeping the given (ordered) indices. */
  def submatrix(keep: IndexedSeq[Int]): Mat = {
    val out = Mat.zeros(keep.length, keep.length)
    var i = 0
    while (i < keep.length) { var j = 0; while (j < keep.length) { out(i, j) = this(keep(i), keep(j)); j += 1 }; i += 1 }
    out
  }

  override def toString: String =
    (0 until rows).map(i => (0 until cols).map(j => f"${this(i, j)}%10.4f").mkString(" ")).mkString("\n")
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def eye(n: Int): Mat = {
    val m = zeros(n, n); var i = 0; while (i < n) { m(i, i) = 1.0; i += 1 }; m
  }

  def of(rows: Int, cols: Int)(vals: Double*): Mat = {
    require(vals.length == rows * cols, "value count mismatch")
    new Mat(rows, cols, vals.toArray)
  }

  /** Gauss–Jordan inverse with partial pivoting; throws on singular input. */
  def inverse(a: Mat): Mat = {
    require(a.isSquare, "inverse needs square matrix")
    val n = a.rows
    val aug = zeros(n, 2 * n)
    for (i <- 0 until n; j <- 0 until n) aug(i, j) = a(i, j)
    for (i <- 0 until n) aug(i, n + i) = 1.0
    for (col <- 0 until n) {
      var piv = col
      for (r <- col + 1 until n) if (math.abs(aug(r, col)) > math.abs(aug(piv, col))) piv = r
      if (math.abs(aug(piv, col)) < 1e-12) throw new ArithmeticException(s"singular matrix at column $col")
      if (piv != col) for (j <- 0 until 2 * n) { val t = aug(col, j); aug(col, j) = aug(piv, j); aug(piv, j) = t }
      val d = aug(col, col)
      for (j <- 0 until 2 * n) aug(col, j) /= d
      for (r <- 0 until n if r != col) {
        val f = aug(r, col)
        if (f != 0.0) for (j <- 0 until 2 * n) aug(r, j) -= f * aug(col, j)
      }
    }
    val out = zeros(n, n)
    for (i <- 0 until n; j <- 0 until n) out(i, j) = aug(i, n + j)
    out
  }
}
