package repro.text

/** The paper's softened-FD similarity (Section 4).
  *
  * Strings:   Sim(a,b) = 1 − 2·ED(a,b) / (len(a)+len(b))   (clamped to [0,1])
  * Numerics:  Sim(a,b) = 1 − |a−b| / ((|a|+|b|)/2)          (clamped to [0,1]),
  *            when both values are plain decimals (`number`)
  *
  * A null/empty observation has no evidence value; we define its similarity
  * to anything as 0 (and 1 for two equal nulls, matching strict FD semantics).
  */
object Similarity {

  def string(a: String, b: String): Double = {
    if (a == null || b == null) return if (a == null && b == null) 1.0 else 0.0
    if (a.isEmpty || b.isEmpty) return if (a.isEmpty && b.isEmpty) 1.0 else 0.0
    if (a == b) return 1.0
    // Past half the total length the clamp gives 0 anyway, so the banded
    // DP may stop there.
    val d = EditDistance.atMost(a, b, (a.length + b.length) / 2)
    clamp(1.0 - 2.0 * d / (a.length + b.length))
  }

  def numeric(a: Double, b: Double): Double = {
    if (a == b) return 1.0
    val denom = (math.abs(a) + math.abs(b)) / 2.0
    if (denom == 0.0) return 0.0
    clamp(1.0 - math.abs(a - b) / denom)
  }

  /** Dispatch: numeric similarity when both are `number`s, else string. */
  def value(a: String, b: String): Double = {
    val x = numberOrNaN(a)
    value(a, x, b, if (x.isNaN) Double.NaN else numberOrNaN(b))
  }

  /** `value` of `a` and `b` given `numberOrNaN` of each. */
  def value(a: String, x: Double, b: String, y: Double): Double =
    if (x.isNaN || y.isNaN) string(a, b) else numeric(x, y)

  /** A cell value as a number, as the `Range` UC reads it too: a plain
    * decimal, `[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?` with ASCII digits,
    * with a finite value. `128f`, ` 128`, `NaN` and a typo'd id such as
    * `1e999` (∞) are strings: `128f` is a typo of `128`, not its value.
    */
  def number(s: String): Option[Double] = {
    val x = numberOrNaN(s)
    if (x.isNaN) None else Some(x)
  }

  /** `number` as a primitive: NaN when `s` is not a number (no number is NaN). */
  def numberOrNaN(s: String): Double =
    if (s == null || !isDecimal(s)) Double.NaN
    else {
      val x = s.toDouble
      if (x.isInfinite) Double.NaN else x
    }

  /** One pass over `s` for the plain-decimal grammar of `number`. */
  private def isDecimal(s: String): Boolean = {
    val n = s.length
    def digits(from: Int): Int = {
      var i = from
      while (i < n && s.charAt(i) >= '0' && s.charAt(i) <= '9') i += 1
      i
    }
    var i = if (n > 0 && (s.charAt(0) == '+' || s.charAt(0) == '-')) 1 else 0
    val intEnd = digits(i)
    var mantissa = intEnd > i
    i = intEnd
    if (i < n && s.charAt(i) == '.') {
      val fracEnd = digits(i + 1)
      mantissa ||= fracEnd > i + 1
      i = fracEnd
    }
    if (!mantissa) return false
    if (i < n && (s.charAt(i) == 'e' || s.charAt(i) == 'E')) {
      i += 1
      if (i < n && (s.charAt(i) == '+' || s.charAt(i) == '-')) i += 1
      val expEnd = digits(i)
      if (expEnd == i) return false
      i = expEnd
    }
    i == n
  }

  /** Clamped to [0, 1]; NaN (∞/∞ when two huge finite values of opposite
    * sign overflow the difference and the mean) is 0.
    */
  private def clamp(x: Double): Double = if (x > 0.0) math.min(1.0, x) else 0.0
}
