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
  def value(a: String, b: String): Double =
    number(a).zip(number(b)).fold(string(a, b)) { case (x, y) => numeric(x, y) }

  /** A cell value as a number, as the `Range` UC reads it too: a plain
    * decimal with a finite value. `128f`, ` 128`, `NaN` and a typo'd id such
    * as `1e999` (∞) are strings: `128f` is a typo of `128`, not its value.
    */
  def number(s: String): Option[Double] =
    if (s == null || !Decimal.matches(s)) None else Some(s.toDouble).filter(_.isFinite)

  private val Decimal = """[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?""".r

  /** Clamped to [0, 1]; NaN (∞/∞ when two huge finite values of opposite
    * sign overflow the difference and the mean) is 0.
    */
  private def clamp(x: Double): Double = if (x > 0.0) math.min(1.0, x) else 0.0
}
