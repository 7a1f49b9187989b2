package repro.text

/** Unit-cost Levenshtein distance — substrate for the paper's softened-FD
  * similarity (Section 4) and the typo-likelihood of the PClean-like baseline.
  */
object EditDistance {

  /** Classic two-row dynamic program; O(|a|·|b|) time, O(min) space. The
    * full-DP reference that `atMost` is tested against.
    */
  def apply(a: String, b: String): Int = {
    if (a == b) return 0
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    val (s, t) = if (a.length <= b.length) (a, b) else (b, a)
    var prev = Array.tabulate(s.length + 1)(identity)
    var cur = new Array[Int](s.length + 1)
    var i = 1
    while (i <= t.length) {
      cur(0) = i
      var j = 1
      while (j <= s.length) {
        val cost = if (t.charAt(i - 1) == s.charAt(j - 1)) 0 else 1
        cur(j) = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val tmp = prev; prev = cur; cur = tmp
      i += 1
    }
    prev(s.length)
  }

  /** Distance capped at the bound: min(d, bound + 1). Only the diagonal band
    * |i − j| ≤ bound of the DP is filled (Ukkonen, 1985), and it stops as
    * soon as a whole row exceeds the bound; O(bound · min(|a|, |b|)) time.
    */
  def atMost(a: String, b: String, bound: Int): Int = {
    val cap = bound + 1
    if (bound < 0 || math.abs(a.length - b.length) > bound) return cap
    if (a == b) return 0
    val (s, t) = if (a.length <= b.length) (a, b) else (b, a)
    // Cells outside the band hold cap: their true distance is at least that.
    var prev = Array.fill(s.length + 1)(cap)
    var cur = Array.fill(s.length + 1)(cap)
    var j = 0
    while (j <= math.min(s.length, bound)) { prev(j) = j; j += 1 }
    var i = 1
    while (i <= t.length) {
      val lo = math.max(1, i - bound)
      val hi = math.min(s.length, i + bound)
      cur(lo - 1) = if (lo == 1) math.min(i, cap) else cap
      var rowMin = cur(lo - 1)
      j = lo
      while (j <= hi) {
        val cost = if (t.charAt(i - 1) == s.charAt(j - 1)) 0 else 1
        val d = math.min(math.min(cur(j - 1) + 1, prev(j) + 1), math.min(prev(j - 1) + cost, cap))
        cur(j) = d
        if (d < rowMin) rowMin = d
        j += 1
      }
      if (rowMin == cap) return cap
      val tmp = prev; prev = cur; cur = tmp
      i += 1
    }
    prev(s.length)
  }
}
