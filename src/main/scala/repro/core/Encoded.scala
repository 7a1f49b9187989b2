package repro.core

import scala.collection.immutable.AbstractMap

/** The `Stats` tables, dictionary-encoded as in a column store (DESIGN §6
  * item 18):
  *
  *  - per attribute, one `Dict`: its values in canonical order (count
  *    descending, then value) with their counts. A value's code is its rank
  *    there; NULL ("") is a value and has a code like any other;
  *  - per attribute pair i < j, one `Table` of parallel primitive arrays,
  *    sorted by (c, e): code of c in dom(A_i), code of e in dom(A_j), count
  *    and Σ weight of the tuples holding (c, e).
  *
  * `co.unary`, `co.pairs` and `corr` are `Map` views that read these arrays
  * in place. The (j, i) view is a transposed read of the (i, j) table, so a
  * serialized model writes each table once, and it holds no per-entry tuple,
  * box or hash node.
  */
object Encoded {

  /** One attribute's values in canonical order and their counts. String →
    * code goes through an open-addressing index, built on first use in each
    * JVM and never serialized.
    */
  final class Dict(val values: Array[String], val counts: Array[Long]) extends Serializable {

    def size: Int = values.length

    /** Slot → code + 1 (0 is an empty slot); a power of two, at most half full. */
    @transient private lazy val index: Array[Int] = {
      val slots = new Array[Int](Integer.highestOneBit(math.max(2 * size, 2) - 1) << 1)
      val mask = slots.length - 1
      var k = 0
      while (k < size) {
        var s = slot(values(k)) & mask
        while (slots(s) != 0) s = (s + 1) & mask
        slots(s) = k + 1
        k += 1
      }
      slots
    }

    private def slot(v: String): Int = {
      val h = v.hashCode * 0x9e3779b9
      h ^ (h >>> 16)
    }

    /** The code of `v`, −1 when `v` is not a value of the attribute. */
    def code(v: String): Int =
      if (v == null) -1
      else {
        val slots = index
        val mask = slots.length - 1
        var s = slot(v) & mask
        var x = slots(s)
        while (x != 0 && values(x - 1) != v) { s = (s + 1) & mask; x = slots(s) }
        x - 1
      }
  }

  /** The value pairs of attributes i < j that occur together: entry k holds
    * codes `c(k)` into `di` and `e(k)` into `dj`, the count `n(k)` and the
    * Σ weight `w(k)` of their tuples. Entries are sorted by (c, e).
    */
  final class Table(val di: Dict, val dj: Dict, val c: Array[Int], val e: Array[Int], val n: Array[Long],
      val w: Array[Double]) extends Serializable {

    def size: Int = c.length

    /** Entries `start(x)` until `start(x + 1)` have c = x. */
    @transient private lazy val start: Array[Int] = {
      val s = new Array[Int](di.size + 1)
      c.foreach(x => s(x + 1) += 1)
      var x = 0
      while (x < di.size) { s(x + 1) += s(x); x += 1 }
      s
    }

    /** The entry of codes (x, y), −1 when they never occur together. */
    def find(x: Int, y: Int): Int =
      if (x < 0 || y < 0) -1
      else math.max(java.util.Arrays.binarySearch(e, start(x), start(x + 1), y), -1)

    /** Both values non-NULL: the pair is an observation for corr. */
    def observed(k: Int): Boolean = !Values.isNull(di.values(c(k))) && !Values.isNull(dj.values(e(k)))
  }

  /** `co.unary(j)`: value → count, in canonical order. */
  final class Unary(val dict: Dict) extends AbstractMap[String, Long] with Serializable {

    def get(v: String): Option[Long] = {
      val x = dict.code(v)
      if (x < 0) None else Some(dict.counts(x))
    }

    override def getOrElse[V1 >: Long](v: String, default: => V1): V1 = {
      val x = dict.code(v)
      if (x < 0) default else dict.counts(x)
    }

    override def contains(v: String): Boolean = dict.code(v) >= 0

    def iterator: Iterator[(String, Long)] = Iterator.range(0, dict.size).map(x => dict.values(x) -> dict.counts(x))

    override def size: Int = dict.size
    override def knownSize: Int = dict.size

    def removed(v: String): Map[String, Long] = Map.from(this).removed(v)
    def updated[V1 >: Long](v: String, x: V1): Map[String, V1] = Map.from(this).updated(v, x)
  }

  /** A table read as a map over (value, value) keys: (c, e) → `value(k)`,
    * or (e, c) when `transposed`, over the entries that `holds`.
    */
  sealed abstract class PairView[V](val table: Table, val transposed: Boolean)
      extends AbstractMap[(String, String), V] with Serializable {

    def holds(k: Int): Boolean
    def value(k: Int): V

    override lazy val size: Int = (0 until table.size).count(holds)

    /** The code of entry k's first and second key value. */
    def first(k: Int): Int = if (transposed) table.e(k) else table.c(k)
    def second(k: Int): Int = if (transposed) table.c(k) else table.e(k)
    def firstDict: Dict = if (transposed) table.dj else table.di
    def secondDict: Dict = if (transposed) table.di else table.dj

    /** The entry of `key`, −1 when the view holds none. */
    def entry(key: (String, String)): Int = {
      val c = if (transposed) key._2 else key._1
      val e = if (transposed) key._1 else key._2
      val k = table.find(table.di.code(c), table.dj.code(e))
      if (k >= 0 && holds(k)) k else -1
    }

    def get(key: (String, String)): Option[V] = {
      val k = entry(key)
      if (k < 0) None else Some(value(k))
    }

    override def getOrElse[V1 >: V](key: (String, String), default: => V1): V1 = {
      val k = entry(key)
      if (k < 0) default else value(k)
    }

    override def contains(key: (String, String)): Boolean = entry(key) >= 0

    def iterator: Iterator[((String, String), V)] = Iterator.range(0, table.size).filter(holds).map { k =>
      (firstDict.values(first(k)), secondDict.values(second(k))) -> value(k)
    }

    override def knownSize: Int = size

    def removed(key: (String, String)): Map[(String, String), V] = Map.from(this).removed(key)
    def updated[V1 >: V](key: (String, String), x: V1): Map[(String, String), V1] = Map.from(this).updated(key, x)
  }

  /** `co.pairs`: every value pair that occurs, NULL included → count. */
  final class Pairs(t: Table, transposed: Boolean) extends PairView[Long](t, transposed) {
    def holds(k: Int): Boolean = true
    def value(k: Int): Long = table.n(k)
  }

  /** `corr`: the value pairs with both sides non-NULL and a non-zero Σ
    * weight → Σ weight.
    */
  final class Corr(t: Table, transposed: Boolean) extends PairView[Double](t, transposed) {
    def holds(k: Int): Boolean = table.w(k) != 0.0 && table.observed(k)
    def value(k: Int): Double = table.w(k)
  }

  /** The dictionary a `co.unary` map reads. */
  def dict(m: Map[String, Long]): Dict = m match {
    case u: Unary => u.dict
    case _ => throw notEncoded
  }

  /** The view a `Map` of `co.pairs` or `corr` is; the scoring kernel reads
    * its arrays.
    */
  def view(m: Map[(String, String), _]): PairView[_] = m match {
    case v: PairView[_] => v
    case _ => throw notEncoded
  }

  private def notEncoded = new IllegalArgumentException(
    "expected the dictionary-encoded tables of Stats.compute, got a plain Map")
}
