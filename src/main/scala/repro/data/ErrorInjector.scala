package repro.data

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.Values

/** Error injection following the benchmark protocol of Section 7.1:
  *
  *  - T (typo):          add / delete / replace one random character
  *  - M (missing):       replace the value with NULL ("")
  *  - I (inconsistency): replace with a valid value drawn from the domain of
  *                       another column (or a different value of the same
  *                       column) — breaks FDs without leaving format traces
  *  - S (swap):          replace with another row's value of the same
  *                       attribute (same-domain swap)
  *
  * Injection is fully distributed and deterministic: each cell's RNG is
  * seeded with splitmix64(seed, tid·m + colIdx), so the dirty relation and
  * the error mask are reproducible from (clean, spec).
  */
object ErrorInjector {

  final case class Spec(rate: Double, types: Seq[Char], seed: Long = 42L,
                        exclude: Set[String] = Set.empty) {
    require(types.nonEmpty && types.forall("TMIS".contains(_)), s"bad error types $types")
    require(rate >= 0 && rate <= 1, s"bad rate $rate")
  }

  private val Alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

  /** One-character typo; guaranteed ≠ input for non-empty input. */
  def typo(v: String, rng: java.util.Random): String = {
    if (v.isEmpty) return Alphabet.charAt(rng.nextInt(Alphabet.length)).toString
    rng.nextInt(3) match {
      case 0 => // insert
        val p = rng.nextInt(v.length + 1)
        v.substring(0, p) + Alphabet.charAt(rng.nextInt(Alphabet.length)) + v.substring(p)
      case 1 => // delete
        if (v.length == 1) v + Alphabet.charAt(rng.nextInt(Alphabet.length))
        else { val p = rng.nextInt(v.length); v.substring(0, p) + v.substring(p + 1) }
      case _ => // replace with a different character
        val p = rng.nextInt(v.length)
        var c = Alphabet.charAt(rng.nextInt(Alphabet.length))
        while (c == v.charAt(p)) c = Alphabet.charAt(rng.nextInt(Alphabet.length))
        v.substring(0, p) + c + v.substring(p + 1)
    }
  }

  /** Collect up to `cap` distinct donor values per column for I/S errors.
    * The values are ordered by a seeded hash, ties broken by value, before
    * the cap, so which values make a pool, and in what order, does not
    * depend on how Spark partitions the shuffle.
    */
  def donorPools(clean: DataFrame, attrs: Seq[String], seed: Long = 42L,
                 cap: Int = 500): Map[Int, IndexedSeq[String]] =
    attrs.indices.map { i =>
      val c = col(attrs(i))
      i -> clean.select(c).na.drop().distinct().orderBy(xxhash64(lit(seed), c), c).limit(cap).collect()
        .map(r => Values.norm(r.getString(0))).filter(_.nonEmpty).toIndexedSeq
    }.toMap

  /** @return (dirty, mask) where mask has columns (_tid, attr, errType). */
  def inject(clean: DataFrame, attrs: Seq[String], spec: Spec): (DataFrame, DataFrame) = {
    val spark = clean.sparkSession
    val donors = donorPools(clean, attrs, spec.seed)
    val schema = clean.schema
    val attrIdx = attrs.map(schema.fieldIndex).toArray
    val tidIdx = schema.fieldIndex("_tid")
    val withErrs = StructType(schema.fields :+ StructField("_errs", StringType))
    val m = attrs.length
    val types = spec.types.toIndexedSeq

    val augmented = clean.mapPartitions { rows =>
      rows.map { row =>
        val vals = new Array[Any](schema.length)
        var i = 0
        while (i < schema.length) { vals(i) = row.get(i); i += 1 }
        val tid = row.getLong(tidIdx)
        val errs = new scala.collection.mutable.ArrayBuffer[String]()
        var k = 0
        while (k < m) {
          val cellSeed = Pools.mix(spec.seed, tid * m + k)
          val rng = new java.util.Random(cellSeed)
          if (!spec.exclude.contains(attrs(k)) && rng.nextDouble() < spec.rate) {
            val v = Values.norm(row.getString(attrIdx(k)))
            val t = types(rng.nextInt(types.length))
            val replacement: Option[String] = t match {
              case 'T' if v.nonEmpty => Some(typo(v, rng))
              case 'M' if v.nonEmpty => Some("")
              case 'I' =>
                val otherCol =
                  if (m > 1 && rng.nextBoolean()) { var o = rng.nextInt(m); while (o == k) o = rng.nextInt(m); o }
                  else k
                val pool = donors(otherCol)
                if (pool.isEmpty) None
                else {
                  var cand = pool(rng.nextInt(pool.length)); var tries = 0
                  while (cand == v && tries < 5) { cand = pool(rng.nextInt(pool.length)); tries += 1 }
                  if (cand == v) None else Some(cand)
                }
              case 'S' =>
                val pool = donors(k)
                if (pool.length < 2) None
                else {
                  var cand = pool(rng.nextInt(pool.length)); var tries = 0
                  while (cand == v && tries < 5) { cand = pool(rng.nextInt(pool.length)); tries += 1 }
                  if (cand == v) None else Some(cand)
                }
              case _ => None
            }
            replacement.foreach { nv =>
              vals(attrIdx(k)) = nv
              errs += s"${attrs(k)}:$t"
            }
          }
          k += 1
        }
        Row.fromSeq(vals.toIndexedSeq :+ errs.mkString(";"))
      }
    }(Encoders.row(withErrs)).cache()

    val dirty = augmented.drop("_errs")
    val mask = augmented
      .select(col("_tid"), explode(split(col("_errs"), ";")) as "err")
      .where(col("err") =!= "")
      .select(
        col("_tid"),
        split(col("err"), ":").getItem(0) as "attr",
        split(col("err"), ":").getItem(1) as "errType",
      )
    (dirty, mask)
  }
}
