package repro.core

import repro.text.Similarity
import scala.util.matching.Regex

/** User constraints (Section 2, Table 3): a UC is any predicate over a cell
  * value returning 1 (satisfied) or 0 (violated). BClean's built-in forms are
  * min/max length, min/max numeric value, non-null, and a regular expression;
  * `Custom` admits the paper's "any binary function" generalization.
  */
sealed trait UserConstraint extends Serializable {
  /** 1 when the value satisfies the constraint, 0 otherwise. */
  def check(value: String): Int = if (holds(value)) 1 else 0
  def holds(value: String): Boolean
}

object UserConstraint {
  import Values.isNull

  /** Non-null constraint. NULLs violate; everything else passes. */
  case object NotNull extends UserConstraint {
    def holds(v: String): Boolean = !isNull(v)
  }

  /** Length bounds for textual attributes (inclusive). Null values pass —
    * nullability is NotNull's job, and UC conjunctions should compose.
    */
  final case class Length(min: Int, max: Int) extends UserConstraint {
    require(min >= 0 && max >= min, s"bad length bounds [$min,$max]")
    def holds(v: String): Boolean = isNull(v) || (v.length >= min && v.length <= max)
  }

  /** Inclusive bounds on a `Similarity.number`; any other value violates. */
  final case class Range(min: Double, max: Double) extends UserConstraint {
    require(max >= min, s"bad range [$min,$max]")
    def holds(v: String): Boolean =
      isNull(v) || Similarity.number(v).exists(d => d >= min && d <= max)
  }

  /** Full-match regular expression (the "Pat" constraint of Section 7.3.1). */
  final case class Pattern(regex: String) extends UserConstraint {
    @transient private lazy val compiled: Regex = regex.r
    def holds(v: String): Boolean = isNull(v) || compiled.matches(v)
  }

  /** Arbitrary user function — FDs/DCs/NNs per the paper's generalization. */
  final case class Custom(name: String, f: String => Boolean) extends UserConstraint {
    def holds(v: String): Boolean = f(v)
  }

  /** Conjunction: all member constraints must hold. */
  final case class All(cs: Seq[UserConstraint]) extends UserConstraint {
    def holds(v: String): Boolean = cs.forall(_.holds(v))
  }

  /** The always-true UC used by the BClean-UC variant (no user knowledge). */
  case object Unconstrained extends UserConstraint {
    def holds(v: String): Boolean = true
  }
}

/** Per-attribute UC assignment for a dataset. Attributes without an entry are
  * unconstrained. `count` mirrors Table 2's "#UCs" column (one per attribute
  * carrying a real constraint).
  */
final case class UcSet(byAttr: Map[String, UserConstraint]) extends Serializable {
  def apply(attr: String): UserConstraint =
    byAttr.getOrElse(attr, UserConstraint.Unconstrained)
  def check(attr: String, value: String): Int = apply(attr).check(value)
  def count: Int = byAttr.size

  /** Drop one constraint type everywhere — the ablation of Section 7.3.1. */
  def without(p: UserConstraint => Boolean): UcSet = {
    def strip(uc: UserConstraint): Option[UserConstraint] = uc match {
      case UserConstraint.All(cs) =>
        val kept = cs.flatMap(strip)
        if (kept.isEmpty) None else Some(UserConstraint.All(kept))
      case c if p(c) => None
      case c         => Some(c)
    }
    UcSet(byAttr.flatMap { case (a, uc) => strip(uc).map(a -> _) })
  }
}

object UcSet {
  val empty: UcSet = UcSet(Map.empty)
}
