package repro.graph

/** Directed acyclic graph over attribute indices 0..n-1 with edge weights —
  * the Bayesian-network skeleton of BClean (Sections 4 and 6.1).
  */
final case class Dag(n: Int, edges: Map[(Int, Int), Double]) {
  require(edges.keys.forall { case (u, v) => u >= 0 && u < n && v >= 0 && v < n && u != v },
    "edge endpoints out of range or self-loop")
  require(isAcyclic, "graph contains a cycle")

  def parents(v: Int): Seq[Int] = edges.keys.collect { case (u, `v`) => u }.toSeq.sorted
  def children(v: Int): Seq[Int] = edges.keys.collect { case (`v`, u) => u }.toSeq.sorted
  def hasEdge(u: Int, v: Int): Boolean = edges.contains((u, v))
  def weight(u: Int, v: Int): Double = edges.getOrElse((u, v), 0.0)

  /** Nodes with no incident edges — the "isolated" nodes of Section 6.1. */
  def isolated: Seq[Int] =
    (0 until n).filter(v => parents(v).isEmpty && children(v).isEmpty)

  /** One-hop sub-network of Section 6.1: A_joint = parents ∪ {v} ∪ children. */
  def subNetwork(v: Int): Set[Int] = (parents(v) ++ children(v)).toSet + v

  def isAcyclic: Boolean = topologicalOrder.isDefined

  /** Kahn's algorithm; None when a cycle exists. */
  def topologicalOrder: Option[Seq[Int]] = {
    val indeg = Array.fill(n)(0)
    edges.keys.foreach { case (_, v) => indeg(v) += 1 }
    val out = edges.keys.toSeq.groupMap(_._1)(_._2)
    val queue = scala.collection.mutable.Queue((0 until n).filter(indeg(_) == 0): _*)
    val order = scala.collection.mutable.ArrayBuffer.empty[Int]
    while (queue.nonEmpty) {
      val u = queue.dequeue()
      order += u
      out.getOrElse(u, Nil).foreach { v =>
        indeg(v) -= 1
        if (indeg(v) == 0) queue.enqueue(v)
      }
    }
    if (order.length == n) Some(order.toSeq) else None
  }

  /** User interaction (Section 4): add an edge; rejects cycles up front so the
    * caller gets an actionable message rather than the constructor invariant.
    */
  def addEdge(u: Int, v: Int, w: Double = 1.0): Dag = {
    require(u != v && !reaches(v, u), s"adding $u->$v would create a cycle")
    Dag(n, edges + ((u, v) -> w))
  }

  def removeEdge(u: Int, v: Int): Dag = Dag(n, edges - ((u, v)))

  /** User interaction (Section 7.3.2): reconcile the graph with a set of
    * user-desired edges. For each desired edge u→v: a conflicting reverse
    * edge v→u is removed (the user corrects the direction); if adding would
    * still close a longer cycle the edit is skipped; otherwise the edge is
    * added.
    */
  def reconcile(desired: Seq[(Int, Int)]): Dag =
    desired.foldLeft(this) { case (d, (u, v)) =>
      if (d.hasEdge(u, v)) d
      else {
        val afterRemove = if (d.hasEdge(v, u)) d.removeEdge(v, u) else d
        if (afterRemove.reaches(v, u)) afterRemove // would close a cycle — skip
        else afterRemove.addEdge(u, v)
      }
    }

  /** True when a directed path from `from` to `to` exists. */
  def reaches(from: Int, to: Int): Boolean = {
    val seen = scala.collection.mutable.Set(from)
    val stack = scala.collection.mutable.Stack(from)
    while (stack.nonEmpty) {
      val u = stack.pop()
      if (u == to) return true
      children(u).foreach(c => if (seen.add(c)) stack.push(c))
    }
    false
  }

  /** Cap in-degree at `k`, keeping the strongest parents — bounds CPT size. */
  def capParents(k: Int): Dag = {
    val kept = (0 until n).flatMap { v =>
      parents(v).map(u => ((u, v), weight(u, v))).sortBy(-_._2.abs).take(k)
    }.toMap
    Dag(n, kept)
  }
}

object Dag {
  def empty(n: Int): Dag = Dag(n, Map.empty)

  /** Build from an autoregression matrix B (child-row convention:
    * B(child, parent) ≠ 0 ⇒ edge parent → child), keeping |w| ≥ threshold.
    */
  def fromAutoregression(b: repro.linalg.Mat, threshold: Double): Dag = {
    require(b.isSquare, "B must be square")
    val edges = for {
      child <- 0 until b.rows
      parent <- 0 until b.cols
      if child != parent && math.abs(b(child, parent)) >= threshold
    } yield (parent, child) -> b(child, parent)
    Dag(b.rows, edges.toMap)
  }
}
