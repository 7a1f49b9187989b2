package repro.graph

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck properties over random DAGs (edges always oriented low → high,
  * hence acyclic by construction).
  */
object DagProps extends Properties("Dag") {

  private val genDag: Gen[Dag] = for {
    n <- Gen.choose(2, 8)
    edges <- Gen.listOf(for {
      u <- Gen.choose(0, n - 2)
      v <- Gen.choose(u + 1, n - 1)
      w <- Gen.choose(1, 100)
    } yield (u, v) -> w / 100.0)
  } yield Dag(n, edges.toMap)

  property("topological order exists and respects every edge") = Prop.forAll(genDag) { d =>
    val ord = d.topologicalOrder.get
    d.edges.keys.forall { case (u, v) => ord.indexOf(u) < ord.indexOf(v) }
  }

  property("parents and children are inverse relations") = Prop.forAll(genDag) { d =>
    (0 until d.n).forall(v => d.parents(v).forall(p => d.children(p).contains(v)))
  }

  property("subNetwork contains the node and is within the blanket+node") = Prop.forAll(genDag) { d =>
    (0 until d.n).forall { v =>
      // Markov blanket, read off the edge map: parents, children, co-parents.
      val children = d.edges.keySet.collect { case (`v`, c) => c }
      val blanket = d.edges.keySet.collect { case (u, w) if w == v || children(w) => u } ++ children - v
      val sn = d.subNetwork(v)
      sn.contains(v) && sn.subsetOf(blanket + v)
    }
  }

  property("capParents(k) bounds the in-degree by k") = Prop.forAll(genDag, Gen.choose(0, 3)) { (d, k) =>
    val capped = d.capParents(k)
    (0 until d.n).forall(v => capped.parents(v).size <= k)
  }

  property("removeEdge then addEdge round-trips") = Prop.forAll(genDag) { d =>
    d.edges.headOption.forall { case ((u, v), w) =>
      d.removeEdge(u, v).addEdge(u, v, w).edges == d.edges
    }
  }

  property("isolated nodes have empty sub-partition") = Prop.forAll(genDag) { d =>
    d.isolated.forall(v => d.subNetwork(v) == Set(v))
  }
}
