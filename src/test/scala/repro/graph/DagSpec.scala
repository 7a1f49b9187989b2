package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.Mat

class DagSpec extends AnyFunSuite {

  private val chain = Dag(3, Map((0, 1) -> 1.0, (1, 2) -> 0.5))

  test("empty DAG has no edges and all nodes isolated") {
    val d = Dag.empty(4)
    assert(d.isolated == Seq(0, 1, 2, 3))
  }

  test("parents and children") {
    assert(chain.parents(1) == Seq(0))
    assert(chain.children(1) == Seq(2))
    assert(chain.parents(0).isEmpty)
    assert(chain.children(2).isEmpty)
  }

  test("hasEdge and weight") {
    assert(chain.hasEdge(0, 1) && !chain.hasEdge(1, 0))
    assert(chain.weight(1, 2) == 0.5)
    assert(chain.weight(2, 1) == 0.0)
  }

  test("constructor rejects cycles") {
    intercept[IllegalArgumentException](Dag(2, Map((0, 1) -> 1.0, (1, 0) -> 1.0)))
  }

  test("constructor rejects self-loops") {
    intercept[IllegalArgumentException](Dag(2, Map((0, 0) -> 1.0)))
  }

  test("constructor rejects out-of-range endpoints") {
    intercept[IllegalArgumentException](Dag(2, Map((0, 5) -> 1.0)))
  }

  test("topological order respects edges") {
    val ord = chain.topologicalOrder.get
    assert(ord.indexOf(0) < ord.indexOf(1) && ord.indexOf(1) < ord.indexOf(2))
  }

  test("subNetwork is the one-hop neighborhood plus self") {
    // 0 → 1 → 2: sub-network of 1 is {0,1,2}; of 0 is {0,1}.
    assert(chain.subNetwork(1) == Set(0, 1, 2))
    assert(chain.subNetwork(0) == Set(0, 1))
  }

  test("partition covers exactly the non-isolated nodes") {
    // Section 6.1's partition: one sub-network per non-isolated node.
    val d = Dag(4, Map((0, 1) -> 1.0)) // 2, 3 isolated
    assert(d.isolated == Seq(2, 3))
    assert((0 until 4).filterNot(d.isolated.contains).map(d.subNetwork) == Seq(Set(0, 1), Set(0, 1)))
  }

  test("addEdge adds and rejects cycles") {
    val d = chain.addEdge(0, 2, 0.3)
    assert(d.hasEdge(0, 2))
    intercept[IllegalArgumentException](chain.addEdge(2, 0))
  }

  test("removeEdge removes") {
    val d = chain.removeEdge(0, 1)
    assert(!d.hasEdge(0, 1) && d.hasEdge(1, 2))
  }

  test("reaches follows directed paths only") {
    assert(chain.reaches(0, 2))
    assert(!chain.reaches(2, 0))
  }

  test("reconcile keeps an existing edge, skips a cycle-closing one and flips a reverse one") {
    // 2→0 would close 0→1→2; 1→0 replaces 0→1.
    val d = chain.reconcile(Seq((1, 2), (2, 0), (1, 0)))
    assert(d.edges == Map((1, 2) -> 0.5, (1, 0) -> 1.0))
  }

  test("capParents keeps the strongest k parents") {
    val d = Dag(4, Map((0, 3) -> 0.9, (1, 3) -> 0.2, (2, 3) -> 0.5))
    val capped = d.capParents(2)
    assert(capped.parents(3) == Seq(0, 2))
  }

  test("fromAutoregression thresholds |B| and uses child-row convention") {
    val b = Mat.zeros(3, 3)
    b(1, 0) = 0.8  // parent 0 → child 1
    b(2, 1) = 0.05 // below threshold — dropped
    val d = Dag.fromAutoregression(b, 0.1)
    assert(d.hasEdge(0, 1) && !d.hasEdge(1, 2))
    assert(d.weight(0, 1) == 0.8)
  }

  test("isAcyclic true for DAGs of several shapes") {
    assert(Dag(5, Map((0, 1) -> 1.0, (0, 2) -> 1.0, (1, 3) -> 1.0, (2, 3) -> 1.0, (3, 4) -> 1.0)).isAcyclic)
  }
}
