package repro.core

import repro.SparkSpec
import repro.graph.Dag

class DomainPruningSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val dirty = Fixtures.fdTableDirty(spark, 120)
  private lazy val co = CoOccurrence.compute(dirty, attrs)
  private lazy val dag = Dag(3, Map((0, 1) -> 1.0, (1, 2) -> 0.8))
  private lazy val domains: Map[Int, IndexedSeq[String]] =
    attrs.indices.map(i => i -> co.unary(i).keys.toIndexedSeq).toMap

  test("prune keeps at most topK values per attribute") {
    val pruned = DomainPruning.prune(domains, co, dag, topK = 3)
    assert(pruned.values.forall(_.length <= 3))
  }

  test("topK larger than the domain keeps everything") {
    val pruned = DomainPruning.prune(domains, co, dag, topK = 1000)
    attrs.indices.foreach(i => assert(pruned(i).toSet == domains(i).toSet))
  }

  test("kept values appear in some sub-network context") {
    val pruned = DomainPruning.prune(domains, co, dag, topK = 4)
    val netValues = (0 until dag.n).filterNot(dag.isolated.contains).map(dag.subNetwork).distinct
      .map(_.flatMap(a => domains(a)))
    pruned.values.flatten.foreach { v =>
      assert(netValues.exists(_.contains(v)), s"value $v outside every sub-network")
    }
  }

  test("pruning is deterministic") {
    val a = DomainPruning.prune(domains, co, dag, topK = 3)
    val b = DomainPruning.prune(domains, co, dag, topK = 3)
    assert(a == b)
  }

  test("isolated-node domains fall back to frequency ranking") {
    val isoDag = Dag.empty(3)
    val pruned = DomainPruning.prune(domains, co, isoDag, topK = 2)
    // With no sub-networks context(v)=0 for all v, so scores tie at 0 and
    // frequency breaks the tie.
    val topCities = co.unary(1).toSeq.sortBy(-_._2).take(2).map(_._1).toSet
    assert(pruned(1).toSet == topCities)
  }
}
