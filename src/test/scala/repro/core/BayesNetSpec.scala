package repro.core

import repro.SparkSpec
import repro.graph.Dag

class BayesNetSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs
  private lazy val df = Fixtures.fdTable(spark, 150)
  private lazy val dag = Dag(3, Map((0, 1) -> 1.0, (1, 2) -> 0.8)) // code → city → state
  private lazy val bn = BayesNet.learn(df, attrs, dag)

  test("learn builds CPTs only for nodes with parents") {
    assert(bn.cpts.keySet == Set(1, 2))
    assert(bn.cpts(1).map(_.parent) == Seq(0))
    assert(bn.priors.keySet == Set(0, 1, 2))
  }

  test("nodeFactorLog of a root uses the prior") {
    val t = Array("c01", "akron", "oh")
    val expected = math.log(bn.priorProb(0, "c01"))
    assert(math.abs(bn.nodeFactorLog(0, "c01", t) - expected) < 1e-12)
  }

  test("nodeFactorLog of a child conditions on parents") {
    val t = Array("c01", "akron", "oh")
    val viaCpt = bn.cpts(1).head.logProb("c01", "akron")
    assert(math.abs(bn.nodeFactorLog(1, "akron", t) - viaCpt) < 1e-12)
  }

  test("substitution redirects parent values") {
    val t = Array("c01", "akron", "oh")
    val sub = bn.nodeFactorLog(1, "akron", t, subst = 0, substVal = "c02")
    val direct = bn.cpts(1).head.logProb("c02", "akron")
    assert(math.abs(sub - direct) < 1e-12)
  }

  test("consistent tuple scores higher than corrupted tuple (full joint)") {
    val good = Array("c01", "akron", "oh")
    val bad = Array("c01", "boise", "oh") // boise pairs with c02/id
    assert(bn.fullJointLog(1, "akron", good) > bn.fullJointLog(1, "boise", good))
  }

  test("blanket score agrees with full joint on candidate ranking") {
    val t = Array("c01", "akrox", "oh") // typo'd city
    val candidates = Seq("akron", "boise", "fargo", "akrox")
    val byFull = candidates.maxBy(c => bn.fullJointLog(1, c, t))
    val byBlanket = candidates.maxBy(c => bn.blanketLog(1, c, t))
    assert(byFull == byBlanket)
    assert(byFull == "akron")
  }

  test("isolated nodes fall back to the empirical prior") {
    val isoDag = Dag(3, Map((0, 1) -> 1.0)) // state isolated
    val bn2 = BayesNet.learn(df, attrs, isoDag)
    val t = Array("c01", "akron", "oh")
    val a = bn2.nodeFactorLog(2, "oh", t)
    assert(math.abs(a - math.log(bn2.priorProb(2, "oh"))) < 1e-12)
  }

  test("edit: adding an edge gives the CPTs of a network built on the edited DAG") {
    val edited = bn.copy(dag = bn.dag.addEdge(0, 2))
    assert(edited.dag.parents(2) == Seq(0, 1))
    assert(edited.cpts(2).map(_.parent).sorted == Seq(0, 1))
    assert(edited.cpts == BayesNet.learn(df, attrs, edited.dag).cpts)
  }

  test("edit: removing the only edge drops the CPT") {
    val edited = bn.copy(dag = bn.dag.removeEdge(1, 2))
    assert(edited.dag.parents(2).isEmpty)
    assert(!edited.cpts.contains(2))
  }

  test("edit: cycle-creating addition is rejected") {
    intercept[IllegalArgumentException](bn.copy(dag = bn.dag.addEdge(2, 0)))
  }
}
