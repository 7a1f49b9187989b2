package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.{Oracle, SparkSpec}
import repro.linalg.Mat
import repro.text.Similarity

class StructureLearnerSpec extends SparkSpec {

  private val attrs = Fixtures.fdAttrs

  /** `df`'s rows, in their collected order, over `parts` input partitions. */
  private def spread(df: DataFrame, parts: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(df.collect().toSeq, parts), df.schema)

  /** Driver-side reference: stably sort the collected relation by each
    * attribute (ties keep input order) and fold all m·(n−1) adjacent pairs.
    */
  private def referenceCovariance(df: DataFrame): Mat = {
    val m = attrs.length
    val rows = df.select(attrs.map(col): _*).collect()
      .map(r => Array.tabulate(m)(i => Values.norm(r.getString(i))))
    val obs = for {
      a <- 0 until m
      sorted = rows.sortBy(_(a))
      k <- 1 until sorted.length
    } yield Array.tabulate(m)(i => Similarity.value(sorted(k - 1)(i), sorted(k)(i)))
    val n = obs.length.toDouble
    def mean(f: Array[Double] => Double) = obs.map(f).sum / n
    val sigma = Mat.zeros(m, m)
    for (i <- 0 until m; j <- 0 until m)
      sigma(i, j) = mean(v => v(i) * v(j)) - mean(_(i)) * mean(_(j))
    sigma
  }

  test("similarityObservations yields m-dim vectors in [0,1]") {
    val df = Fixtures.fdTable(spark, 60)
    val obs = StructureLearner.similarityObservations(df, Fixtures.fdAttrs).collect()
    assert(obs.nonEmpty)
    assert(obs.forall(_.length == 3))
    assert(obs.forall(_.forall(v => v >= 0.0 && v <= 1.0)))
  }

  test("similarityObservations count is ~ m sorts × (n − partitions)") {
    val df = Fixtures.fdTable(spark, 60).coalesce(1)
    val obs = StructureLearner.similarityObservations(df, Fixtures.fdAttrs).count()
    assert(obs == 3 * 59) // one partition → exactly n−1 pairs per sort
    // Each attribute's block is one partition, so a multi-partition input
    // loses no pair either: exactly m·(n−1), n−1 in partition k for attribute k.
    val multi = spread(Fixtures.fdTable(spark, 60), 5)
    assert(multi.rdd.getNumPartitions == 5)
    val blocks = StructureLearner.similarityObservations(multi, attrs)
    assert(blocks.count() == 3 * 59)
    assert(blocks.glom().map(_.length).collect().toSeq == Seq(59, 59, 59))
  }

  test("covariance equals a driver-side stable sort over all m·(n−1) pairs") {
    val df = spread(Fixtures.fdTableDirty(spark, 120), 7)
    assert(df.rdd.getNumPartitions == 7)
    val sigma = StructureLearner.covariance(StructureLearner.similarityObservations(df, attrs), attrs.length)
    val ref = referenceCovariance(df)
    for (i <- attrs.indices; j <- attrs.indices)
      assert(math.abs(sigma(i, j) - ref(i, j)) < 1e-12, s"Σ($i,$j) = ${sigma(i, j)}, reference ${ref(i, j)}")
  }

  test("Σ and the DAG do not depend on spark.sql.shuffle.partitions") {
    val df = spread(Fixtures.fdTableDirty(spark, 200), 7)
    val prev = spark.conf.get("spark.sql.shuffle.partitions")
    def run(partitions: Int): (Seq[Double], repro.graph.Dag) = {
      spark.conf.set("spark.sql.shuffle.partitions", partitions.toString)
      val sigma = StructureLearner.covariance(StructureLearner.similarityObservations(df, attrs), attrs.length)
      (sigma.data.toSeq, StructureLearner.learn(df, attrs))
    }
    try {
      val (sigma1, dag1) = run(1)
      val (sigma8, dag8) = run(8)
      assert(sigma1 == sigma8) // bit-identical
      assert(dag1 == dag8)
      assert(dag1.edges.nonEmpty)
    } finally spark.conf.set("spark.sql.shuffle.partitions", prev)
  }

  test("a Spark NULL is read as the empty string: Σ and the DAG are those of the relation without NULLs") {
    import spark.implicits._
    // Column a mixes NULL and "" with real values; the numeric b and the
    // FD-bound c tell adjacent pairs apart, so any sort order of the NULL
    // and "" rows other than input order moves Σ.
    def rows(nullAs: String) = (0 until 240).map { k =>
      val a = k % 4 match { case 0 => nullAs; case 1 => ""; case r => s"a${k % 9}$r" }
      (k.toLong, a, (k * 37 % 101).toString, s"c${k % 9}")
    }.toDF("_tid", "a", "b", "c")
    val attrs = Seq("a", "b", "c")
    def learned(df: DataFrame) =
      (StructureLearner.covariance(StructureLearner.similarityObservations(df, attrs), attrs.length).data.toSeq,
        StructureLearner.learn(df, attrs))
    val withNulls = rows(null)
    assert(withNulls.where("a IS NULL").count() == 60 && withNulls.where("a = ''").count() == 60)
    assert(learned(withNulls) == learned(rows(Values.Null)))
  }

  test("learn starts at most two Spark jobs, buildModel at most three") {
    val dirty = Fixtures.fdTableDirty(spark, 120)
    val (_, learnJobs) = jobsOf(StructureLearner.learn(dirty, attrs))
    assert(learnJobs <= 2, s"learn started $learnJobs jobs")
    val (_, modelJobs) = jobsOf(BClean.buildModel(dirty, attrs, UcSet.empty, BClean.Config.pip))
    assert(modelJobs <= 3, s"buildModel started $modelJobs jobs")
  }

  test("identical-attribute pairs produce similarity 1") {
    // Sorting by "code" puts equal codes adjacent; their city/state also
    // agree in a clean FD table, so most vector entries are exactly 1.
    val df = Fixtures.fdTable(spark, 100).coalesce(1)
    val obs = StructureLearner.similarityObservations(df, Fixtures.fdAttrs).collect()
    val ones = obs.map(_.count(_ == 1.0)).sum.toDouble / (obs.length * 3)
    assert(ones > 0.5, s"fraction of exact agreements $ones")
  }

  test("covariance matches a DuckDB aggregate") {
    val df = Fixtures.fdTable(spark, 50).coalesce(1)
    val obs = StructureLearner.similarityObservations(df, Fixtures.fdAttrs)
    val sigma = StructureLearner.covariance(obs, 3)
    // Cross-check one covariance entry against DuckDB over the same vectors.
    import spark.implicits._
    val obsDf = obs.map(a => (a(0), a(1), a(2))).toDF("s0", "s1", "s2")
    val sparkAgg = obsDf.selectExpr(
      "cast(avg(s0*s1) - avg(s0)*avg(s1) as double) as cov01")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT avg(CAST(s0 AS DOUBLE)*CAST(s1 AS DOUBLE)) - avg(CAST(s0 AS DOUBLE))*avg(CAST(s1 AS DOUBLE)) AS cov01 FROM obs",
      "obs" -> obsDf)
    val duckLike = obsDf.selectExpr("avg(s0*s1) - avg(s0)*avg(s1) as c").collect()(0).getDouble(0)
    assert(math.abs(sigma(0, 1) - duckLike) < 1e-9)
  }

  test("sinkOrdering puts the root of a chain first") {
    // Precision of x0→x1→x2 (coef .7, noise var .36): Θ = (I−B)ᵀΩ⁻¹(I−B) =
    // [[4.14,−1.94,0],[−1.94,4.14,−1.94],[0,−1.94,2.78]] — the sink x2 has
    // the smallest diagonal.
    val theta = Mat.of(3, 3)(4.14, -1.94, 0.0, -1.94, 4.14, -1.94, 0.0, -1.94, 2.78)
    val (ord, _) = StructureLearner.decompose(theta)
    assert(ord.last == 2)
    assert(ord.head == 0 || ord.head == 1)
  }

  test("autoregression recovers chain coefficients") {
    // Θ built from SEM x1 = 0.8·x0 + ε, x2 = 0.5·x1 + ε (Ω = I):
    // Θ = (I−B)ᵀ(I−B) with B(1,0)=0.8, B(2,1)=0.5.
    val b0 = Mat.zeros(3, 3); b0(1, 0) = 0.8; b0(2, 1) = 0.5
    val imb = Mat.eye(3) - b0
    val theta = imb.t * imb
    val (_, b) = StructureLearner.decompose(theta)
    assert(math.abs(b(1, 0) - 0.8) < 1e-9, b.toString)
    assert(math.abs(b(2, 1) - 0.5) < 1e-9)
    assert(math.abs(b(2, 0)) < 1e-9)
  }

  test("learn discovers FD-aligned edges on a clean relation") {
    val df = Fixtures.fdTable(spark, 200)
    val dag = StructureLearner.learn(df, Fixtures.fdAttrs)
    // code/city/state are mutually deterministic: expect a connected graph.
    assert(dag.edges.nonEmpty, "expected at least one edge")
    val connected = (0 until 3).filter(v => dag.parents(v).nonEmpty || dag.children(v).nonEmpty)
    assert(connected.size == 3, s"dag=${dag.edges}")
  }

  test("learn tolerates dirty data (softened FDs)") {
    val dag = StructureLearner.learn(Fixtures.fdTableDirty(spark, 200), Fixtures.fdAttrs)
    assert(dag.edges.nonEmpty)
  }

  test("learn respects the maxParents cap") {
    val df = Fixtures.fdTable(spark, 150)
    val dag = StructureLearner.learn(df, Fixtures.fdAttrs,
      StructureLearner.Config(maxParents = 1))
    assert((0 until 3).forall(v => dag.parents(v).size <= 1))
  }

  test("learn on an uncorrelated relation yields few edges") {
    import spark.implicits._
    val rng = new scala.util.Random(3)
    val df = (0 until 300).map(i =>
      (i.toLong, rng.nextInt(50).toString, rng.nextInt(50).toString, rng.nextInt(50).toString))
      .toDF("_tid", "a", "b", "c")
    val dag = StructureLearner.learn(df, Seq("a", "b", "c"))
    assert(dag.edges.size <= 1, s"independent attrs produced ${dag.edges}")
  }
}
