package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.StringType
import repro.graph.Dag

/** End-to-end BClean pipeline (Figure 2): BN construction → compensatory
  * score computation → per-cell MAP inference.
  *
  * The four experimental variants of Section 7 map to configurations:
  *  - `basic`     — full-joint inference, no pruning (BClean)
  *  - `noUc`      — partitioned inference without user constraints (BClean-UC)
  *  - `pi`        — partitioned inference (BClean_PI)
  *  - `pip`       — partitioned inference + tuple & domain pruning (BClean_PIP)
  */
object BClean {

  final case class Config(
      structure: StructureLearner.Config = StructureLearner.Config(),
      score: CompensatoryScore.Params = CompensatoryScore.Params(),
      inference: Inference.Config = Inference.Config(),
      cptAlpha: Double = 0.05, // small Laplace mass — α=1 drowns sparse FDs
  )

  object Config {
    val basic: Config = Config(inference = Inference.Config(partitioned = false))
    val noUc: Config = Config(inference = Inference.Config(useUc = false))
    val pi: Config = Config()
    val pip: Config = Config(inference = Inference.Config(tuplePruning = true, domainPruning = true))

    def variant(name: String): Config = name match {
      case "BClean"     => basic
      case "BClean-UC"  => noUc
      case "BClean_PI"  => pi
      case "BClean_PIP" => pip
      case other        => throw new IllegalArgumentException(s"unknown variant $other")
    }
  }

  /** Build the full inference model (network, scores, domains) from a dirty
    * relation. Exposed separately so tests and the user-interaction API can
    * inspect or edit the network before cleaning.
    */
  def buildModel(
      dirty: DataFrame,
      attrs: Seq[String],
      ucs: UcSet,
      cfg: Config = Config.pi,
      presetDag: Option[Dag] = None,
      userEdits: Seq[(Int, Int)] = Nil,
  ): Inference.Model = {
    requireStringAttrs(dirty, attrs)
    val effUcs = if (cfg.inference.useUc) ucs else UcSet.empty
    // Everything below is derived on the driver from this one pass, the
    // network included.
    val stats = Stats.compute(dirty, attrs, effUcs, cfg.score)
    val dag0 = presetDag.getOrElse(StructureLearner.learn(stats.relation, cfg.structure))
    // Section 7.3.2: the user inspects the learned network and adjusts it
    // with lightweight domain knowledge (FD-shaped edges).
    val dag = dag0.reconcile(userEdits)
    val bn = BayesNet(attrs, dag, stats.co, cfg.cptAlpha)
    val domains = stats.domains
    val pruned =
      if (cfg.inference.domainPruning) DomainPruning.prune(domains, stats.co, bn.dag, cfg.inference.topK)
      else domains
    Inference.Model(attrs, bn, stats.corr, stats.co, domains, pruned, effUcs, cfg.inference, cfg.score)
  }

  /** Every attribute is read as a string (`Values.ofRow`, in every pass);
    * fail here with the column's name rather than inside a Spark task.
    */
  private def requireStringAttrs(df: DataFrame, attrs: Seq[String]): Unit = {
    val types = df.schema.fields.map(f => f.name -> f.dataType).toMap
    attrs.foreach { a =>
      types.get(a) match {
        case None => throw new IllegalArgumentException(
          s"attribute column '$a' does not exist; columns: ${df.columns.mkString(", ")}")
        case Some(_: StringType) =>
        case Some(t) => throw new IllegalArgumentException(
          s"attribute column '$a' has type ${t.simpleString}; BClean cleans string columns only, cast it to string first")
      }
    }
  }

  /** Clean a dirty relation: returns a DataFrame with the same schema where
    * every cell holds the MAP value (Algorithm 1).
    */
  def clean(
      dirty: DataFrame,
      attrs: Seq[String],
      ucs: UcSet,
      cfg: Config = Config.pi,
      presetDag: Option[Dag] = None,
      userEdits: Seq[(Int, Int)] = Nil,
  ): DataFrame = {
    val model = buildModel(dirty, attrs, ucs, cfg, presetDag, userEdits)
    Inference.clean(dirty, model)
  }
}
