package repro.bench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.{BClean, CompensatoryScore, Metrics, UserConstraint}
import repro.data.CleaningDataset

/** The Section 7 tables, each computed by one function: its measured rows,
  * and the paper-vs-measured text that the bench suites record and
  * `jobs/RunTables` prints.
  */
object Tables {

  final case class Table[+A](text: String, rows: Seq[A])

  /** Table 2 as measured: the error types are the ones found in the mask. */
  final case class DatasetStats(name: String, rows: Long, cols: Int, cells: Long, noise: Double,
                                types: String, ucs: Int)

  // Paper Table 2: dataset -> (rows, cols, cells, noise, types, UCs).
  val Paper2: Map[String, (Long, Int, String, String, String, Int)] = Map(
    "Hospital" -> (1000L, 15, "15k", "~5%", "T,M,I", 15),
    "Flights" -> (2376L, 6, "14k", "~30%", "T,M", 6),
    "Soccer" -> (200000L, 10, "2M", "~1%", "T,M,I", 10),
    "Beers" -> (2410L, 11, "27k", "~13%", "T,M,I", 11),
    "Inpatient" -> (4017L, 11, "44k", "~10%", "T,M,I,S", 11),
    "Facilities" -> (7992L, 11, "88k", "~5%", "T,M,I,S", 11),
  )

  // Paper Table 4: method -> dataset -> (P, R, F1); None = OOM/out-of-time.
  private val Paper4: Map[String, Map[String, Option[(Double, Double, Double)]]] = Map(
    "BClean-UC" -> Map(
      "Hospital" -> Some((1.000, 0.935, 0.966)), "Flights" -> Some((0.807, 0.729, 0.766)),
      "Soccer" -> Some((0.927, 0.982, 0.954)), "Beers" -> Some((0.880, 0.065, 0.121)),
      "Inpatient" -> Some((0.934, 0.883, 0.908)), "Facilities" -> Some((0.810, 0.805, 0.807))),
    "BClean" -> Map(
      "Hospital" -> Some((0.998, 0.956, 0.976)), "Flights" -> Some((0.852, 0.816, 0.834)),
      "Soccer" -> Some((0.928, 0.979, 0.952)), "Beers" -> Some((0.916, 0.887, 0.901)),
      "Inpatient" -> Some((0.909, 0.845, 0.876)), "Facilities" -> None),
    "BClean_PI" -> Map(
      "Hospital" -> Some((1.000, 0.960, 0.980)), "Flights" -> Some((0.831, 0.780, 0.805)),
      "Soccer" -> Some((0.919, 0.986, 0.951)), "Beers" -> Some((0.948, 0.949, 0.949)),
      "Inpatient" -> Some((0.934, 0.883, 0.908)), "Facilities" -> Some((0.810, 0.805, 0.807))),
    "BClean_PIP" -> Map(
      "Hospital" -> Some((0.997, 0.903, 0.948)), "Flights" -> Some((0.830, 0.784, 0.807)),
      "Soccer" -> Some((0.845, 0.931, 0.885)), "Beers" -> Some((0.948, 0.882, 0.914)),
      "Inpatient" -> Some((0.929, 0.791, 0.855)), "Facilities" -> Some((0.753, 0.730, 0.741))),
    "PClean" -> Map(
      "Hospital" -> Some((1.000, 0.927, 0.962)), "Flights" -> Some((0.907, 0.884, 0.895)),
      "Soccer" -> Some((0.184, 0.672, 0.289)), "Beers" -> Some((0.028, 0.028, 0.028)),
      "Inpatient" -> Some((0.576, 0.460, 0.512)), "Facilities" -> None),
    "HoloClean" -> Map(
      "Hospital" -> Some((1.000, 0.456, 0.626)), "Flights" -> Some((0.742, 0.352, 0.477)),
      "Soccer" -> None, "Beers" -> Some((1.000, 0.024, 0.047)),
      "Inpatient" -> Some((0.966, 0.219, 0.357)), "Facilities" -> Some((1.000, 0.612, 0.759))),
    "Raha+Baran" -> Map(
      "Hospital" -> Some((0.971, 0.585, 0.730)), "Flights" -> Some((0.829, 0.650, 0.729)),
      "Soccer" -> Some((0.768, 0.103, 0.182)), "Beers" -> Some((0.873, 0.872, 0.873)),
      "Inpatient" -> Some((0.643, 0.442, 0.524)), "Facilities" -> Some((0.499, 0.309, 0.382))),
    "Garf" -> Map(
      "Hospital" -> Some((1.000, 0.556, 0.715)), "Flights" -> Some((0.968, 0.012, 0.024)),
      "Soccer" -> Some((0.667, 0.534, 0.583)), "Beers" -> Some((0.973, 0.011, 0.021)),
      "Inpatient" -> Some((0.971, 0.091, 0.166)), "Facilities" -> Some((0.963, 0.281, 0.435))),
  )

  // Paper Table 5: (paper label, method run here, (P, R, F1)).
  private val Paper5 = Seq(
    ("BClean", "BClean_PI", (0.345, 0.931, 0.504)),
    ("HoloClean", "HoloClean", (0.919, 0.551, 0.689)),
    ("PClean", "PClean", (0.150, 0.665, 0.244)),
    ("Raha+Baran", "Raha+Baran", (0.523, 0.133, 0.212)),
  )

  // Paper Table 6: method -> dataset -> recall (T, M, I); the paper has no S column.
  private val Paper6 = Map(
    "BClean_PI" -> Map(
      "Soccer" -> (0.997, 1.000, 0.990),
      "Inpatient" -> (0.840, 1.000, 0.843),
      "Facilities" -> (0.683, 0.900, 0.837)),
    "PClean" -> Map(
      "Soccer" -> (1.000, 0.568, 0.953),
      "Inpatient" -> (0.323, 0.760, 0.477),
      "Facilities" -> (0.0, 0.0, 0.0)),
    "HoloClean" -> Map(
      "Soccer" -> (0.749, 1.000, 0.923),
      "Inpatient" -> (0.954, 0.612, 0.949),
      "Facilities" -> (0.804, 1.000, 0.851)),
    "Raha+Baran" -> Map(
      "Soccer" -> (0.047, 0.244, 0.018),
      "Inpatient" -> (0.491, 0.890, 0.109),
      "Facilities" -> (0.295, 0.501, 0.213)),
  )

  // Paper Table 7: method -> dataset -> execution time, and the user time.
  private val Paper7Exec = Map(
    "PClean" -> Map("Hospital" -> "16s", "Flights" -> "7s", "Soccer" -> "30m44s",
      "Beers" -> "2m55s", "Inpatient" -> "3m17s", "Facilities" -> "1m32s"),
    "HoloClean" -> Map("Hospital" -> "1m40s", "Flights" -> "36s", "Soccer" -> "-",
      "Beers" -> "1m37s", "Inpatient" -> "4m14s", "Facilities" -> "6m2s"),
    "Raha+Baran" -> Map("Hospital" -> "1m46s", "Flights" -> "41s", "Soccer" -> "8m59s",
      "Beers" -> "3m2s", "Inpatient" -> "10m36s", "Facilities" -> "10m55s"),
    "Garf" -> Map("Hospital" -> "5m24s", "Flights" -> "1m57s", "Soccer" -> "18h30m",
      "Beers" -> "2m8s", "Inpatient" -> "26m48s", "Facilities" -> "30m10s"),
    "BClean" -> Map("Hospital" -> "25s", "Flights" -> "17s", "Soccer" -> "10h48m",
      "Beers" -> "1m40s", "Inpatient" -> "7h41m", "Facilities" -> ">=72h"),
    "BClean_PI" -> Map("Hospital" -> "22s", "Flights" -> "12s", "Soccer" -> "30m42s",
      "Beers" -> "31s", "Inpatient" -> "7m57s", "Facilities" -> "17m16s"),
    "BClean_PIP" -> Map("Hospital" -> "22s", "Flights" -> "12s", "Soccer" -> "27m46s",
      "Beers" -> "30s", "Inpatient" -> "7m2s", "Facilities" -> "14m35s"),
  )
  private val Paper7User = Map(
    "PClean" -> ">=72h", "HoloClean" -> "12-15h", "Raha+Baran" -> "30m",
    "Garf" -> "0", "BClean" -> "2-5h", "BClean_PI" -> "2-5h", "BClean_PIP" -> "2-5h")

  // Paper Tables 8-10 (Hospital): (parameter, grid, header, (λ, β, τ) at each grid value).
  private val Sweeps: Seq[(String, Seq[Double], String, Double => (Double, Double, Double))] = Seq(
    ("lambda", Seq(0.0, 1.0, 2.0, 5.0, 10.0, 15.0),
      "Table 8: varying lambda (beta=2, tau=0.5); paper F1=0.98096 for all", v => (v, 2.0, 0.5)),
    ("beta", Seq(0.0, 1.0, 2.0, 10.0, 50.0),
      "Table 9: varying beta (lambda=1, tau=0.5); paper F1=0.97996-0.98096", v => (1.0, v, 0.5)),
    ("tau", Seq(0.1, 0.3, 0.5, 0.7, 0.9),
      "Table 10: varying tau (lambda=1, beta=2); paper F1=0.97996-0.98096", v => (1.0, 2.0, v)),
  )

  private def prf3(p: Double, r: Double, f: Double): String = f"$p%.3f/$r%.3f/$f%.3f"

  /** Tables 2 and 3: statistics of `dss` (rows, columns, cells, measured
    * noise rate, error types, #UCs) next to the paper's, then each
    * dataset's user constraints.
    */
  def table2(dss: Seq[CleaningDataset]): Table[DatasetStats] = {
    val sb = new StringBuilder
    sb.append("== Table 2: dataset statistics ==\n")
    sb.append(f"${"dataset"}%-11s ${"paper(r,c,cells,noise,types,UCs)"}%-42s measured\n")
    val rows = dss.map { ds =>
      val n = ds.dirty.count()
      val cols = ds.attrs.length
      val types = ds.mask.select("errType").distinct().collect().map(_.getString(0)).sorted.mkString(",")
      val s = DatasetStats(ds.name, n, cols, n * cols, ds.mask.count().toDouble / (n * cols),
        types, ds.ucs.count)
      val (pr, pc, pcells, pnoise, ptypes, pucs) = Paper2(ds.name)
      val paperCell = s"($pr, $pc, $pcells, $pnoise, $ptypes, $pucs)"
      sb.append(f"${s.name}%-11s $paperCell%-42s " +
        f"(${s.rows}, ${s.cols}, ${s.cells}, ${s.noise * 100}%.1f%%, ${s.types}, ${s.ucs})\n")
      s
    }
    sb.append("\n== Table 3: user constraints ==\n")
    dss.foreach { ds =>
      val pats = ds.ucs.byAttr.toSeq.sortBy(_._1).flatMap { case (a, uc) =>
        def pat(u: UserConstraint): Seq[String] = u match {
          case UserConstraint.All(cs)       => cs.flatMap(pat)
          case UserConstraint.Pattern(r)    => Seq(s"$r[$a]")
          case UserConstraint.Range(lo, hi) => Seq(s"[$lo,$hi][$a]")
          case _                            => Nil
        }
        pat(uc)
      }
      val desc = if (pats.isEmpty) "max/min length + not-null on all attributes (N/A patterns)"
      else pats.mkString("; ") + " + length/not-null on all attributes"
      sb.append(f"${ds.name}%-11s $desc\n")
    }
    Table(sb.toString, rows)
  }

  /** Table 4: P/R/F1 of every method on every dataset. */
  def table4(spark: SparkSession): Table[Harness.RunResult] = {
    val sb = new StringBuilder
    sb.append("== Table 4: precision / recall / F1 (paper -> measured) ==\n")
    val rows = Harness.Methods.flatMap { method =>
      sb.append(s"-- $method --\n")
      Harness.datasets(spark).map { ds =>
        val r = Harness.run(spark, ds, method)
        val p = Paper4(method)(ds.name).map((prf3 _).tupled).getOrElse("   -  (OOM/OOT)  ")
        sb.append(f"${ds.name}%-11s paper=$p%-22s " +
          f"measured=${prf3(r.prf.precision, r.prf.recall, r.prf.f1)}\n")
        r
      }
    }
    Table(sb.toString, rows)
  }

  /** Table 5: the sampled-Soccer comparison, keyed by the paper's labels.
    * The paper samples 50k of 200k rows because HoloClean runs out of memory
    * on the full set; here the sample is a quarter of the scaled Soccer.
    */
  def table5(spark: SparkSession): Table[(String, Metrics.Prf)] = {
    val full = Harness.dataset(spark, "Soccer")
    val sampleRows = math.max(500L, Harness.soccerRows / 4)
    val keep = col("_tid") < sampleRows
    val ds = full.copy(name = "Soccer-sample", clean = full.clean.where(keep).cache(),
      dirty = full.dirty.where(keep).cache(), mask = full.mask.where(keep).cache())
    val sb = new StringBuilder
    sb.append(s"== Table 5: sampled Soccer ($sampleRows of ${Harness.soccerRows} rows) ==\n")
    val rows = Paper5.map { case (label, method, (pp, pr, pf)) =>
      val prf = Harness.run(spark, ds, method).prf
      sb.append(f"$label%-11s paper=${prf3(pp, pr, pf)}  " +
        f"measured=${prf3(prf.precision, prf.recall, prf.f1)}\n")
      label -> prf
    }
    Table(sb.toString, rows)
  }

  /** Table 6: recall per injected error type on Soccer, Inpatient and
    * Facilities, for BClean_PI and the three comparators that repair.
    */
  def table6(spark: SparkSession): Table[(String, String, Map[String, Double])] = {
    val sb = new StringBuilder
    sb.append("== Table 6: recall per error type (paper T/M/I -> measured T/M/I/S) ==\n")
    val rows = for {
      dsName <- Seq("Soccer", "Inpatient", "Facilities")
      method <- Seq("BClean_PI", "PClean", "HoloClean", "Raha+Baran")
    } yield {
      val ds = Harness.dataset(spark, dsName)
      val run = Harness.run(spark, ds, method)
      val rec = Metrics.recallByType(ds.dirty, run.cleaned, ds.clean, ds.attrs, ds.mask)
      val (pt, pm, pi) = Paper6(method)(dsName)
      def r(t: String) = rec.get(t).fold("-")(v => f"$v%.3f") // "-": no error of type t injected
      sb.append(f"$dsName%-11s $method%-11s paper T/M/I=${prf3(pt, pm, pi)}  " +
        s"measured T/M/I/S=${r("T")}/${r("M")}/${r("I")}/${r("S")}\n")
      (dsName, method, rec)
    }
    Table(sb.toString, rows)
  }

  /** Table 7: execution time of every method but BClean-UC, on the runs
    * Table 4 used. User time is carried from the paper (no humans here).
    */
  def table7(spark: SparkSession): Table[Harness.RunResult] = {
    val sb = new StringBuilder
    sb.append("== Table 7: runtime (user time from paper; exec paper -> measured) ==\n")
    val methods = Seq("PClean", "HoloClean", "Raha+Baran", "Garf", "BClean", "BClean_PI", "BClean_PIP")
    val rows = methods.flatMap { m =>
      sb.append(f"-- $m (user: ${Paper7User(m)}) --\n")
      Harness.datasets(spark).map { ds =>
        val r = Harness.run(spark, ds, m)
        sb.append(f"${ds.name}%-11s paper=${Paper7Exec(m).getOrElse(ds.name, "?")}%-8s " +
          f"measured=${Harness.fmtMillis(r.millis)}\n")
        r
      }
    }
    Table(sb.toString, rows)
  }

  /** Tables 8-10: BClean_PI's F1 on Hospital over the λ, β and τ grids,
    * as rows (parameter, value, F1).
    */
  def tables8to10(spark: SparkSession): Table[(String, Double, Double)] = {
    val ds = Harness.dataset(spark, "Hospital")
    val sb = new StringBuilder
    val rows = Sweeps.flatMap { case (name, grid, header, params) =>
      sb.append(s"== $header ==\n")
      grid.map { v =>
        val (lambda, beta, tau) = params(v)
        val cleaned = Harness.bclean(ds, BClean.Config(score = CompensatoryScore.Params(lambda, beta, tau)))
        val f1 = Metrics.evaluate(ds.dirty, cleaned, ds.clean, ds.attrs).f1
        sb.append(f"$name=$v%-5s F1=$f1%.5f\n")
        (name, v, f1)
      }
    }
    Table(sb.toString, rows)
  }

  /** Every table by the name of its results file, in paper order. */
  val All: Seq[(String, SparkSession => Table[Any])] = Seq(
    "table2" -> (spark => table2(Harness.datasets(spark))),
    "table4" -> table4,
    "table5" -> table5,
    "table6" -> table6,
    "table7" -> table7,
    "table8to10" -> tables8to10,
  )
}
