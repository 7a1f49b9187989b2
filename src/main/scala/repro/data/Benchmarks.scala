package repro.data

import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.{UcSet, UserConstraint => UC}

/** A "PClean program" for the PClean-like baseline: attribute groups with a
  * pivot (latent-key) attribute that determines the rest. How faithful the
  * groups are models the paper's observation that PClean's quality hinges on
  * the expert writing a faithful PPL model (good on Flights, poor on
  * Soccer/Beers).
  */
final case class PCleanSpec(groups: Seq[(String, Seq[String])])

/** A benchmark relation: clean ground truth, dirty observation, the injected
  * error mask, user constraints (Table 3), and the FDs handed to the
  * rule-based baselines (mirroring the DCs the paper's authors wrote).
  */
final case class CleaningDataset(
    name: String,
    attrs: Seq[String],
    clean: DataFrame,
    dirty: DataFrame,
    mask: DataFrame,
    ucs: UcSet,
    fds: Seq[(Seq[String], String)],
    pclean: PCleanSpec,
    targetNoise: Double,
    errorTypes: Seq[Char],
) {
  /** The user's light network adjustments (Section 7.3.2): the declared FDs
    * flattened to single-parent edges by attribute index. A composite FD
    * (X1, X2) → Y contributes both X1 → Y and X2 → Y.
    */
  def fdEdges: Seq[(Int, Int)] = {
    val pos = attrs.zipWithIndex.toMap
    fds.flatMap { case (xs, y) => xs.map(x => (pos(x), pos(y))) }.distinct
  }
}

/** Deterministic generators mirroring the six relations of Table 2 (schema
  * shape, cardinalities, FD structure, formats, noise rate). See DESIGN.md.
  */
object Benchmarks {
  import Pools._

  private def schemaOf(attrs: Seq[String]): StructType =
    StructType(StructField("_tid", LongType) +: attrs.map(StructField(_, StringType)))

  /** Distributed deterministic row generator. */
  private def table(spark: SparkSession, n: Long, attrs: Seq[String], seed: Long)(
      gen: (Long, java.util.Random) => Seq[String]): DataFrame = {
    val schema = schemaOf(attrs)
    spark.range(0, n).toDF("_tid").mapPartitions { rows =>
      rows.map { r =>
        val id = r.getLong(0)
        val rng = new java.util.Random(mix(seed, id))
        Row.fromSeq(id +: gen(id, rng))
      }
    }(Encoders.row(schema))
  }

  private def notNullLen(max: Int = 64): UC = UC.All(Seq(UC.NotNull, UC.Length(1, max)))

  private def build(
      name: String,
      attrs: Seq[String],
      clean: DataFrame,
      ucs: UcSet,
      fds: Seq[(Seq[String], String)],
      pclean: PCleanSpec,
      noise: Double,
      types: Seq[Char],
      seed: Long,
      exclude: Set[String] = Set.empty,
  ): CleaningDataset = {
    val cached = clean.cache()
    // Inflate the per-cell rate so the dataset-level noise matches `noise`
    // even when identifier columns are excluded from injection.
    val m = attrs.length
    val rate = if (exclude.isEmpty) noise else math.min(1.0, noise * m / (m - exclude.size))
    val (dirty, mask) = ErrorInjector.inject(cached, attrs, ErrorInjector.Spec(rate, types, seed, exclude))
    CleaningDataset(name, attrs, cached, dirty, mask, ucs, fds, pclean, noise, types)
  }

  // ---------------------------------------------------------------- Hospital
  /** 1000 × 15, ~5% noise, T/M/I. Strong FD structure and heavy duplication,
    * like the CMS hospital benchmark of HoloClean.
    */
  def hospital(spark: SparkSession, rows: Long = 1000, seed: Long = 11): CleaningDataset = {
    val attrs = Seq("ProviderNumber", "HospitalName", "Address", "City", "State", "ZipCode",
      "CountyName", "PhoneNumber", "HospitalType", "HospitalOwner", "EmergencyService",
      "Condition", "MeasureCode", "MeasureName", "StateAvg")
    val nProv = 60; val nMeas = 25
    val providers = (0 until nProv).map { i =>
      val (city, state, county) = Cities(i % Cities.length)
      Seq(
        f"${10001 + i * 731 % 89999}%05d",
        s"${LastNames(i % LastNames.length)} memorial hospital",
        s"${100 + i * 7} ${Streets(i % Streets.length)}",
        city, state, zip(i % Cities.length), county, phone(i),
        HospitalTypes(i % HospitalTypes.length),
        Owners(i % Owners.length),
        if (i % 3 == 0) "no" else "yes",
      )
    }
    val measures = (0 until nMeas).map { j =>
      val cond = Conditions(j % Conditions.length)
      Seq(f"amq-$j%02d", s"$cond measure ${j / Conditions.length + 1}", cond)
    }
    val clean = table(spark, rows, attrs, seed) { (_, rng) =>
      val p = providers(rng.nextInt(nProv))
      val mIdx = rng.nextInt(nMeas)
      val ms = measures(mIdx)
      val stateAvg = s"${p(4)}_${ms(0)}_${60 + (p(4).hashCode.abs + mIdx) % 40}%"
      p ++ Seq(ms(2), ms(0), ms(1), stateAvg)
    }
    val ucs = UcSet(
      attrs.map(_ -> notNullLen()).toMap ++ Map(
        "ProviderNumber" -> UC.All(Seq(UC.NotNull, UC.Pattern("[1-9][0-9]{4}"))),
        "ZipCode" -> UC.All(Seq(UC.NotNull, UC.Pattern("[1-9][0-9]{4}"))),
        "PhoneNumber" -> UC.All(Seq(UC.NotNull, UC.Pattern("[1-9][0-9]{9}"))),
      ))
    val fds = Seq(
      Seq("ZipCode") -> "City", Seq("ZipCode") -> "State",
      Seq("ProviderNumber") -> "HospitalName", Seq("ProviderNumber") -> "Address",
      Seq("ProviderNumber") -> "PhoneNumber", Seq("ProviderNumber") -> "ZipCode",
      Seq("City") -> "CountyName", Seq("MeasureCode") -> "MeasureName",
      Seq("MeasureCode") -> "Condition", Seq("State", "MeasureCode") -> "StateAvg",
    )
    val pc = PCleanSpec(Seq(
      "ProviderNumber" -> Seq("HospitalName", "Address", "City", "State", "ZipCode",
        "CountyName", "PhoneNumber", "HospitalType", "HospitalOwner", "EmergencyService"),
      "MeasureCode" -> Seq("MeasureName", "Condition"),
    ))
    build("Hospital", attrs, clean, ucs, fds, pc, 0.05, Seq('T', 'M', 'I'), seed)
  }

  // ----------------------------------------------------------------- Flights
  /** 2376 × 6, ~30% noise, T/M. Many sources reporting the same flight. */
  def flights(spark: SparkSession, rows: Long = 2376, seed: Long = 13): CleaningDataset = {
    val attrs = Seq("Source", "Flight", "SchedDep", "ActDep", "SchedArr", "ActArr")
    val nFlights = 80
    def time(rng: java.util.Random): String = {
      val h = 1 + rng.nextInt(12)
      val mi = rng.nextInt(60)
      val ap = if (rng.nextBoolean()) "a.m." else "p.m."
      f"$h:$mi%02d $ap"
    }
    val flightRng = new java.util.Random(seed * 77)
    val flightIds = (0 until nFlights).map { i =>
      val c = Carriers(i % Carriers.length)
      val from = Airports(i % Airports.length)
      val to = Airports((i + 3) % Airports.length)
      s"$c-${1000 + i * 17}-$from-$to"
    }
    val flightTimes = (0 until nFlights).map { _ =>
      Seq(time(flightRng), time(flightRng), time(flightRng), time(flightRng))
    }
    val clean = table(spark, rows, attrs, seed) { (id, rng) =>
      val f = (id % nFlights).toInt
      val src = Websites(rng.nextInt(Websites.length))
      src +: flightIds(f) +: flightTimes(f)
    }
    val timePat = UC.All(Seq(UC.NotNull,
      UC.Pattern("""(1[0-2]|[1-9]):[0-5][0-9] [ap]\.m\.""")))
    val ucs = UcSet(attrs.map(_ -> notNullLen()).toMap ++
      Seq("SchedDep", "ActDep", "SchedArr", "ActArr").map(_ -> timePat).toMap)
    val fds = Seq(
      Seq("Flight") -> "SchedDep", Seq("Flight") -> "ActDep",
      Seq("Flight") -> "SchedArr", Seq("Flight") -> "ActArr")
    val pc = PCleanSpec(Seq(
      "Flight" -> Seq("SchedDep", "ActDep", "SchedArr", "ActArr")))
    build("Flights", attrs, clean, ucs, fds, pc, 0.30, Seq('T', 'M'), seed)
  }

  // ------------------------------------------------------------------ Soccer
  /** Paper: 200k × 10, ~1% noise, T/M/I. Row count is configurable (bench
    * default scales down; see DESIGN.md).
    */
  def soccer(spark: SparkSession, rows: Long = 10000, seed: Long = 17): CleaningDataset = {
    val attrs = Seq("Name", "Surname", "BirthYear", "BirthPlace", "Position",
      "Club", "ClubCity", "Stadium", "Season", "Nationality")
    val nClubs = 50
    val nPlayers = math.max(50L, rows / 4).toInt
    val clubs = (0 until nClubs).map { i =>
      val (city, _, _) = Cities(i % Cities.length)
      Seq(s"${BeerAdjectives(i % BeerAdjectives.length)} ${city} fc", city,
        s"${city} ${Streets(i % Streets.length).split(' ')(0)} stadium")
    }
    val playerRng = new java.util.Random(seed * 31)
    val players = (0 until nPlayers).map { i =>
      val nat = Nations(playerRng.nextInt(Nations.length))
      // Injective double-barrel surname per player entity so the FDs
      // (Name, Surname) → BirthYear/BirthPlace/Nationality hold in clean data.
      val surname = LastNames(i % LastNames.length) + "-" +
        LastNames(i / LastNames.length % LastNames.length) +
        (if (i >= LastNames.length * LastNames.length) s" ${i / (LastNames.length * LastNames.length)}" else "")
      Seq(
        FirstNames(playerRng.nextInt(FirstNames.length)),
        surname,
        (1960 + playerRng.nextInt(40)).toString,
        Cities(playerRng.nextInt(Cities.length))._1,
        Positions(playerRng.nextInt(Positions.length)),
        nat,
        playerRng.nextInt(nClubs).toString,
      )
    }
    val clean = table(spark, rows, attrs, seed) { (_, rng) =>
      val p = players(rng.nextInt(nPlayers))
      val club = clubs(p(6).toInt)
      Seq(p(0), p(1), p(2), p(3), p(4), club(0), club(1), club(2),
        (2000 + rng.nextInt(21)).toString, p(5))
    }
    val ucs = UcSet(attrs.map(_ -> notNullLen()).toMap ++ Map(
      "BirthYear" -> UC.All(Seq(UC.NotNull, UC.Pattern("19[6-9][0-9]"))),
      "Season" -> UC.All(Seq(UC.NotNull, UC.Pattern("20[0-2][0-9]"))),
    ))
    val fds = Seq(
      Seq("Club") -> "ClubCity", Seq("Club") -> "Stadium",
      Seq("Name", "Surname") -> "BirthYear", Seq("Name", "Surname") -> "Nationality",
      Seq("Name", "Surname") -> "BirthPlace")
    // The paper reports experts could not specify a faithful PClean model for
    // Soccer — modeled as a mis-specified pivot (Name alone does not determine
    // the profile attributes).
    val pc = PCleanSpec(Seq(
      "Name" -> Seq("Surname", "BirthYear", "BirthPlace", "Nationality"),
      "ClubCity" -> Seq("Club", "Stadium")))
    build("Soccer", attrs, clean, ucs, fds, pc, 0.01, Seq('T', 'M', 'I'), seed)
  }

  // ------------------------------------------------------------------- Beers
  /** 2410 × 11, ~13% noise, T/M/I; two numeric attributes (ounces, abv). */
  def beers(spark: SparkSession, rows: Long = 2410, seed: Long = 19): CleaningDataset = {
    val attrs = Seq("Id", "BeerName", "Style", "Ounces", "Abv", "Ibu",
      "BreweryId", "BreweryName", "City", "State", "Country")
    val nBrew = 120
    val breweries = (0 until nBrew).map { i =>
      val (city, state, _) = Cities(i % Cities.length)
      Seq((1000 + i).toString,
        s"${BeerAdjectives(i % BeerAdjectives.length)} ${BeerNouns(i / BeerAdjectives.length % BeerNouns.length)} brewing",
        city, state, "us")
    }
    val ounces = IndexedSeq("12.0", "16.0", "8.4", "19.2", "24.0")
    val clean = table(spark, rows, attrs, seed) { (id, rng) =>
      val b = breweries(rng.nextInt(nBrew))
      val abv = f"${0.03 + rng.nextInt(90) / 1000.0}%.3f"
      val ibu = (5 + rng.nextInt(95)).toString
      Seq((2500 - id).toString,
        s"${BeerAdjectives(rng.nextInt(BeerAdjectives.length))} ${BeerNouns(rng.nextInt(BeerNouns.length))} ${rng.nextInt(100)}",
        BeerStyles(rng.nextInt(BeerStyles.length)),
        ounces(rng.nextInt(ounces.length)), abv, ibu) ++ b
    }
    val numPat = UC.All(Seq(UC.NotNull, UC.Pattern("""\d+\.\d+"""), UC.Range(0.0, 100.0)))
    val ucs = UcSet(attrs.map(_ -> notNullLen()).toMap ++ Map(
      "Ounces" -> numPat, "Abv" -> numPat,
      "Ibu" -> UC.All(Seq(UC.NotNull, UC.Pattern("""\d+"""))),
    ))
    val fds = Seq(
      Seq("BreweryId") -> "BreweryName", Seq("BreweryId") -> "City",
      Seq("BreweryId") -> "State", Seq("BreweryId") -> "Country")
    val pc = PCleanSpec(Seq(
      "BeerName" -> Seq("Style", "Ounces", "Abv"),
      "City" -> Seq("BreweryId", "BreweryName", "State")))
    // The public dirty Beers benchmark leaves the identifier columns intact;
    // errors live in the descriptive/numeric attributes (DESIGN.md § Substitutions).
    build("Beers", attrs, clean, ucs, fds, pc, 0.13, Seq('T', 'M', 'I'), seed,
      exclude = Set("Id", "BeerName"))
  }

  // --------------------------------------------------------------- Inpatient
  /** 4017 × 11, ~10% noise, T/M/I/S (CMS inpatient charges shape). */
  def inpatient(spark: SparkSession, rows: Long = 4017, seed: Long = 23): CleaningDataset = {
    val attrs = Seq("ProviderId", "Name", "Address", "City", "State", "ZipCode",
      "County", "DrgCode", "DrgDefinition", "Discharges", "AvgCharges")
    val nProv = 150; val nDrg = 60
    val providers = (0 until nProv).map { i =>
      val (city, state, county) = Cities(i % Cities.length)
      Seq(f"${50001 + i * 389 % 49999}%05d",
        s"${LastNames(i % LastNames.length)} regional medical center",
        s"${200 + i * 3} ${Streets(i % Streets.length)}",
        city, state, zip(i % Cities.length), county)
    }
    val drgs = (0 until nDrg).map { j =>
      Seq((100 + j).toString,
        s"${Conditions(j % Conditions.length)} w cc mcc level ${j / Conditions.length}")
    }
    val clean = table(spark, rows, attrs, seed) { (_, rng) =>
      val p = providers(rng.nextInt(nProv))
      val d = drgs(rng.nextInt(nDrg))
      p ++ d ++ Seq((10 + rng.nextInt(190)).toString, (5000 + rng.nextInt(95000)).toString)
    }
    val ucs = UcSet(attrs.map(_ -> notNullLen()).toMap)
    val fds = Seq(
      Seq("ProviderId") -> "Name", Seq("ProviderId") -> "Address",
      Seq("ProviderId") -> "City", Seq("ProviderId") -> "State",
      Seq("ProviderId") -> "ZipCode", Seq("ZipCode") -> "City",
      Seq("ZipCode") -> "State", Seq("DrgCode") -> "DrgDefinition")
    val pc = PCleanSpec(Seq(
      "Name" -> Seq("ProviderId", "Address", "City", "State", "ZipCode", "County"),
      "DrgDefinition" -> Seq("DrgCode")))
    build("Inpatient", attrs, clean, ucs, fds, pc, 0.10, Seq('T', 'M', 'I', 'S'), seed)
  }

  // -------------------------------------------------------------- Facilities
  /** 7992 × 11, ~5% noise, T/M/I/S (CMS medical-facility shape). */
  def facilities(spark: SparkSession, rows: Long = 7992, seed: Long = 29): CleaningDataset = {
    val attrs = Seq("CertNumber", "FacilityName", "Address", "City", "State",
      "ZipCode", "County", "Phone", "FacilityType", "Ownership", "Beds")
    val nFac = 400
    val facs = (0 until nFac).map { i =>
      val (city, state, county) = Cities(i % Cities.length)
      Seq(f"${100001 + i * 211 % 899999}%06d",
        s"${FirstNames(i % FirstNames.length)} ${BeerNouns(i % BeerNouns.length)} care center",
        s"${300 + i * 11 % 9000} ${Streets(i % Streets.length)}",
        city, state, zip(i % Cities.length), county, phone(i + 5000),
        FacilityTypes(i % FacilityTypes.length),
        Owners(i % Owners.length))
    }
    val clean = table(spark, rows, attrs, seed) { (_, rng) =>
      val f = facs(rng.nextInt(nFac))
      f :+ (10 + rng.nextInt(490)).toString
    }
    val ucs = UcSet(attrs.map(_ -> notNullLen()).toMap)
    val fds = Seq(
      Seq("CertNumber") -> "FacilityName", Seq("CertNumber") -> "Address",
      Seq("CertNumber") -> "Phone", Seq("ZipCode") -> "City",
      Seq("ZipCode") -> "State", Seq("City") -> "County")
    val pc = PCleanSpec(Seq(
      "FacilityName" -> Seq("CertNumber", "Address", "City", "State", "ZipCode",
        "County", "Phone", "FacilityType", "Ownership")))
    build("Facilities", attrs, clean, ucs, fds, pc, 0.05, Seq('T', 'M', 'I', 'S'), seed)
  }

  /** All six, with Soccer scaled by `soccerRows` (env-overridable in bench). */
  def all(spark: SparkSession, soccerRows: Long = 10000): Seq[CleaningDataset] = Seq(
    hospital(spark), flights(spark), soccer(spark, soccerRows),
    beers(spark), inpatient(spark), facilities(spark))
}
