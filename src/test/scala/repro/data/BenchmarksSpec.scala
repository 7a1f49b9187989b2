package repro.data

import repro.SparkSpec
import repro.core.Values

class BenchmarksSpec extends SparkSpec {

  // Small instances — shapes and invariants only.
  private lazy val hospital = Benchmarks.hospital(spark, rows = 200)
  private lazy val flights = Benchmarks.flights(spark, rows = 300)
  private lazy val soccer = Benchmarks.soccer(spark, rows = 400)
  private lazy val beers = Benchmarks.beers(spark, rows = 200)
  private lazy val inpatient = Benchmarks.inpatient(spark, rows = 200)
  private lazy val facilities = Benchmarks.facilities(spark, rows = 200)
  private lazy val all = Seq(hospital, flights, soccer, beers, inpatient, facilities)

  test("attribute counts match Table 2") {
    assert(hospital.attrs.length == 15)
    assert(flights.attrs.length == 6)
    assert(soccer.attrs.length == 10)
    assert(beers.attrs.length == 11)
    assert(inpatient.attrs.length == 11)
    assert(facilities.attrs.length == 11)
  }

  test("UC counts match Table 2") {
    assert(hospital.ucs.count == 15)
    assert(flights.ucs.count == 6)
    assert(soccer.ucs.count == 10)
    assert(beers.ucs.count == 11)
    assert(inpatient.ucs.count == 11)
    assert(facilities.ucs.count == 11)
  }

  test("clean and dirty have identical schema and row count") {
    all.foreach { ds =>
      assert(ds.clean.schema == ds.dirty.schema, ds.name)
      assert(ds.clean.count() == ds.dirty.count(), ds.name)
    }
  }

  test("clean data satisfies its own UCs") {
    all.foreach { ds =>
      val attrs = ds.attrs
      ds.clean.collect().foreach { r =>
        attrs.zipWithIndex.foreach { case (a, i) =>
          val v = Values.norm(r.getString(i + 1))
          assert(ds.ucs.check(a, v) == 1, s"${ds.name}.$a = '$v' violates UC")
        }
      }
    }
  }

  test("clean data satisfies the declared FDs") {
    all.foreach { ds =>
      val rows = ds.clean.collect().map(r => ds.attrs.indices.map(i => Values.norm(r.getString(i + 1))))
      val pos = ds.attrs.zipWithIndex.toMap
      ds.fds.foreach { case (xs, y) =>
        val seen = scala.collection.mutable.Map.empty[Seq[String], String]
        rows.foreach { t =>
          val key = xs.map(x => t(pos(x)))
          val v = t(pos(y))
          seen.get(key) match {
            case Some(prev) => assert(prev == v, s"${ds.name}: FD $xs->$y violated at $key")
            case None       => seen(key) = v
          }
        }
      }
    }
  }

  test("realized noise rates are in the neighborhood of Table 2") {
    all.foreach { ds =>
      val cells = ds.clean.count().toDouble * ds.attrs.length
      val rate = ds.mask.count() / cells
      assert(rate > ds.targetNoise * 0.5 && rate < ds.targetNoise * 1.5,
        s"${ds.name}: rate=$rate target=${ds.targetNoise}")
    }
  }

  test("mask error types match the dataset's declared mix") {
    all.foreach { ds =>
      val types = ds.mask.select("errType").distinct().collect().map(_.getString(0)).toSet
      assert(types.subsetOf(ds.errorTypes.map(_.toString).toSet), ds.name)
    }
  }

  test("generators are deterministic") {
    val a = Benchmarks.hospital(spark, rows = 100).clean.collect().map(_.toString).sorted
    val b = Benchmarks.hospital(spark, rows = 100).clean.collect().map(_.toString).sorted
    assert(a.sameElements(b))
  }

  test("dirty relation and mask do not depend on the shuffle-partition count") {
    def generate(partitions: Int): Seq[Seq[String]] = {
      val key = "spark.sql.shuffle.partitions"
      val saved = spark.conf.get(key)
      spark.conf.set(key, partitions.toString)
      try Seq(Benchmarks.hospital(spark), Benchmarks.beers(spark)).flatMap { ds =>
        Seq(ds.dirty, ds.mask).map(_.collect().map(_.toString).sorted.toSeq)
      } finally spark.conf.set(key, saved)
    }
    assert(generate(1) == generate(8))
  }

  test("flights time formats match the paper's pattern") {
    val pat = """(1[0-2]|[1-9]):[0-5][0-9] [ap]\.m\.""".r
    flights.clean.select("SchedDep").collect().foreach { r =>
      assert(pat.matches(r.getString(0)), r.getString(0))
    }
  }

  test("hospital zips and phones match their UC patterns") {
    hospital.clean.select("ZipCode", "PhoneNumber").collect().foreach { r =>
      assert(r.getString(0).matches("[1-9][0-9]{4}"), r.getString(0))
      assert(r.getString(1).matches("[1-9][0-9]{9}"), r.getString(1))
    }
  }

  test("soccer rows scale with the parameter") {
    assert(Benchmarks.soccer(spark, rows = 123).clean.count() == 123)
  }

  test("pclean specs reference existing attributes") {
    all.foreach { ds =>
      ds.pclean.groups.foreach { case (p, det) =>
        assert(ds.attrs.contains(p), s"${ds.name}: pivot $p")
        det.foreach(d => assert(ds.attrs.contains(d), s"${ds.name}: $d"))
      }
    }
  }

  test("fds reference existing attributes") {
    all.foreach { ds =>
      ds.fds.foreach { case (xs, y) =>
        (xs :+ y).foreach(a => assert(ds.attrs.contains(a), s"${ds.name}: $a"))
      }
    }
  }
}
