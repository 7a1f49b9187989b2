package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint printing the Section 7 tables, exactly as the
  * bench suites record them. Arguments name the tables to print (`table2`,
  * `table4`, `table5`, `table6`, `table7`, `table8to10`); none prints all.
  */
object RunTables {
  def main(args: Array[String]): Unit = {
    val tables = Tables.All.toMap
    val unknown = args.filterNot(tables.contains)
    require(unknown.isEmpty,
      s"unknown table ${unknown.mkString(", ")}; expected any of ${Tables.All.map(_._1).mkString(", ")}")
    val spark = SparkSession.builder().appName("bclean-tables").getOrCreate()
    val names = if (args.nonEmpty) args.toSeq else Tables.All.map(_._1)
    names.foreach(name => println(tables(name)(spark).text))
    spark.stop()
  }
}
