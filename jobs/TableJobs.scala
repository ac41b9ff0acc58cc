package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.SparkEnv
import repro.exp._

/** The spark-submit entrypoint for the evaluation tables. Each argument
  * names a table (`I` … `V`); with no argument every table runs, in order.
  * Each table's rows are printed to stdout; EXPERIMENTS.md records
  * paper-vs-ours.
  *
  *   spark-submit --class repro.jobs.TableJobs target/scala-2.13/repro_*.jar [I|II|III|IV|V ...]
  */
object TableJobs {
  private val tables: Vector[(String, SparkSession => String)] = Vector(
    "I"   -> (s => TableI.render(TableI.run(s))),
    "II"  -> (s => TableII.render(TableII.run(s))),
    "III" -> (s => TableIII.render(TableIII.run(s))),
    "IV"  -> (s => TableIV.render(TableIV.run(s))),
    "V"   -> (s => TableV.render(TableV.run(s))),
  )

  def main(args: Array[String]): Unit = {
    val byName = tables.toMap
    val unknown = args.filterNot(byName.contains)
    require(unknown.isEmpty, s"unknown table(s) ${unknown.mkString(", ")}; one of ${tables.map(_._1).mkString(", ")}")
    val spark = SparkEnv.session
    try (if (args.isEmpty) tables.map(_._2) else args.toVector.map(byName)).foreach(run => println(run(spark)))
    finally spark.stop()
  }
}
