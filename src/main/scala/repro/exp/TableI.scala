package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._

import repro.data.{ChemblLite, OpenDataLite, TableRepo, WdcLite}
import repro.discovery.DiscoveryIndexBuilder

/** Table I: characteristics of the (synthetic stand-in) datasets —
  * #tables, #columns, #joinable column pairs at containment ≥ 0.8, total
  * #rows, and size in bytes of the cell data. The joinable pairs are those
  * of the built discovery index; rows and bytes are DataFrame aggregates.
  */
object TableI {

  final case class DatasetStats(name: String, tables: Int, columns: Int,
                                joinablePairs: Long, rows: Long, sizeBytes: Long) {
    def row: Seq[String] =
      Seq(name, tables.toString, columns.toString, joinablePairs.toString,
        rows.toString, f"${sizeBytes / 1024.0}%.1f KB")
  }

  def stats(spark: SparkSession, repo: TableRepo, threshold: Double = 0.8): DatasetStats = {
    val joinable = DiscoveryIndexBuilder.build(spark, repo, threshold).containment.size
    val (rows, bytes) = repo.tables.values.map { df =>
      val agg = df.select(
        count(lit(1)).as("n"),
        coalesce(sum(df.columns.map(c => length(col(c).cast("string"))).reduce(_ + _)), lit(0L)).as("b"),
      ).collect()(0)
      (agg.getLong(0), agg.getLong(1))
    }.foldLeft((0L, 0L)) { case ((r1, b1), (r2, b2)) => (r1 + r2, b1 + b2) }
    DatasetStats(repo.name, repo.tables.size,
      repo.tables.values.map(_.columns.length).sum, joinable, rows, bytes)
  }

  def run(spark: SparkSession): Vector[DatasetStats] = Vector(
    stats(spark, ChemblLite(spark)),
    stats(spark, WdcLite(spark)),
    stats(spark, OpenDataLite(spark)),
  )

  def render(rows: Seq[DatasetStats]): String =
    Fmt.table("Table I: Characteristics of Datasets (synthetic stand-ins)",
      Seq("Dataset", "#Tables", "#Columns", "#Joinable Pairs", "#Rows", "Size"),
      rows.map(_.row))
}
