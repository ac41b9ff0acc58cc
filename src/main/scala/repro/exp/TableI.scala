package repro.exp

import org.apache.spark.sql.SparkSession

import repro.data.{ChemblLite, OpenDataLite, TableRepo, WdcLite}
import repro.discovery.DiscoveryIndexBuilder

/** Table I: characteristics of the (synthetic stand-in) datasets —
  * #tables, #columns, #joinable column pairs at containment ≥ 0.8, total
  * #rows, and size in bytes of the cell data. The joinable pairs are those
  * of the built discovery index; rows and sizes are counted from the repo's
  * rows, a cell's size being its code-point count (a null cell's is 0).
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
    val cells = repo.data.iterator.flatMap(_.rows).flatten.filter(_ != null)
    DatasetStats(repo.name, repo.data.size, repo.columnRefs.size, joinable,
      repo.data.map(_.rows.size.toLong).sum, cells.map(c => c.codePointCount(0, c.length).toLong).sum)
  }

  def run(spark: SparkSession): Vector[DatasetStats] = Vector(
    stats(spark, ChemblLite(spark)),
    stats(spark, WdcLite()),
    stats(spark, OpenDataLite()),
  )

  def render(rows: Seq[DatasetStats]): String =
    Fmt.table("Table I: Characteristics of Datasets (synthetic stand-ins)",
      Seq("Dataset", "#Tables", "#Columns", "#Joinable Pairs", "#Rows", "Size"),
      rows.map(_.row))
}
