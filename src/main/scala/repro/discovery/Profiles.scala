package repro.discovery

import java.util.Locale
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.jdk.CollectionConverters._

import repro.core.ColumnRef
import repro.data.TableRepo

/** Column profiling over a pathless table collection.
  *
  * This is the offline part of the DISCOVERY ENGINE (Challenge 2): the repo
  * is melted on the driver, from the tables it collects once, into distinct
  * normalized `(tbl, col, value)` triples, and all-pairs column overlaps are
  * computed with a Spark self-join on `value` — the Spark equivalent of
  * Aurum profiling a data lake. The resulting aggregates are small
  * (columns², not rows²) and are collected into the online
  * [[DiscoveryIndex]].
  */
object Profiles {

  /** The one value normalization: every comparison of cell values with each
    * other or with example values — SEARCH-KEYWORD, overlap scores and
    * containment — goes through it.
    */
  def normalize(value: String): String = value.toLowerCase(Locale.ROOT)

  /** Each column's distinct normalized non-null values, in
    * `repo.columnRefs` order; a column without values gets an empty vector.
    */
  def melt(repo: TableRepo): Vector[(ColumnRef, Vector[String])] =
    repo.columnRefs.map(c => c -> repo.values(c).map(normalize).distinct)

  /** The melt as one DataFrame of `(tbl, col, value)` triples. */
  def columnValues(spark: SparkSession, repo: TableRepo): DataFrame = frame(spark, melt(repo))

  private[discovery] def frame(spark: SparkSession, melted: Seq[(ColumnRef, Seq[String])]): DataFrame = {
    val schema = StructType(Seq("tbl", "col", "value").map(StructField(_, StringType, nullable = false)))
    val rows = melted.flatMap { case (c, vs) => vs.map(v => Row(c.table, c.column, v)) }
    spark.createDataFrame(rows.asJava, schema)
  }

  /** Per-column distinct-value counts: `(tbl, col, distinct_count)`. */
  def columnStats(cv: DataFrame): DataFrame =
    cv.groupBy("tbl", "col").agg(count(lit(1)).as("distinct_count"))

  /** All-pairs column overlap and Lazo-style maximum directional Jaccard
    * containment `max(|a∩b|/|a|, |a∩b|/|b|)`, one row per unordered pair of
    * columns from *different* tables with overlap ≥ 1:
    * `(tbl1, col1, tbl2, col2, overlap, containment)`.
    */
  def columnPairs(cv: DataFrame): DataFrame = {
    val stats = columnStats(cv)
    val a = cv.select(col("tbl").as("tbl1"), col("col").as("col1"), col("value"))
    val b = cv.select(col("tbl").as("tbl2"), col("col").as("col2"), col("value"))
    val pairs = a.join(b, "value")
      // canonical order keeps one row per unordered pair; same-table pairs
      // are excluded because Ver never self-joins a table.
      .where(col("tbl1") =!= col("tbl2") &&
        concat_ws(".", col("tbl1"), col("col1")) < concat_ws(".", col("tbl2"), col("col2")))
      .groupBy("tbl1", "col1", "tbl2", "col2")
      .agg(count(lit(1)).as("overlap"))
    pairs
      .join(stats.withColumnRenamed("tbl", "tbl1").withColumnRenamed("col", "col1")
        .withColumnRenamed("distinct_count", "d1"), Seq("tbl1", "col1"))
      .join(stats.withColumnRenamed("tbl", "tbl2").withColumnRenamed("col", "col2")
        .withColumnRenamed("distinct_count", "d2"), Seq("tbl2", "col2"))
      .withColumn("containment",
        greatest(col("overlap") / col("d1"), col("overlap") / col("d2")))
      .select("tbl1", "col1", "tbl2", "col2", "overlap", "containment")
  }

  /** Joinable pairs at a containment threshold (Aurum NEIGHBORS edges). */
  def joinablePairs(cv: DataFrame, threshold: Double): DataFrame =
    columnPairs(cv).where(col("containment") >= threshold)
}
