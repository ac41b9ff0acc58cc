package repro.discovery

import java.util.Locale
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.core.ColumnRef
import repro.data.TableRepo

/** Column profiling over a pathless table collection.
  *
  * This is the offline part of the DISCOVERY ENGINE (Challenge 2): the repo
  * is melted on the driver, from its rows, into each column's distinct
  * normalized values, and [[containment]] counts the all-pairs column
  * overlaps from the value → columns posting lists ([[postings]]), the
  * exact overlap counting JOSIE does over posting lists. The result is small
  * (columns², not rows²) and goes into the online [[DiscoveryIndex]].
  *
  * [[columnValues]], [[columnStats]], [[columnPairs]] and [[joinablePairs]]
  * are the Spark self-join on `value` that counted the pairs before; they
  * stay as the reference the tests compare [[containment]] with, and no
  * index build calls them.
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

  /** The value → columns map the pair count and the index share: each
    * normalized value's posting list, sorted by `(table, column)`; read only.
    */
  def postings(melted: Iterable[(ColumnRef, Iterable[String])]): collection.Map[String, Vector[ColumnRef]] = {
    val lists = mutable.HashMap.empty[String, Vector[ColumnRef]]
    for ((c, vs) <- melted.toVector.sortBy { case (c, _) => (c.table, c.column) }; v <- vs)
      lists(v) = lists.getOrElse(v, Vector.empty) :+ c
    lists
  }

  /** The one pair count: the containment score
    * `max(|a∩b|/|a|, |a∩b|/|b|)` of every pair of columns from different
    * tables that share a value and score at least `threshold`, keyed with
    * `a.toString < b.toString` (the order [[columnPairs]] keeps).
    *
    * It walks each column's values and, for each value, the columns in the
    * value's posting list ([[postings]]), tallying shared values in one
    * counter per column: O(columns) scratch memory and at most Σ|P(v)|²
    * increments, the rows the self-join on `value` would produce.
    */
  def containment(postings: collection.Map[String, Vector[ColumnRef]],
                  threshold: Double): Map[(ColumnRef, ColumnRef), Double] = {
    // Column ids in first-seen order, and each value's posting list as ids.
    val id = mutable.HashMap.empty[ColumnRef, Int]
    val idLists = postings.valuesIterator.map(_.iterator.map(c => id.getOrElseUpdate(c, id.size)).toArray).toVector
    val n = id.size
    val cols = new Array[ColumnRef](n)
    for ((c, i) <- id) cols(i) = c
    // Canonical order as ranks: columns whose keys are equal share a rank,
    // so neither orders before the other and they never pair.
    val keys = cols.map(_.toString)
    val rankOf = keys.distinct.sorted.zipWithIndex.toMap
    val rank = keys.map(rankOf)
    val tableOf = cols.map(_.table).distinct.zipWithIndex.toMap
    val table = cols.map(c => tableOf(c.table))
    // Distinct counts, and each column's posting lists that name another column.
    val size = new Array[Int](n)
    val builders = Array.fill(n)(Array.newBuilder[Array[Int]])
    for (p <- idLists; i <- p) { size(i) += 1; if (p.length > 1) builders(i) += p }
    val lists = builders.map(_.result())

    val overlap = new Array[Int](n)
    val touched = new Array[Int](n)
    val out = Map.newBuilder[(ColumnRef, ColumnRef), Double]
    for (i <- 0 until n) {
      var nTouched = 0
      // The Σ|P(v)|² loop, written with indices because it is the hot path.
      var x = 0
      while (x < lists(i).length) {
        val p = lists(i)(x)
        var y = 0
        while (y < p.length) {
          val j = p(y)
          if (rank(j) > rank(i) && table(j) != table(i)) {
            if (overlap(j) == 0) { touched(nTouched) = j; nTouched += 1 }
            overlap(j) += 1
          }
          y += 1
        }
        x += 1
      }
      for (k <- 0 until nTouched) {
        val j = touched(k)
        val ov = overlap(j).toDouble
        overlap(j) = 0
        val score = math.max(ov / size(i), ov / size(j))
        if (score >= threshold) out += (cols(i), cols(j)) -> score
      }
    }
    out.result()
  }

  /** Reference: the melt as one DataFrame of `(tbl, col, value)` triples. */
  def columnValues(spark: SparkSession, repo: TableRepo): DataFrame = {
    val schema = StructType(Seq("tbl", "col", "value").map(StructField(_, StringType, nullable = false)))
    val rows = melt(repo).flatMap { case (c, vs) => vs.map(v => Row(c.table, c.column, v)) }
    spark.createDataFrame(rows.asJava, schema)
  }

  /** Reference: per-column distinct-value counts, `(tbl, col, distinct_count)`. */
  def columnStats(cv: DataFrame): DataFrame =
    cv.groupBy("tbl", "col").agg(count(lit(1)).as("distinct_count"))

  /** Reference for [[containment]]: all-pairs column overlap and Lazo-style maximum directional Jaccard
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

  /** Reference for [[containment]]: joinable pairs at a containment
    * threshold (Aurum NEIGHBORS edges).
    */
  def joinablePairs(cv: DataFrame, threshold: Double): DataFrame =
    columnPairs(cv).where(col("containment") >= threshold)
}
