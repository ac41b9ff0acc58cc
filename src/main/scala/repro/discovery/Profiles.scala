package repro.discovery

import java.util.{Arrays, Locale}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import repro.core.ColumnRef
import repro.data.TableRepo

/** Column profiling over a pathless table collection.
  *
  * This is the offline part of the DISCOVERY ENGINE (Challenge 2): one pass over the
  * repo's rows ([[profile]]) gives each normalized value's posting list of column ids, and
  * [[containment]] counts the all-pairs column overlaps from those lists, the exact overlap
  * counting JOSIE does over posting lists. The result is small (columns², not rows²) and
  * goes into the online [[DiscoveryIndex]].
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

  /** The pass's output: columns in [[ColumnRef.ordering]] (id = position), each value's ascending ids, distinct counts. */
  final case class Profile(columns: Vector[ColumnRef], postings: collection.Map[String, Array[Int]],
                           distinctCounts: Array[Int])

  def profile(repo: TableRepo): Profile =
    profile(repo.data.flatMap(t => t.columns.indices.map(i => ColumnRef(t.name, t.columns(i)) -> t.rows.view.map(_(i)))))

  /** The one profiling pass. It visits columns in [[ColumnRef.ordering]] and appends a column's id to a non-null
    * cell's value list unless the list ends with it: lists stay ascending and count each value once.
    */
  def profile(cells: Iterable[(ColumnRef, Iterable[String])]): Profile = {
    val sorted = cells.toVector.sortBy(_._1)
    val lists = mutable.HashMap.empty[String, Array[Int]] // unboxed, doubling; slot 0 = length until trimmed
    val counts = new Array[Int](sorted.size)
    for (((_, vs), id) <- sorted.zipWithIndex; cell <- vs if cell != null) {
      val v = normalize(cell)
      val l = lists.getOrElseUpdate(v, new Array[Int](4))
      val n = l(0)
      if (n == 0 || l(n) != id) {
        val m = if (n + 1 < l.length) l else { val g = Arrays.copyOf(l, 2 * l.length); lists(v) = g; g }
        m(n + 1) = id; m(0) = n + 1; counts(id) += 1
      }
    }
    Profile(sorted.map(_._1), lists.mapValuesInPlace((_, l) => Arrays.copyOfRange(l, 1, l(0) + 1)), counts)
  }

  /** The joinable column pairs as one symmetric adjacency over column ids: column `i`'s neighbours are `nbrs(k)` for
    * `k` from `offsets(i)` until `offsets(i + 1)`, ascending, each with its pair's score at `scores(k)`.
    */
  final class Adjacency(val offsets: Array[Int], val nbrs: Array[Int], val scores: Array[Double])

  /** The one pair count: the containment score
    * `max(|a∩b|/|a|, |a∩b|/|b|)` of every pair of columns from different
    * tables that share a value and score at least `threshold`, as the
    * [[Adjacency]] over the profile's column ids.
    *
    * It walks each column's values and, for each value, the columns in the
    * value's posting list, tallying shared values in one counter per
    * column: O(columns) scratch memory and at most Σ|P(v)|² increments, the
    * rows the self-join on `value` would produce.
    */
  def containment(profile: Profile, threshold: Double): Adjacency = {
    val cols = profile.columns
    val n = cols.size
    // Each column's posting lists that name another column.
    val builders = Array.fill(n)(Array.newBuilder[Array[Int]])
    for (p <- profile.postings.valuesIterator if p.length > 1; i <- p) builders(i) += p
    val lists = builders.map(_.result())

    val overlap = new Array[Int](n)
    val touched = new Array[Int](n)
    val offsets = new Array[Int](n + 1)
    val (nbrs, scores) = (Array.newBuilder[Int], Array.newBuilder[Double])
    var start, end = 0 // column i's table's ids, which are consecutive
    for (i <- 0 until n) {
      if (i == end) { start = i; while (end < n && cols(end).table == cols(i).table) end += 1 }
      var nTouched = 0
      // The Σ|P(v)|² loop, written with indices because it is the hot path.
      var x = 0
      while (x < lists(i).length) {
        val p = lists(i)(x)
        var y = 0
        while (y < p.length) {
          val j = p(y)
          if (j < start || j >= end) {
            if (overlap(j) == 0) { touched(nTouched) = j; nTouched += 1 }
            overlap(j) += 1
          }
          y += 1
        }
        x += 1
      }
      Arrays.sort(touched, 0, nTouched) // row i in ascending order
      for (k <- 0 until nTouched) {
        val j = touched(k)
        val ov = overlap(j).toDouble
        overlap(j) = 0
        val score = math.max(ov / profile.distinctCounts(i), ov / profile.distinctCounts(j))
        if (score >= threshold) { nbrs += j; scores += score }
      }
      offsets(i + 1) = nbrs.length
    }
    new Adjacency(offsets, nbrs.result(), scores.result())
  }

  /** Reference: `(tbl, col, value)` triples from [[TableRepo.values]], not from [[profile]]. */
  def columnValues(spark: SparkSession, repo: TableRepo): DataFrame = {
    val schema = StructType(Seq("tbl", "col", "value").map(StructField(_, StringType, nullable = false)))
    val rows = for (c <- repo.columnRefs; v <- repo.values(c).map(normalize).distinct) yield Row(c.table, c.column, v)
    spark.createDataFrame(rows.asJava, schema)
  }

  /** Reference: per-column distinct-value counts, `(tbl, col, distinct_count)`. */
  def columnStats(cv: DataFrame): DataFrame =
    cv.groupBy("tbl", "col").agg(count(lit(1)).as("distinct_count"))

  /** Reference for [[containment]]: all-pairs column overlap and Lazo-style maximum directional Jaccard
    * containment `max(|a∩b|/|a|, |a∩b|/|b|)`, one row per unordered pair of
    * columns from *different* tables with overlap ≥ 1, `tbl1 < tbl2` by Spark's
    * string compare: `(tbl1, col1, tbl2, col2, overlap, containment)`.
    */
  def columnPairs(cv: DataFrame): DataFrame = {
    val stats = columnStats(cv)
    val a = cv.select(col("tbl").as("tbl1"), col("col").as("col1"), col("value"))
    val b = cv.select(col("tbl").as("tbl2"), col("col").as("col2"), col("value"))
    val pairs = a.join(b, "value")
      // one row per unordered pair, and none within a table: Ver never self-joins one
      .where(col("tbl1") < col("tbl2"))
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
