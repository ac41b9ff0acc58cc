package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.jdk.CollectionConverters._

import repro.core.{ColumnRef, Materializer, ViewSpec}

/** Ground-truth query over a repo: the PJ-view spec the noisy QBE queries
  * are generated from (§VI-B), plus, per projected ground-truth column, the
  * designated *noise column* (Jaccard containment ≥ 0.8 w.r.t. the ground
  * truth column) that Medium/High-noise queries sample spurious values from.
  */
final case class GroundTruth(
    name: String,
    spec: ViewSpec,
    noiseColumns: Map[ColumnRef, ColumnRef],
) {
  require(spec.projection.forall(noiseColumns.contains),
    s"$name: every ground-truth column needs a noise column")
}

/** One table as driver rows; a null cell is an absent value (DESIGN.md). */
final case class Table(name: String, columns: Vector[String], rows: Vector[Vector[String]]) {
  require(columns.distinct.size == columns.size, s"duplicate column names in table $name")
  require(rows.forall(_.size == columns.size), s"ragged rows in table $name for columns $columns")
}

object Table {
  def apply(name: String, columns: Seq[String], rows: Seq[Seq[String]]): Table =
    Table(name, columns.toVector, rows.iterator.map(_.toVector).toVector)
}

/** A named pathless table collection: tables have all-string schemas (as in
  * a real CSV lake — types, keys and FKs are absent by construction) and no
  * join-path metadata. Ground truths are carried for workload generation and
  * evaluation only; no component of Ver reads them.
  *
  * The MATERIALIZER reads the rows through [[encoded]], one dictionary
  * encoding of every cell, built on first use.
  */
final case class TableRepo(name: String, data: Vector[Table], groundTruths: Vector[GroundTruth]) {
  private val byName = data.map(t => t.name -> t).toMap
  require(byName.size == data.size, s"duplicate table names in repo $name")

  private def table(t: String) = byName.getOrElse(t, throw new IllegalArgumentException(s"unknown table $t in repo $name"))

  def columns(t: String): Vector[String] = table(t).columns

  /** A table's rows, in [[columns]] order, nulls kept as null. */
  def rows(t: String): Vector[Vector[String]] = table(t).rows

  /** A column's distinct non-null cell strings, sorted, for query generation to sample from. */
  def values(c: ColumnRef): Vector[String] = {
    val i = columns(c.table).indexOf(c.column)
    require(i >= 0, s"unknown column $c in repo $name")
    rows(c.table).iterator.map(_(i)).filter(_ != null).distinct.toVector.sorted
  }

  /** The repo's cells as dictionary codes, built on first use (the index
    * build never needs it). Codes are exact: no normalization.
    */
  lazy val encoded: TableRepo.Encoded = TableRepo.encode(data)

  /** Every column, in [[ColumnRef.ordering]]: the profile's id order. */
  def columnRefs: Vector[ColumnRef] = data.flatMap(t => t.columns.map(ColumnRef(t.name, _))).sorted

  /** DataFrames of the rows in the active session, built on first use for
    * the DuckDB oracle and the benchmark only.
    */
  lazy val tables: Map[String, DataFrame] =
    byName.map { case (n, t) => n -> TableRepo.df(SparkSession.active, t.columns, t.rows) }

  def apply(t: String): DataFrame = tables(table(t).name)
}

object TableRepo {
  /** A repo's cells as ints. `cells` holds every distinct non-null cell
    * string and [[Materializer.NullCell]], sorted by `String.compareTo`; a
    * cell's code is its index there, and a null cell's code is −1. So equal
    * codes are equal cells, and code order is the cells' string order.
    * `columns(t)(i)` holds the codes of table `t`'s column `i`, row by row.
    * Every view materialized from the repo keeps its rows' codes against
    * `cells`, so 4C and the presenter compare them without recoding.
    */
  final class Encoded private[TableRepo] (val cells: Array[String], val columns: Map[String, Array[Array[Int]]]) {
    /** The code of [[Materializer.NullCell]], how a projected null renders. */
    val nullCellCode: Int = cells.indexOf(Materializer.NullCell)
  }

  /** Codes each cell in first-seen order with one hash lookup, then remaps
    * the codes to ranks in the sorted dictionary.
    */
  private def encode(data: Vector[Table]): Encoded = {
    val ids = new java.util.HashMap[String, Integer]
    val seen = scala.collection.mutable.ArrayBuffer.empty[String]
    def id(s: String): Int = {
      val i = ids.get(s)
      if (i != null) i.intValue
      else { ids.put(s, seen.size); seen += s; seen.size - 1 }
    }
    id(Materializer.NullCell)
    val columns = data.map { t =>
      t.name -> Array.tabulate(t.columns.size) { c =>
        val out = new Array[Int](t.rows.size)
        var r = 0
        t.rows.foreach { row => val s = row(c); out(r) = if (s == null) -1 else id(s); r += 1 }
        out
      }
    }
    val cells = seen.toArray.sorted
    val rank = new Array[Int](cells.length)
    var i = 0
    while (i < cells.length) { rank(ids.get(cells(i)).intValue) = i; i += 1 }
    for ((_, cols) <- columns; col <- cols) {
      var r = 0
      while (r < col.length) { if (col(r) >= 0) col(r) = rank(col(r)); r += 1 }
    }
    new Encoded(cells, columns.toMap)
  }

  /** An all-string DataFrame of driver rows; every column is nullable, so
    * null cells stay null.
    */
  def df(spark: SparkSession, cols: Seq[String], rows: Seq[Seq[String]]): DataFrame = {
    val schema = StructType(cols.map(StructField(_, StringType, nullable = true)))
    spark.createDataFrame(rows.map(r => Row.fromSeq(r)).asJava, schema)
  }
}
