package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import scala.jdk.CollectionConverters._

import repro.core.{ColumnRef, ViewSpec}

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

  def columnRefs: Vector[ColumnRef] = data.sortBy(_.name).flatMap(t => t.columns.map(ColumnRef(t.name, _)))

  /** DataFrames of the rows in the active session, built on first use for
    * the DuckDB oracle and the benchmark only.
    */
  lazy val tables: Map[String, DataFrame] =
    byName.map { case (n, t) => n -> TableRepo.df(SparkSession.active, t.columns, t.rows) }

  def apply(t: String): DataFrame = tables(table(t).name)
}

object TableRepo {
  /** An all-string DataFrame of driver rows; every column is nullable, so
    * null cells stay null.
    */
  def df(spark: SparkSession, cols: Seq[String], rows: Seq[Seq[String]]): DataFrame = {
    val schema = StructType(cols.map(StructField(_, StringType, nullable = true)))
    spark.createDataFrame(rows.map(r => Row.fromSeq(r)).asJava, schema)
  }
}
