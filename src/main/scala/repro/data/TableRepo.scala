package repro.data

import java.util.concurrent.ConcurrentHashMap
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

/** A named pathless table collection: tables have all-string schemas (as in
  * a real CSV lake — types, keys and FKs are absent by construction) and no
  * join-path metadata. Ground truths are carried for workload generation and
  * evaluation only; no component of Ver reads them.
  */
final case class TableRepo(
    name: String,
    tables: Map[String, DataFrame],
    groundTruths: Vector[GroundTruth],
) {
  def apply(table: String): DataFrame =
    tables.getOrElse(table, sys.error(s"unknown table $table in repo $name"))

  private val collected = new ConcurrentHashMap[String, Vector[Vector[String]]]()

  /** A table's rows on the driver, in `apply(table).columns` order, with
    * each cell's string form and nulls kept as null. Each table is
    * collected once per repo, on first use, however many threads ask.
    */
  def rows(table: String): Vector[Vector[String]] =
    collected.computeIfAbsent(table, t => apply(t).collect().iterator.map(r =>
      Vector.tabulate(r.length)(i => Option(r.get(i)).map(_.toString).orNull)).toVector)

  /** A column's distinct non-null cell strings, sorted: the values query
    * generation samples examples from and the discovery melt normalizes.
    */
  def values(c: ColumnRef): Vector[String] = {
    val i = apply(c.table).columns.indexOf(c.column)
    require(i >= 0, s"unknown column $c in repo $name")
    rows(c.table).iterator.map(_(i)).filter(_ != null).distinct.toVector.sorted
  }

  def columnRefs: Vector[ColumnRef] =
    tables.toVector.sortBy(_._1).flatMap { case (t, df) => df.columns.toVector.map(ColumnRef(t, _)) }
}

object TableRepo {
  /** Build an all-string DataFrame from driver-side rows. Generators are
    * driver-side (tables are small) so workloads are bit-deterministic in
    * their seed; index construction and materialization also run on the
    * driver, over the rows [[TableRepo.rows]] collects once per table.
    */
  def df(spark: SparkSession, cols: Seq[String], rows: Seq[Seq[String]]): DataFrame = {
    require(rows.forall(_.size == cols.size), s"ragged rows for schema $cols")
    val schema = StructType(cols.map(StructField(_, StringType, nullable = false)))
    spark.createDataFrame(rows.map(r => Row.fromSeq(r)).asJava, schema)
  }
}
