package verbench

import org.apache.spark.sql.SparkSession
import scala.util.control.NonFatal

import repro.Oracle
import repro.core._
import repro.data.{GroundTruth, TableRepo}
import repro.discovery.DiscoveryIndex

/** Simple driver-side reference implementations the benchmark checks the
  * program's outputs against. They run outside the timed region.
  */
object Reference {

  /** Distinct non-null values per column, by the equality rule `Profiles`
    * applies today: a cell's string form, compared exactly.
    */
  def columnValues(repo: TableRepo): Map[ColumnRef, Set[String]] =
    repo.tables.toVector.flatMap { case (t, df) =>
      val rows = df.collect()
      df.columns.toVector.zipWithIndex.map { case (c, i) =>
        ColumnRef(t, c) -> rows.iterator.map(_.get(i)).filter(_ != null).map(_.toString).toSet
      }
    }.toMap

  /** Overlap of every pair of columns from different tables that share a
    * value, counted from value → columns posting lists.
    */
  def overlaps(values: Map[ColumnRef, Set[String]]): Map[Set[ColumnRef], Int] = {
    val postings = values.toVector
      .flatMap { case (c, vs) => vs.iterator.map(_ -> c) }
      .groupMap(_._1)(_._2)
    val counts = scala.collection.mutable.HashMap.empty[Set[ColumnRef], Int]
    for (cols <- postings.valuesIterator; i <- cols.indices; j <- i + 1 until cols.size
         if cols(i).table != cols(j).table) {
      val k = Set(cols(i), cols(j))
      counts(k) = counts.getOrElse(k, 0) + 1
    }
    counts.toMap
  }

  /** Joinable pairs: max directional containment at or above `threshold`. */
  def containment(values: Map[ColumnRef, Set[String]], threshold: Double): Map[Set[ColumnRef], Double] =
    overlaps(values).flatMap { case (pair, ov) =>
      val score = pair.toVector.map(c => ov.toDouble / values(c).size).max
      if (score >= threshold) Some(pair -> score) else None
    }

  /** DuckDB SQL for a view spec: inner equi-joins along the spec's edges,
    * the projection named by bare column name with positional suffixes
    * (`c`, `c_2`, …) on repeats, and set semantics.
    */
  def viewSql(spec: ViewSpec): String = {
    def q(s: String) = "\"" + s.replace("\"", "\"\"") + "\""
    def ref(c: ColumnRef) = s"${q(c.table)}.${q(c.column)}"
    val first = spec.tables.toVector.sorted.head
    var reached = Set(first)
    val from = new StringBuilder(q(first))
    while (reached != spec.tables) {
      val t = spec.edges.toVector.flatMap(_.tables).filter(t => !reached(t) &&
        spec.edges.exists(e => e.touches(t) && e.tables.exists(reached))).sorted
        .headOption.getOrElse(sys.error(s"disconnected spec $spec"))
      val on = spec.edges.toVector.filter(e => e.touches(t) && e.tables.exists(reached))
        .map(e => s"${ref(e.endpointIn(t))} = ${ref(e.endpointNotIn(t))}").sorted
      from ++= s" JOIN ${q(t)} ON ${on.mkString(" AND ")}"
      reached += t
    }
    val seen = scala.collection.mutable.Map.empty[String, Int]
    val cols = spec.projection.map { c =>
      val k = seen.getOrElse(c.column, 0) + 1
      seen(c.column) = k
      s"${ref(c)} AS ${q(if (k == 1) c.column else s"${c.column}_$k")}"
    }
    s"SELECT DISTINCT ${cols.mkString(", ")} FROM $from"
  }
}

/** Output checks. Each returns the reasons an output is wrong; empty means
  * correct.
  */
object Checks {

  def index(idx: DiscoveryIndex, expected: Map[Set[ColumnRef], Double], tableICount: Option[Int]): Seq[String] = {
    val got = idx.containment.map { case ((a, b), s) => Set(a, b) -> s }
    val missing = expected.keySet -- got.keySet
    val extra = got.keySet -- expected.keySet
    val wrong = (expected.keySet intersect got.keySet).filter(k => math.abs(expected(k) - got(k)) > 1e-9)
    Seq(
      Option.when(idx.containment.size != got.size)("containment holds a pair twice"),
      Option.when(missing.nonEmpty)(s"${missing.size} joinable pairs missing, e.g. ${missing.head}"),
      Option.when(extra.nonEmpty)(s"${extra.size} pairs not joinable in the reference, e.g. ${extra.head}"),
      Option.when(wrong.nonEmpty)(s"${wrong.size} containment scores differ, e.g. ${wrong.head}"),
      tableICount.filter(_ != got.size).map(n => s"Table I count is ${got.size}, expected $n"),
    ).flatten
  }

  /** Well-formed search output: specs sorted by hops, keys distinct. */
  def specs(r: SearchResult): Seq[String] = Seq(
    Option.when(r.specs.map(_.hops) != r.specs.map(_.hops).sorted)("specs not sorted by hops"),
    Option.when(r.specs.map(_.key).distinct.size != r.specs.size)("spec keys not distinct"),
  ).flatten

  /** One query's SA, SB and CS results against each other and its ground
    * truth: SA always hits, CS hits at zero noise, SB and CS ⊆ SA.
    */
  def searchTriple(gt: GroundTruth, level: NoiseLevel, sa: SearchResult, sb: SearchResult,
                   cs: SearchResult): Map[String, Seq[String]] = {
    val saKeys = sa.specs.map(_.key).toSet
    def subset(name: String, r: SearchResult) =
      Option.when(!r.specs.forall(s => saKeys(s.key)))(s"$name specs not a subset of SA's")
    Map(
      "SA" -> (specs(sa) ++ Option.when(!Ver.hit(sa, gt))("SA missed the ground truth")),
      "SB" -> (specs(sb) ++ subset("SB", sb)),
      "CS" -> (specs(cs) ++ subset("CS", cs) ++
        Option.when(level == NoiseLevel.Zero && !Ver.hit(cs, gt))("CS missed the ground truth at zero noise")),
    )
  }

  def funnel(r: DistillReport, views: Int): Seq[String] = Seq(
    Option.when(r.original != views)(s"distill saw ${r.original} of $views views"),
    Option.when(!(r.afterCompatible >= r.afterContained && r.afterContained >= r.c3Worst &&
      r.c3Worst >= r.c3Best && r.original >= r.afterCompatible))(
      s"funnel not monotone: ${r.original} ${r.afterCompatible} ${r.afterContained} ${r.c3Worst} ${r.c3Best}"),
  ).flatten

  /** Every materialized view equals DuckDB's answer to its spec's SQL. */
  def views(spark: SparkSession, repo: TableRepo, views: Seq[MatView]): Seq[String] =
    views.flatMap { v =>
      try {
        val df = TableRepo.df(spark, v.schema, v.rows)
        Oracle.assertEquivalent(df, Reference.viewSql(v.spec),
          v.spec.tables.toVector.sorted.map(t => t -> repo(t)): _*)
        None
      } catch { case NonFatal(e) => Some(s"${v.id} ${v.spec}: ${e.getMessage}") }
    }
}
