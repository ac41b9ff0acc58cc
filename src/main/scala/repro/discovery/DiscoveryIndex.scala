package repro.discovery

import java.util.Arrays
import org.apache.spark.sql.SparkSession
import scala.collection.Searching.Found

import repro.core.{ColumnRef, JoinEdge}
import repro.data.TableRepo
import repro.discovery.Profiles.normalize

/** The online discovery index (Appendix A of the paper): the compact result
  * of the profiling pass, serving Aurum's three functions — SEARCH-KEYWORD,
  * NEIGHBORS and GENERATE-JOIN-GRAPHS — and the Alg. 4 overlap score to the
  * rest of Ver. Every value lookup normalizes with [[Profiles.normalize]],
  * the rule the profiling pass applied to the indexed values.
  *
  * @param profile     the profiling pass's output; its `postings` (normalized value →
  *                    ascending column ids) are served as they are, decoded through its `columns`
  * @param containment containment score per canonically-ordered joinable
  *                    column pair (score ≥ `threshold` only)
  * @param threshold   the containment threshold the index was built at
  */
final class DiscoveryIndex(
    val profile: Profiles.Profile,
    val containment: Map[(ColumnRef, ColumnRef), Double],
    val threshold: Double,
) {
  import profile.{columns, postings}
  val distinctCounts: Map[ColumnRef, Int] = columns.zip(profile.distinctCounts).toMap
  def distinctCount(c: ColumnRef): Int = distinctCounts.getOrElse(c, 0)

  /** SEARCH-KEYWORD(value): columns containing the value (exact match after
    * normalization — see DESIGN.md substitution 6 for the fuzzy case).
    */
  def searchKeyword(value: String): Vector[ColumnRef] =
    postings.get(normalize(value)).fold(Vector.empty[ColumnRef])(_.iterator.map(columns).toVector)

  /** Alg. 4's overlap `|c ∩ examples|`: distinct normalized examples that
    * column `c` contains.
    */
  def overlap(c: ColumnRef, examples: Seq[String]): Int = columns.search(c) match {
    case Found(id) => examples.map(normalize).distinct.count(v => postings.get(v).exists(Arrays.binarySearch(_, id) >= 0))
    case _ => 0
  }

  /** NEIGHBORS(c): columns joinable with `c` at the index's threshold. */
  lazy val neighbors: Map[ColumnRef, Set[ColumnRef]] = {
    val sym = containment.keys.toVector.flatMap { case (a, b) => Vector(a -> b, b -> a) }
    sym.groupBy(_._1).map { case (c, ns) => c -> ns.map(_._2).toSet }
      .withDefaultValue(Set.empty)
  }

  def containmentOf(a: ColumnRef, b: ColumnRef): Double =
    containment.getOrElse((a, b), containment.getOrElse((b, a), 0.0))

  /** Join edges grouped by (sorted) table pair, each pair's edges in column order. */
  lazy val edgesBetween: Map[(String, String), Vector[JoinEdge]] =
    containment.keys.toVector.sorted
      .map { case (a, b) => JoinEdge(a, b) }
      .groupBy(e => (e.left.table, e.right.table))
      .withDefaultValue(Vector.empty)

  def joinEdges(t1: String, t2: String): Vector[JoinEdge] = {
    val key = if (t1 <= t2) (t1, t2) else (t2, t1)
    edgesBetween(key)
  }

  /** Tables adjacent to `t` via at least one join edge. */
  lazy val tableNeighbors: Map[String, Vector[String]] =
    edgesBetween.keys.toVector
      .flatMap { case (a, b) => Vector(a -> b, b -> a) }
      .groupBy(_._1)
      .map { case (t, ns) => t -> ns.map(_._2).distinct.sorted }
      .withDefaultValue(Vector.empty)

  /** GENERATE-JOIN-GRAPHS({t1, t2}, ρ) at the paper's ρ = 2: every join
    * graph of at most two edges connecting the pair — the direct edges, then
    * the two-hop paths through one intermediate table (paper: "smaller
    * graphs rank higher"). A table with itself yields the empty graph.
    */
  def generateJoinGraphs(t1: String, t2: String): Vector[Set[JoinEdge]] =
    if (t1 == t2) Vector(Set.empty)
    else joinEdges(t1, t2).map(e => Set(e)) ++
      tableNeighbors(t1).intersect(tableNeighbors(t2)).flatMap { x =>
        for (e1 <- joinEdges(t1, x); e2 <- joinEdges(x, t2)) yield Set(e1, e2)
      }

  /** Connected components of a column set under the NEIGHBORS relation, by least column:
    * the clustering step of COLUMN-SELECTION (Algorithm 4, line 5).
    */
  def connectedComponents(cols: Set[ColumnRef]): Vector[Set[ColumnRef]] = {
    var remaining = cols
    val out = Vector.newBuilder[Set[ColumnRef]]
    while (remaining.nonEmpty) {
      var comp = Set(remaining.head)
      var frontier = comp
      while (frontier.nonEmpty) {
        val next = frontier.flatMap(c => neighbors(c)).intersect(remaining) -- comp
        comp ++= next; frontier = next
      }
      out += comp
      remaining --= comp
    }
    out.result().sortBy(_.min)
  }
}

object DiscoveryIndex {
  /** The index over per-column values, profiled by [[Profiles.profile]]. */
  def apply(cells: Iterable[(ColumnRef, Iterable[String])],
            containment: Map[(ColumnRef, ColumnRef), Double], threshold: Double): DiscoveryIndex =
    new DiscoveryIndex(Profiles.profile(cells), containment, threshold)
}

/** Offline builder: profiles the repo's rows in one pass, counts joinable
  * column pairs from the profile's posting lists on the driver with
  * [[Profiles.containment]], and indexes both. No step runs a Spark job;
  * `spark` is unused and stays in the signature for the callers.
  */
object DiscoveryIndexBuilder {
  def build(spark: SparkSession, repo: TableRepo, threshold: Double = 0.8): DiscoveryIndex = {
    val profile = Profiles.profile(repo)
    new DiscoveryIndex(profile, Profiles.containment(profile, threshold), threshold)
  }
}
