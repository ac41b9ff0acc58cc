package repro.discovery

import java.util.Arrays
import org.apache.spark.sql.SparkSession
import scala.annotation.tailrec
import scala.collection.Searching.Found
import scala.collection.mutable

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
  * @param joins       the joinable column pairs (score ≥ `threshold` only) over the profile's
  *                    column ids, which run in [[ColumnRef.ordering]] and are consecutive per table
  * @param threshold   the containment threshold the index was built at
  */
final class DiscoveryIndex(
    val profile: Profiles.Profile,
    joins: Profiles.Adjacency,
    val threshold: Double,
) {
  import profile.{columns, postings}
  import joins.{nbrs, offsets, scores}
  private def id(c: ColumnRef): Int = columns.search(c) match { case Found(i) => i; case _ => -1 }
  /** Column `i`'s positions in `nbrs` and `scores`; none for id -1. */
  private def row(i: Int): Range = if (i < 0) Range(0, 0) else Range(offsets(i), offsets(i + 1))
  /** Each table's column ids, which are consecutive. */
  private val spans = columns.indices.groupBy(columns(_).table).map { case (t, ids) => t -> Range(ids.head, ids.last + 1) }
  private def span(t: String): Range = spans.getOrElse(t, Range(0, 0))
  def distinctCount(c: ColumnRef): Int = id(c) match { case -1 => 0; case i => profile.distinctCounts(i) }

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

  /** NEIGHBORS(c): columns joinable with `c` at the index's threshold, in column order. */
  def neighbors(c: ColumnRef): Vector[ColumnRef] = row(id(c)).map(k => columns(nbrs(k))).toVector

  def containmentOf(a: ColumnRef, b: ColumnRef): Double = {
    val r = row(id(a))
    val k = Arrays.binarySearch(nbrs, r.start, r.end, id(b))
    if (k >= 0) scores(k) else 0.0
  }

  /** The joinable pairs keyed with the lower id first, as [[JoinEdge]] keeps its endpoints; decoded on first read. */
  lazy val containment: Map[(ColumnRef, ColumnRef), Double] =
    (for (i <- columns.indices; k <- row(i) if nbrs(k) > i) yield (columns(i), columns(nbrs(k))) -> scores(k)).toMap

  /** Join edges between two tables, in column order. */
  def joinEdges(t1: String, t2: String): Vector[JoinEdge] = {
    val (lo, hi) = if (t1 <= t2) (span(t1), span(t2)) else (span(t2), span(t1))
    val out = Vector.newBuilder[JoinEdge]
    for (i <- lo; k <- row(i)) if (hi.contains(nbrs(k))) out += JoinEdge(columns(i), columns(nbrs(k)))
    out.result()
  }

  /** Tables adjacent to `t` via at least one join edge, by name. */
  def tableNeighbors(t: String): Vector[String] = {
    val ids = mutable.BitSet.empty
    for (i <- span(t); k <- row(i)) ids += nbrs(k)
    ids.iterator.map(columns(_).table).distinct.toVector
  }

  /** GENERATE-JOIN-GRAPHS({t1, t2}, ρ) at the paper's ρ = 2: every join
    * graph of at most two edges connecting the pair — the direct edges, then
    * the two-hop paths through one intermediate table (paper: "smaller
    * graphs rank higher"). A table with itself yields the empty graph.
    */
  def generateJoinGraphs(t1: String, t2: String): Vector[Set[JoinEdge]] =
    if (t1 == t2) Vector(Set.empty)
    else joinEdges(t1, t2).map(e => Set(e)) ++
      tableNeighbors(t1).intersect(tableNeighbors(t2)).flatMap { x =>
        val onward = joinEdges(x, t2)
        for (e1 <- joinEdges(t1, x); e2 <- onward) yield Set(e1, e2)
      }

  /** Connected components of a column set under the NEIGHBORS relation, by least column:
    * the clustering step of COLUMN-SELECTION (Algorithm 4, line 5).
    */
  def connectedComponents(cols: Set[ColumnRef]): Vector[Set[ColumnRef]] =
    Vector.unfold(cols) { rest =>
      Option.when(rest.nonEmpty) { val comp = reach(Set(rest.min), Set(rest.min), rest); (comp, rest -- comp) }
    }
  /** `comp` and the columns of `within` that NEIGHBORS links to it, reached one hop past `frontier` at a time. */
  @tailrec private def reach(comp: Set[ColumnRef], frontier: Set[ColumnRef], within: Set[ColumnRef]): Set[ColumnRef] = {
    val next = frontier.flatMap(neighbors).intersect(within) -- comp
    if (next.isEmpty) comp else reach(comp ++ next, next, within)
  }
}

object DiscoveryIndex {
  /** The index over per-column values, profiled by [[Profiles.profile]], and joinable pairs given once each. */
  def apply(cells: Iterable[(ColumnRef, Iterable[String])],
            containment: Map[(ColumnRef, ColumnRef), Double], threshold: Double): DiscoveryIndex = {
    val profile = Profiles.profile(cells)
    val rows = containment.toVector.flatMap { case ((a, b), score) =>
      val ids = Vector(a, b).map(profile.columns.search(_)).collect { case Found(i) => i }
      require(ids.size == 2, s"DiscoveryIndex: pair ($a, $b) names a column not in the cells")
      require(a.table != b.table, s"DiscoveryIndex: pair ($a, $b) joins two columns of table ${a.table}")
      require(!containment.contains((b, a)), s"DiscoveryIndex: pair ($a, $b) is given in both orders")
      Vector((ids(0), ids(1), score), (ids(1), ids(0), score))
    }.sortBy(p => (p._1, p._2))
    val offsets = Array.tabulate(profile.columns.size + 1)(i => rows.count(_._1 < i))
    new DiscoveryIndex(profile, new Profiles.Adjacency(offsets, rows.map(_._2).toArray, rows.map(_._3).toArray), threshold)
  }
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
