package repro.core

import scala.collection.mutable

import repro.discovery.DiscoveryIndex

/** The result of a search: candidate PJ-view specs plus the funnel
  * statistics the paper reports (Figures 5/6: joinable groups, join graphs,
  * views).
  */
final case class SearchResult(
    specs: Vector[ViewSpec],
    joinableGroups: Int,
    joinGraphs: Int,
) {
  def views: Int = specs.size
}

/** JOIN-GRAPH-SEARCH (Algorithm 5) for τ ≤ 2 attributes: for every
  * combination of candidate columns, ask the discovery index for the join
  * graphs of at most ρ = 2 hops between the combination's tables (memoized
  * per table pair, so a non-joinable pair is looked up once — line 6-8's
  * pruning), and return ranked, deduplicated [[ViewSpec]]s — smaller join
  * graphs first, then higher total containment (the discovery-engine score
  * of Step 2). τ ≥ 3 is rejected: joining three tables needs a Steiner-tree
  * enumeration this search does not do.
  */
object JoinGraphSearch {

  /** Rejects a query this search cannot answer exactly: τ must be 1 or 2. */
  def requireArity(tau: Int): Unit =
    require(tau == 1 || tau == 2, s"JOIN-GRAPH-SEARCH takes 1 or 2 attributes (τ ≤ 2), got τ = $tau")

  def search(cands: Vector[Set[ColumnRef]], index: DiscoveryIndex): SearchResult = {
    requireArity(cands.size)
    val sorted = cands.map(_.toVector.sorted)
    val combos =
      if (sorted.size == 1) sorted(0).map(Vector(_))
      else for (a <- sorted(0); b <- sorted(1)) yield Vector(a, b)
    val graphs = mutable.Map.empty[(String, String), Vector[Set[JoinEdge]]]
    // Every generated graph is a connected path of ≤ 2 hops between the
    // combination's (one or two) tables, so each yields a valid spec.
    val specs = for {
      combo <- combos
      (t1, t2) = (combo.head.table, combo.last.table)
      g <- graphs.getOrElseUpdate(if (t1 <= t2) (t1, t2) else (t2, t1), index.generateJoinGraphs(t1, t2))
    } yield ViewSpec(Set(t1, t2) ++ g.flatMap(_.tables), g, combo)

    val ranked = specs.distinctBy(_.key)
      .map(s => ((s.hops, -s.edges.toVector.map(e => index.containmentOf(e.left, e.right)).sum, s.toString), s))
      .sortBy(_._1).map(_._2)
    SearchResult(ranked, specs.map(_.tables).distinct.size, specs.size)
  }
}
