package repro.discovery

import org.scalatest.Assertions._

import repro.core.{ColumnRef, JoinEdge}

/** The discovery index's join reads derived from a joinable-pair map keyed with the lower column
  * first in [[ColumnRef.ordering]], with no column ids: the reference [[DiscoveryIndex]]'s NEIGHBORS,
  * `containmentOf`, `joinEdges`, `tableNeighbors`, GENERATE-JOIN-GRAPHS and connected components are
  * checked against.
  */
final class IndexReference(containment: Map[(ColumnRef, ColumnRef), Double]) {

  val neighbors: Map[ColumnRef, Set[ColumnRef]] = {
    val sym = containment.keys.toVector.flatMap { case (a, b) => Vector(a -> b, b -> a) }
    sym.groupBy(_._1).map { case (c, ns) => c -> ns.map(_._2).toSet }
      .withDefaultValue(Set.empty)
  }

  def containmentOf(a: ColumnRef, b: ColumnRef): Double =
    containment.getOrElse((a, b), containment.getOrElse((b, a), 0.0))

  /** Join edges grouped by (sorted) table pair, each pair's edges in column order. */
  val edgesBetween: Map[(String, String), Vector[JoinEdge]] =
    containment.keys.toVector.sorted
      .map { case (a, b) => JoinEdge(a, b) }
      .groupBy(e => (e.left.table, e.right.table))
      .withDefaultValue(Vector.empty)

  def joinEdges(t1: String, t2: String): Vector[JoinEdge] =
    edgesBetween(if (t1 <= t2) (t1, t2) else (t2, t1))

  val tableNeighbors: Map[String, Vector[String]] =
    edgesBetween.keys.toVector
      .flatMap { case (a, b) => Vector(a -> b, b -> a) }
      .groupBy(_._1)
      .map { case (t, ns) => t -> ns.map(_._2).distinct.sorted }
      .withDefaultValue(Vector.empty)

  def generateJoinGraphs(t1: String, t2: String): Vector[Set[JoinEdge]] =
    if (t1 == t2) Vector(Set.empty)
    else joinEdges(t1, t2).map(e => Set(e)) ++
      tableNeighbors(t1).intersect(tableNeighbors(t2)).flatMap { x =>
        for (e1 <- joinEdges(t1, x); e2 <- joinEdges(x, t2)) yield Set(e1, e2)
      }

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

object IndexReference {
  /** Checks every join read of `idx` against the reference over `pairs`, orders included:
    * `containment`; NEIGHBORS (in column order) and `containmentOf`, both ways, over all its columns and
    * two it does not hold; `joinEdges`, `tableNeighbors` and GENERATE-JOIN-GRAPHS over all its tables and
    * one it does not hold; and the connected components of all its columns and of each of `colSets`.
    */
  def check(idx: DiscoveryIndex, pairs: Map[(ColumnRef, ColumnRef), Double], colSets: Iterable[Set[ColumnRef]]): Unit = {
    val ref = new IndexReference(pairs)
    val held = idx.profile.columns
    val cols = held ++ held.headOption.map(c => ColumnRef(c.table, "absent")) :+ ColumnRef("absent", "absent")
    val tables = cols.map(_.table).distinct
    assert(idx.containment == pairs)
    for (a <- cols) {
      assert(idx.neighbors(a) == ref.neighbors(a).toVector.sorted, s"NEIGHBORS($a)")
      for (b <- cols) assert(idx.containmentOf(a, b) == ref.containmentOf(a, b), s"containmentOf($a, $b)")
    }
    for (t1 <- tables) {
      assert(idx.tableNeighbors(t1) == ref.tableNeighbors(t1), s"tableNeighbors($t1)")
      for (t2 <- tables) {
        assert(idx.joinEdges(t1, t2) == ref.joinEdges(t1, t2), s"joinEdges($t1, $t2)")
        assert(idx.generateJoinGraphs(t1, t2) == ref.generateJoinGraphs(t1, t2), s"generateJoinGraphs($t1, $t2)")
      }
    }
    for (s <- colSets ++ Seq(held.toSet, cols.toSet))
      assert(idx.connectedComponents(s) == ref.connectedComponents(s), s"connectedComponents($s)")
  }
}
