package repro.core

/** Fully-qualified column reference inside a pathless table collection. */
final case class ColumnRef(table: String, column: String) {
  override def toString: String = s"$table.$column"
}

object ColumnRef {
  /** The one column order, by table, then by column: ids, containment keys, join edges and column lists follow it. */
  implicit val ordering: Ordering[ColumnRef] = (a, b) =>
    if (a.table == b.table) a.column.compareTo(b.column) else a.table.compareTo(b.table)
}

/** Undirected equi-join edge between columns of two distinct tables.
  *
  * Construction puts the endpoints in [[ColumnRef.ordering]], so `JoinEdge(a, b) ==
  * JoinEdge(b, a)` and edge sets deduplicate structurally.
  */
final case class JoinEdge private (left: ColumnRef, right: ColumnRef) {
  def tables: Set[String] = Set(left.table, right.table)
  def touches(t: String): Boolean = left.table == t || right.table == t
  /** The endpoint that lives in table `t` (requires `touches(t)`). */
  def endpointIn(t: String): ColumnRef = {
    require(touches(t), s"edge $this does not touch $t")
    if (left.table == t) left else right
  }
  /** The endpoint NOT in table `t` (requires `touches(t)`). */
  def endpointNotIn(t: String): ColumnRef = {
    require(touches(t), s"edge $this does not touch $t")
    if (left.table == t) right else left
  }
  override def toString: String = s"$left=$right"
}

object JoinEdge {
  def apply(a: ColumnRef, b: ColumnRef): JoinEdge = {
    require(a.table != b.table, s"self-join edge within table ${a.table}")
    if (ColumnRef.ordering.lteq(a, b)) new JoinEdge(a, b) else new JoinEdge(b, a)
  }
}

/** A project-join view specification: a set of tables connected by join
  * edges (a join graph) plus the projected columns, in query-attribute
  * order. `edges` is empty for single-table views.
  */
final case class ViewSpec(tables: Set[String], edges: Set[JoinEdge], projection: Vector[ColumnRef]) {
  require(projection.nonEmpty, "a PJ-view projects at least one column")
  require(projection.forall(c => tables.contains(c.table)),
    s"projection ${projection.mkString(",")} references tables outside $tables")
  require(edges.forall(e => e.tables.subsetOf(tables)),
    "join edges must connect tables of this view")

  /** Number of join hops. */
  def hops: Int = edges.size

  /** True when the join graph connects every table (single table is trivially connected). */
  def connected: Boolean = {
    if (tables.size <= 1) true
    else {
      var reached = Set(tables.head)
      var grew = true
      while (grew) {
        grew = false
        for (e <- edges if e.tables.exists(reached) && !e.tables.subsetOf(reached)) {
          reached ++= e.tables; grew = true
        }
      }
      reached == tables
    }
  }

  /** Identity used for deduplication; the projection keeps attribute order. */
  def key: (Set[String], Set[JoinEdge], Vector[ColumnRef]) = (tables, edges, projection)

  override def toString: String =
    s"View(${tables.toSeq.sorted.mkString("+")}; ${edges.toSeq.map(_.toString).sorted.mkString(",")}; π=${projection.mkString(",")})"
}

object ViewSpec {
  /** A view over a single table with no joins. */
  def singleTable(projection: Vector[ColumnRef]): ViewSpec = {
    val ts = projection.map(_.table).toSet
    require(ts.size == 1, s"singleTable projection spans $ts")
    ViewSpec(ts, Set.empty, projection)
  }
}

/** Example-based (QBE) query: `columns(i)` holds the user-supplied example
  * values for output attribute `i`. The paper's workload uses 2 columns ×
  * 3 rows; JOIN-GRAPH-SEARCH handles at most τ = 2 attributes.
  */
final case class ExampleQuery(columns: Vector[Vector[String]]) {
  require(columns.nonEmpty && columns.forall(_.nonEmpty), "empty example query")
  JoinGraphSearch.requireArity(columns.size)
  def arity: Int = columns.size
}

/** Noise level of a generated QBE query (§VI-B Noisy Query Generation). */
sealed abstract class NoiseLevel(val name: String, val noiseFraction: Double) {
  override def toString: String = name
}
object NoiseLevel {
  case object Zero extends NoiseLevel("Zero", 0.0)
  case object Med  extends NoiseLevel("Med", 1.0 / 3.0)
  case object High extends NoiseLevel("High", 2.0 / 3.0)
  val all: Vector[NoiseLevel] = Vector(Zero, Med, High)
}
