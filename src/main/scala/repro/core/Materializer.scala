package repro.core

import repro.data.TableRepo

/** A materialized candidate PJ-view for VIEW-DISTILLATION and
  * VIEW-PRESENTATION: its rows as the driver-side [[Materializer]] joined
  * them.
  *
  * The schema is canonicalized (column names sorted, rows re-ordered to
  * match) so SCHEMA-BASED-BLOCKS can group views by name equality, and rows
  * are distinct (a view is a set of tuples, Definition 5's `(V1 ∩ V2)`
  * semantics).
  */
final case class MatView(id: String, spec: ViewSpec, schema: Vector[String], rows: Vector[Vector[String]]) {
  require(schema.distinct.size == schema.size, s"$id: duplicate column names in $schema")
  require(rows.forall(_.size == schema.size), s"$id: ragged rows")
  /** The paper's row-wise hash H[V]; exact row sets at this scale. */
  lazy val rowSet: Set[Vector[String]] = rows.toSet
  def size: Int = rowSet.size
  /** Single-column candidate keys: columns whose values are row-unique. */
  lazy val candidateKeys: Vector[String] = {
    val distinctRows = rowSet.toVector
    schema.indices.collect {
      case i if distinctRows.map(_(i)).distinct.size == distinctRows.size => schema(i)
    }.toVector
  }
  def columnIndex(name: String): Int = {
    val i = schema.indexOf(name)
    require(i >= 0, s"$id: no column $name in $schema")
    i
  }
}

object MatView {
  /** Build from rows already on the driver, canonicalizing schema order. */
  def fromRows(id: String, spec: ViewSpec, schema: Vector[String], rows: Seq[Seq[String]]): MatView = {
    val order = schema.zipWithIndex.sortBy(_._1).map(_._2)
    val canonSchema = order.map(schema(_))
    // Sort keys are built once per row, not once per comparison.
    val canonRows = rows.map(r => order.map(r(_)).toVector).distinct
      .map(v => v.mkString("\u0000") -> v).sortBy(_._1).map(_._2)
    MatView(id, spec, canonSchema, canonRows.toVector)
  }
}

/** The MATERIALIZER: executes a [[ViewSpec]] as a driver-side hash join
  * over the repo's rows ([[TableRepo.rows]]). The paper's materializer also
  * ran in-process (with pandas); our inputs are KB-sized, so a Spark job per
  * view would cost more in fixed overheads than the join itself.
  *
  * Semantics are SQL's `SELECT DISTINCT` over inner equi-joins: a null key
  * never matches, and a projected null renders as [[NullCell]] (DESIGN.md).
  */
object Materializer {

  /** How a projected null cell renders in a [[MatView]]. */
  val NullCell = "∅"

  /** Materialize one spec as a [[MatView]]: join along the join graph, then
    * project the spec's columns (named by their bare source column name;
    * collisions get positional suffixes, see [[dedupeNames]]) with set
    * semantics.
    *
    * Tables join in the order the spec's edges reach them, starting from
    * the first projected table. Each step hashes the new table on the key
    * columns of every edge that connects it to the tables already reached,
    * as one composite key. Every step keeps only the columns still needed
    * (the projection plus the endpoints of edges not yet joined on) and
    * deduplicates, so many-to-many intermediates stay small.
    */
  def materialize(repo: TableRepo, spec: ViewSpec, id: String): MatView = {
    require(spec.connected, s"disconnected spec $spec")
    val first = spec.projection.head.table
    // Join order: (new table, every remaining edge connecting it to the reached set).
    var reached = Set(first)
    var remainingEdges = spec.edges
    val steps = Vector.newBuilder[(String, Vector[JoinEdge])]
    while (reached != spec.tables) {
      val next = remainingEdges.find(e => e.tables.exists(reached) && !e.tables.subsetOf(reached))
        .getOrElse(sys.error(s"cannot extend join over $spec"))
      val newTable = next.tables.find(!reached(_)).get
      val connecting = remainingEdges.filter(e => e.touches(newTable) && e.tables.exists(reached))
      steps += newTable -> connecting.toVector
      reached += newTable
      remainingEdges --= connecting
    }
    val plan = steps.result()
    // Columns needed once the first `k` steps have joined.
    def neededAfter(k: Int): Set[ColumnRef] =
      spec.projection.toSet ++ plan.drop(k).flatMap(_._2).flatMap(e => Seq(e.left, e.right))
    def prune(t: String, keep: Set[ColumnRef]): (Vector[ColumnRef], Vector[Int]) =
      repo.columns(t).map(ColumnRef(t, _)).zipWithIndex.filter(p => keep(p._1)).unzip

    val (firstCols, firstIdx) = prune(first, neededAfter(0))
    var cols = firstCols
    var rows: Iterable[Vector[String]] = repo.rows(first).iterator.map(r => firstIdx.map(r)).toSet
    for (((t, edges), k) <- plan.zipWithIndex) {
      val keep = neededAfter(k + 1)
      val (newCols, newIdx) = prune(t, keep)
      val newKey = edges.map(e => repo.columns(t).indexOf(e.endpointIn(t).column))
      val probeKey = edges.map(e => cols.indexOf(e.endpointNotIn(t)))
      val build = repo.rows(t).iterator.map(r => newKey.map(r) -> newIdx.map(r))
        .filterNot(_._1.contains(null)).toVector.distinct.groupMap(_._1)(_._2)
      val carried = cols.indices.filter(i => keep(cols(i))).toVector
      rows = rows.iterator.flatMap { r =>
        val key = probeKey.map(r)
        if (key.contains(null)) Iterator.empty
        else build.getOrElse(key, Vector.empty).iterator.map(carried.map(r) ++ _)
      }.toSet
      cols = carried.map(cols) ++ newCols
    }
    val outIdx = spec.projection.map(cols.indexOf)
    MatView.fromRows(id, spec, dedupeNames(spec.projection.map(_.column)),
      rows.iterator.map(r => outIdx.map(i => Option(r(i)).getOrElse(NullCell))).toVector)
  }

  /** Bare output names, suffixing duplicates positionally (`state`,
    * `state_2`, …, skipping taken names) so a view's schema has unique names.
    */
  def dedupeNames(names: Vector[String]): Vector[String] = {
    val taken = scala.collection.mutable.Set.from(names)
    names.indices.map { i =>
      val n = names(i); val k = names.take(i).count(_ == n)
      if (k == 0) n else Iterator.from(k + 1).map(j => s"${n}_$j").find(taken.add).get
    }.toVector
  }

  /** Materialize up to `limit` specs (in their ranked order). */
  def materializeAll(repo: TableRepo, specs: Seq[ViewSpec], limit: Int = Int.MaxValue): Vector[MatView] =
    specs.take(limit).zipWithIndex.map { case (s, i) => materialize(repo, s, f"v$i%04d") }.toVector
}
