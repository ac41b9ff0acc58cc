package repro.core

import repro.data.TableRepo

/** Reference MATERIALIZER: the join over `Vector[String]` rows that the
  * dictionary-encoded `Materializer.materialize` replaced. It runs the same
  * plan (reach order, composite keys, pruning and a distinct after every
  * step) on the cell strings and hands the projected rows to
  * [[MatView.fromRows]]. Slow but simple; tests compare `materialize`
  * against it.
  */
object MaterializerReference {

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
    MatView.fromRows(id, spec, Materializer.dedupeNames(spec.projection.map(_.column)),
      rows.iterator.map(r => outIdx.map(i => Option(r(i)).getOrElse(Materializer.NullCell))).toVector)
  }
}
