package repro.core

import java.util.{Arrays, Comparator, HashMap => JHashMap, HashSet => JHashSet}
import scala.collection.mutable.ArrayBuffer

import repro.data.TableRepo

/** A materialized candidate PJ-view for VIEW-DISTILLATION and
  * VIEW-PRESENTATION: its rows as the driver-side [[Materializer]] joined
  * them.
  *
  * The schema is canonicalized (column names sorted, rows re-ordered to
  * match) so SCHEMA-BASED-BLOCKS can group views by name equality, and rows
  * are distinct (a view is a set of tuples, Definition 5's `(V1 ∩ V2)`
  * semantics) and in the canonical order, [[MatView.rowOrdering]].
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
  /** The canonical row order: cell by cell, by `String.compareTo`. */
  val rowOrdering: Ordering[Vector[String]] = Ordering.Implicits.seqOrdering[Vector, String]

  /** Build from rows already on the driver, canonicalizing schema order. */
  def fromRows(id: String, spec: ViewSpec, schema: Vector[String], rows: Seq[Seq[String]]): MatView = {
    val order = schema.zipWithIndex.sortBy(_._1).map(_._2)
    val canonSchema = order.map(schema(_))
    val canonRows = rows.map(r => order.map(r(_))).distinct.sorted(rowOrdering)
    MatView(id, spec, canonSchema, canonRows.toVector)
  }
}

/** The MATERIALIZER: executes a [[ViewSpec]] as a driver-side hash join
  * over the repo's dictionary-encoded cells ([[TableRepo.encoded]]). The
  * paper's materializer also ran in-process (with pandas); our inputs are
  * KB-sized, so a Spark job per view would cost more in fixed overheads
  * than the join itself.
  *
  * Semantics are SQL's `SELECT DISTINCT` over inner equi-joins: a null key
  * never matches, and a projected null renders as [[NullCell]] (DESIGN.md).
  * Joins compare cells exactly, as DuckDB does; the index's normalized
  * values play no part.
  */
object Materializer {

  /** How a projected null cell renders in a [[MatView]]. */
  val NullCell = "∅"

  /** A row of cell codes with its hash computed once: rows are hashed,
    * deduplicated and joined as int tuples.
    */
  private final class Codes(val cells: Array[Int]) {
    override val hashCode: Int = Arrays.hashCode(cells)
    override def equals(o: Any): Boolean = o match {
      case that: Codes => hashCode == that.hashCode && Arrays.equals(cells, that.cells)
      case _ => false
    }
  }

  /** Lexicographic order on equal-length code rows. Codes rank cells by
    * `String.compareTo`, so this is [[MatView.rowOrdering]] on the decoded
    * rows.
    */
  private val codeOrder: Comparator[Codes] = (a: Codes, b: Codes) => {
    val x = a.cells; val y = b.cells
    var i = 0
    while (i < x.length && x(i) == y(i)) i += 1
    if (i == x.length) 0 else Integer.compare(x(i), y(i))
  }

  private def hasNull(key: Array[Int]): Boolean = {
    var i = 0
    while (i < key.length && key(i) >= 0) i += 1
    i < key.length
  }

  /** Cells `at` of `row`. */
  private def pick(row: Array[Int], at: Array[Int]): Array[Int] = {
    val out = new Array[Int](at.length)
    var j = 0
    while (j < at.length) { out(j) = row(at(j)); j += 1 }
    out
  }

  /** Row `r` of the columns `cols`. */
  private def gather(cols: Array[Array[Int]], r: Int): Array[Int] = {
    val out = new Array[Int](cols.length)
    var j = 0
    while (j < cols.length) { out(j) = cols(j)(r); j += 1 }
    out
  }

  private def concat(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = Arrays.copyOf(a, a.length + b.length)
    System.arraycopy(b, 0, out, a.length, b.length)
    out
  }

  /** Materialize one spec as a [[MatView]]: join along the join graph, then
    * project the spec's columns (named by their bare source column name;
    * collisions get positional suffixes, see [[dedupeNames]]) with set
    * semantics.
    *
    * Tables join in the order the spec's edges reach them, starting from
    * the first projected table. Each step hashes the new table on the key
    * columns of every edge that connects it to the tables already reached,
    * as one composite key, skipping rows with a null key. Every step keeps
    * only the columns still needed (the projection plus the endpoints of
    * edges not yet joined on) and deduplicates, so many-to-many
    * intermediates stay small. Rows stay cell codes until the distinct
    * output rows, in canonical column order, are sorted by code and decoded
    * once.
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
    val enc = repo.encoded
    // Columns needed once the first `k` steps have joined.
    def neededAfter(k: Int): Set[ColumnRef] =
      spec.projection.toSet ++ plan.drop(k).flatMap(_._2).flatMap(e => Seq(e.left, e.right))
    def prune(t: String, keep: Set[ColumnRef]): (Vector[ColumnRef], Array[Array[Int]]) = {
      val (cols, idx) = repo.columns(t).map(ColumnRef(t, _)).zipWithIndex.filter(p => keep(p._1)).unzip
      (cols, idx.map(enc.columns(t)).toArray)
    }

    val (firstCols, firstCodes) = prune(first, neededAfter(0))
    var cols = firstCols
    var rows = {
      val distinct = new JHashSet[Codes]
      val size = repo.rows(first).size
      var r = 0
      while (r < size) { distinct.add(new Codes(gather(firstCodes, r))); r += 1 }
      distinct
    }
    for (((t, edges), k) <- plan.zipWithIndex) {
      val keep = neededAfter(k + 1)
      val (newCols, newCodes) = prune(t, keep)
      val keyCodes = edges.map(e => enc.columns(t)(repo.columns(t).indexOf(e.endpointIn(t).column))).toArray
      val probeKey = edges.map(e => cols.indexOf(e.endpointNotIn(t))).toArray
      // Key -> the table's distinct pruned rows with that key.
      val build = new JHashMap[Codes, ArrayBuffer[Array[Int]]]
      val builtPairs = new JHashSet[Codes]
      val size = repo.rows(t).size
      var r = 0
      while (r < size) {
        val key = gather(keyCodes, r)
        if (!hasNull(key)) {
          val row = gather(newCodes, r)
          if (builtPairs.add(new Codes(concat(key, row))))
            build.computeIfAbsent(new Codes(key), _ => ArrayBuffer.empty) += row
        }
        r += 1
      }
      val carried = cols.indices.filter(i => keep(cols(i))).toArray
      val joined = new JHashSet[Codes]
      val it = rows.iterator()
      while (it.hasNext) {
        val row = it.next().cells
        val key = pick(row, probeKey)
        val matches = if (hasNull(key)) null else build.get(new Codes(key))
        if (matches != null) {
          val head = pick(row, carried)
          matches.foreach(m => joined.add(new Codes(concat(head, m))))
        }
      }
      rows = joined
      cols = carried.toVector.map(cols) ++ newCols
    }

    val names = dedupeNames(spec.projection.map(_.column))
    val canon = names.indices.sortBy(names).toVector
    val outIdx = canon.map(i => cols.indexOf(spec.projection(i))).toArray
    val out = new JHashSet[Codes]
    val it = rows.iterator()
    while (it.hasNext) {
      val row = pick(it.next().cells, outIdx)
      var j = 0
      while (j < row.length) { if (row(j) < 0) row(j) = enc.nullCellCode; j += 1 }
      out.add(new Codes(row))
    }
    val sorted = out.toArray(new Array[Codes](0))
    Arrays.sort(sorted, codeOrder)
    MatView(id, spec, canon.map(names),
      sorted.iterator.map(row => Vector.tabulate(row.cells.length)(j => enc.cells(row.cells(j)))).toVector)
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
