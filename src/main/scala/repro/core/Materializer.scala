package repro.core

import java.util.{Arrays, HashMap => JHashMap, HashSet => JHashSet}
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
  *
  * Each row is also kept as int codes, `codes(i)` coding `rows(i)` against
  * the sorted dictionary `cells`: the paper's row hash H[V], on which 4C
  * and the presenter compare rows. Views materialized from one repo share
  * its dictionary ([[TableRepo.encoded]]); a dictionary ranks cells by
  * `String.compareTo`, so code order is the canonical row order. Equality is
  * value equality over (id, spec, schema, rows), whatever the dictionary.
  */
final class MatView private (val id: String, val spec: ViewSpec, val schema: Vector[String],
    val rows: Vector[Vector[String]], private[core] val cells: Array[String],
    private[core] val codes: Array[Array[Int]]) {
  require(schema.distinct.size == schema.size, s"$id: duplicate column names in $schema")
  require(rows.forall(_.size == schema.size), s"$id: ragged rows")

  /** The number of rows, all distinct. */
  def size: Int = codes.length

  /** Single-column candidate keys: columns whose values are row-unique. */
  lazy val candidateKeys: Vector[String] = schema.indices.collect {
    case i if {
      val col = Array.tabulate(codes.length)(codes(_)(i))
      Arrays.sort(col)
      (1 until col.length).forall(r => col(r) != col(r - 1))
    } => schema(i)
  }.toVector

  def columnIndex(name: String): Int = {
    val i = schema.indexOf(name)
    require(i >= 0, s"$id: no column $name in $schema")
    i
  }

  /** A hash of the code rows, computed once: C1 groups views by it. */
  private[core] lazy val rowsHash: Int = codes.foldLeft(1)((h, r) => 31 * h + Arrays.hashCode(r))

  /** Whether every row of `that` is a row of this view: a merge walk over
    * both views' sorted code rows, after [[MatView.shareDictionary]] when
    * their dictionaries differ.
    */
  private[core] def covers(that: MatView): Boolean =
    if (!(cells eq that.cells)) {
      val both = MatView.shareDictionary(Vector(this, that))
      both(0).covers(both(1))
    } else if (that.codes.length > codes.length) false
    else {
      val x = that.codes; val y = codes
      var i = 0; var j = 0
      while (i < x.length && j < y.length) {
        val c = MatView.compareRows(x(i), y(j))
        if (c < 0) return false
        if (c == 0) i += 1
        j += 1
      }
      i == x.length
    }

  /** The same rows under another id or spec. */
  def copy(id: String = id, spec: ViewSpec = spec): MatView = new MatView(id, spec, schema, rows, cells, codes)

  override def equals(o: Any): Boolean = o match {
    case that: MatView =>
      (this eq that) || id == that.id && spec == that.spec && schema == that.schema && rows == that.rows
    case _ => false
  }
  override lazy val hashCode: Int = (id, spec, schema, rows).##
  override def toString: String = s"MatView($id,$spec,$schema,$rows)"
}

object MatView {
  /** The canonical row order: cell by cell, by `String.compareTo`. */
  val rowOrdering: Ordering[Vector[String]] = Ordering.Implicits.seqOrdering[Vector, String]

  /** A view of rows that are already distinct and in [[rowOrdering]];
    * rejects any others.
    */
  def apply(id: String, spec: ViewSpec, schema: Vector[String], rows: Vector[Vector[String]]): MatView = {
    require(rows.iterator.zip(rows.iterator.drop(1)).forall { case (a, b) => rowOrdering.lt(a, b) },
      s"$id: rows not distinct and in canonical order")
    encode(id, spec, schema, rows)
  }

  /** Build from rows already on the driver, canonicalizing schema order. */
  def fromRows(id: String, spec: ViewSpec, schema: Vector[String], rows: Seq[Seq[String]]): MatView = {
    val order = schema.zipWithIndex.sortBy(_._1).map(_._2)
    val canonSchema = order.map(schema(_))
    val canonRows = rows.map(r => order.map(r(_))).distinct.sorted(rowOrdering)
    encode(id, spec, canonSchema, canonRows.toVector)
  }

  /** Codes canonical `rows` against the sorted dictionary of their own cells. */
  private def encode(id: String, spec: ViewSpec, schema: Vector[String], rows: Vector[Vector[String]]): MatView = {
    val cells = rows.flatten.distinct.sorted.toArray
    val code = cells.iterator.zipWithIndex.toMap
    new MatView(id, spec, schema, rows, cells, rows.iterator.map(_.iterator.map(code).toArray).toArray)
  }

  /** A view of code rows, distinct and sorted, against the sorted
    * dictionary `cells`; each row is decoded once.
    */
  private[core] def decode(id: String, spec: ViewSpec, schema: Vector[String], cells: Array[String],
                           codes: Array[Array[Int]]): MatView =
    new MatView(id, spec, schema, codes.iterator.map(r => Vector.tabulate(r.length)(j => cells(r(j)))).toVector,
      cells, codes)

  /** Lexicographic order on code rows, shorter first on a common prefix:
    * [[rowOrdering]] on the decoded rows of one dictionary.
    */
  private[core] def compareRows(x: Array[Int], y: Array[Int]): Int = {
    val n = math.min(x.length, y.length)
    var i = 0
    while (i < n && x(i) == y(i)) i += 1
    if (i < n) Integer.compare(x(i), y(i)) else Integer.compare(x.length, y.length)
  }

  /** `views` over one dictionary: as they are when they share one, else
    * each recoded into the sorted union of their dictionaries. Every
    * dictionary ranks cells by `String.compareTo`, so recoding keeps each
    * view's code order. Only hand-built views, which each have a dictionary
    * of their own, ever need it; it is the one place where cells are
    * compared as strings after the MATERIALIZER.
    */
  private[core] def shareDictionary(views: Vector[MatView]): Vector[MatView] =
    if (views.forall(_.cells eq views.head.cells)) views
    else {
      val dictionaries = views.map(_.cells).distinct
      val union = dictionaries.flatten.distinct.sorted.toArray
      val codeOf = union.iterator.zipWithIndex.toMap
      val recode = dictionaries.map(d => d.map(codeOf))
      views.map { v =>
        val map = recode(dictionaries.indexWhere(_ eq v.cells))
        new MatView(v.id, v.spec, v.schema, v.rows, union, v.codes.map(_.map(map)))
      }
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
    * once; the view keeps the sorted codes against the repo's dictionary.
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
    Arrays.sort(sorted, (a: Codes, b: Codes) => MatView.compareRows(a.cells, b.cells))
    MatView.decode(id, spec, canon.map(names), enc.cells, sorted.map(_.cells))
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
