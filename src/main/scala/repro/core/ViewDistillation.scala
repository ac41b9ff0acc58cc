package repro.core

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One of the paper's 4C categories (Definitions 5-9). */
sealed abstract class Rel(val name: String) { override def toString: String = name }
object Rel {
  case object Compatible    extends Rel("compatible")
  case object Contained     extends Rel("contained")     // edge (a, b): a ⊇ b
  case object Complementary extends Rel("complementary")
  case object Contradictory extends Rel("contradictory")
}

/** A labelled edge in the 4C graph G (Problem 3). `key` is the candidate
  * key the Complementary/Contradictory label is relative to (the paper's
  * note: a pair may be contradictory under k1 and complementary under k2).
  * Contained points from the container; the other labels are undirected,
  * stored lower id first. A pair has one edge per label and key.
  */
final case class ViewEdge(a: String, b: String, rel: Rel, key: Option[String] = None)

/** A contradiction signal: a key value that maps to different rows across
  * views; `sides` groups views by which row they assert (Alg. 3 line 16-18).
  */
final case class Contradiction(key: String, keyValue: String, sides: Vector[Set[String]]) {
  require(sides.size >= 2, "a contradiction needs at least two row-groups")
  /** Degree of discrimination (§VI-B-3): views agreeing with one side. */
  def discrimination: Int = sides.map(_.size).max
}

/** Result of the distillation pipeline for one candidate-view collection:
  * the Table IV columns plus the labelled graph and contradiction signals
  * consumed downstream by VIEW-PRESENTATION.
  */
final case class DistillReport(
    original: Int,
    afterCompatible: Int,    // Table IV column C1
    afterContained: Int,     // Table IV column C2
    c3Worst: Int,            // C3, least-reducing candidate key
    c3Best: Int,             // C3, most-reducing candidate key
    edges: Vector[ViewEdge],
    distilled: Vector[MatView], // views kept after C1+C2 (Alg. 3's strategy)
    contradictions: Vector[Contradiction],
)

/** What one candidate key says about a schema block (Alg. 3 phase 2); see
  * [[ViewDistillation.keySignals]].
  */
final case class KeySignals(
    contradictions: Vector[Contradiction],
    contradictory: Vector[(String, String)], // view ids, one edge per pair
    complementary: Vector[(String, String)], // view ids, one edge per pair
    afterUnion: Int,                         // block size once complementary views union
)

/** VIEW-DISTILLATION (Algorithm 3).
  *
  * Views are compared only inside SCHEMA-BASED-BLOCKS; compatibility and
  * containment are decided on row sets, as the views' int code rows (the
  * paper's row-wise hash H[V], [[MatView]]); complementarity and
  * contradiction are decided relative to shared candidate keys via an
  * inverted index over key codes. Contradictory overrides complementary for
  * the same key (phase 2 updates phase 1's labels), and the distillation
  * strategy deduplicates compatible views and keeps the largest contained
  * view. Views that do not share a dictionary are first recoded into one
  * ([[MatView.shareDictionary]]).
  */
object ViewDistillation {

  /** SCHEMA-BASED-BLOCKS (Alg. 3, line 2): group views by canonical schema. */
  def schemaBlocks(views: Seq[MatView]): Vector[Vector[MatView]] =
    views.groupBy(_.schema).toVector.sortBy(_._1)(MatView.rowOrdering)
      .map(_._2.toVector.sortBy(_.id))

  /** A view keyed by its rows: equal keys are views with equal row sets. */
  private final class RowsKey(val view: MatView) {
    override def hashCode: Int = view.rowsHash
    override def equals(o: Any): Boolean = o match {
      case that: RowsKey =>
        view.rowsHash == that.view.rowsHash && view.size == that.view.size && view.covers(that.view)
      case _ => false
    }
  }

  /** C1: collapse groups of row-set-equal views to one representative. */
  def dedupCompatible(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val groups = MatView.shareDictionary(block).groupBy(new RowsKey(_)).values.toVector.map(_.sortBy(_.id))
    val kept = groups.map(_.head).sortBy(_.id)
    val edges = groups.flatMap(g => g.tail.map(v => ViewEdge(g.head.id, v.id, Rel.Compatible)))
    (kept, edges.sortBy(e => (e.a, e.b)))
  }

  /** C2: keep the largest view of every containment chain (Alg. 3 line
    * 9-11's distillation). Assumes compatible duplicates were removed.
    */
  def keepLargestContained(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val bySize = MatView.shareDictionary(block).sortBy(v => (-v.size, v.id))
    val kept = mutable.ArrayBuffer.empty[MatView]
    val edges = Vector.newBuilder[ViewEdge]
    for (v <- bySize) {
      kept.find(_.covers(v)) match {
        case Some(k) => edges += ViewEdge(k.id, v.id, Rel.Contained)
        case None    => kept += v
      }
    }
    (kept.sortBy(_.id).toVector, edges.result())
  }

  /** Phase 2 under one candidate key: the inverted index key code → row →
    * views over the views of `block` keyed by `key` (Definition 9's
    * `K(V1) = K(V2)` requirement) yields
    *  - contradictions: key values that map to two or more rows, sides in
    *    [[MatView.rowOrdering]]; the contradictory pairs across sides, ids in `block` order;
    *  - complementary pairs (Definition 8, with phase 2's override): views
    *    sharing some but not all of either's rows, and never on opposite
    *    sides of a contradiction; ids in `block` order;
    *  - the view count of `block` after unioning each connected component
    *    of complementary views into one view.
    */
  def keySignals(block: Vector[MatView], key: String): KeySignals = {
    val keyed = MatView.shareDictionary(block.filter(_.candidateKeys.contains(key)))
    val n = keyed.size
    // Key code -> the rows with that key value, each with the views (in
    // block order) that assert it; a keyed view asserts one row per key value.
    val index = new java.util.HashMap[Integer, mutable.ArrayBuffer[(Array[Int], mutable.ArrayBuffer[Int])]]
    for (i <- keyed.indices) {
      val k = keyed(i).columnIndex(key)
      for (row <- keyed(i).codes) {
        val sides = index.computeIfAbsent(row(k), _ => mutable.ArrayBuffer.empty)
        sides.find(s => java.util.Arrays.equals(s._1, row)) match {
          case Some(side) => side._2 += i
          case None       => sides += row -> mutable.ArrayBuffer(i)
        }
      }
    }
    // Per pair (i, j), i < j, as i * n + j: rows shared, and whether the
    // two views are on opposite sides of some key value.
    val shared = mutable.LongMap.empty[Int]
    val opposed = mutable.LongMap.empty[Unit]
    def pair(i: Int, j: Int): Long = (i min j).toLong * n + (i max j)
    index.values.forEach { sides =>
      for ((_, side) <- sides; a <- side.indices; b <- a + 1 until side.size) {
        val p = pair(side(a), side(b))
        shared(p) = shared.getOrElse(p, 0) + 1
      }
      for (x <- sides.indices; y <- x + 1 until sides.size; i <- sides(x)._2; j <- sides(y)._2)
        opposed(pair(i, j)) = ()
    }
    def ids(ps: Iterable[Long]): Vector[(Int, Int)] = ps.toVector.sorted.map(p => ((p / n).toInt, (p % n).toInt))
    val pairs = ids(shared.collect {
      case (p, s) if s < keyed((p / n).toInt).size && s < keyed((p % n).toInt).size && !opposed.contains(p) => p
    })
    val parent = Array.tabulate(n)(identity)
    def find(x: Int): Int = { if (parent(x) != x) parent(x) = find(parent(x)); parent(x) }
    for ((i, j) <- pairs) parent(find(i)) = find(j)
    // Code order is string order: key values sort by code, sides by code row.
    val contradictions = Vector.newBuilder[Contradiction]
    for ((kv, sides) <- index.asScala.toVector.sortBy(_._1.intValue) if sides.size >= 2)
      contradictions += Contradiction(key, keyed.head.cells(kv),
        sides.toVector.sortWith((x, y) => MatView.compareRows(x._1, y._1) < 0).map(_._2.map(keyed(_).id).toSet))
    KeySignals(
      contradictions = contradictions.result(),
      contradictory = ids(opposed.keys).map { case (i, j) => (keyed(i).id, keyed(j).id) },
      complementary = pairs.map { case (i, j) => (keyed(i).id, keyed(j).id) },
      afterUnion = block.size - n + keyed.indices.count(i => find(i) == i))
  }

  /** The full distillation pipeline over a candidate-view collection. C3
    * best/worst are the min/max of `afterUnion` over candidate keys shared
    * by ≥ 2 views; with no such key no union is possible (paper: "many
    * views do not have valid candidate keys, so there are no unionable
    * views").
    */
  def distill(views: Seq[MatView]): DistillReport = {
    val blocks = schemaBlocks(MatView.shareDictionary(views.toVector))
    val edges = Vector.newBuilder[ViewEdge]
    var afterC1 = 0; var afterC2 = 0; var worst = 0; var best = 0
    val distilled = Vector.newBuilder[MatView]
    val contradictions = Vector.newBuilder[Contradiction]
    for (block <- blocks) {
      val (c1, compatEdges) = dedupCompatible(block)
      edges ++= compatEdges
      afterC1 += c1.size
      val (c2, containEdges) = keepLargestContained(c1)
      edges ++= containEdges
      afterC2 += c2.size
      distilled ++= c2
      val keys = c2.flatMap(_.candidateKeys).distinct.sorted
        .filter(k => c2.count(_.candidateKeys.contains(k)) >= 2)
      val counts = for (k <- keys) yield {
        val s = keySignals(c2, k)
        contradictions ++= s.contradictions
        edges ++= s.contradictory.map { case (a, b) => ViewEdge(a, b, Rel.Contradictory, Some(k)) }
        edges ++= s.complementary.map { case (a, b) => ViewEdge(a, b, Rel.Complementary, Some(k)) }
        s.afterUnion
      }
      // worst = least reduction, best = most
      worst += counts.maxOption.getOrElse(c2.size); best += counts.minOption.getOrElse(c2.size)
    }
    DistillReport(views.size, afterC1, afterC2, worst, best,
      edges.result(), distilled.result(), contradictions.result())
  }
}
