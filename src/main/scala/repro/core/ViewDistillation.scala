package repro.core

import scala.collection.mutable

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
  * containment are decided on row sets (the paper's row-wise hash H[V]);
  * complementarity and contradiction are decided relative to shared
  * candidate keys via an inverted index over key values. Contradictory
  * overrides complementary for the same key (phase 2 updates phase 1's
  * labels), and the distillation strategy deduplicates compatible views and
  * keeps the largest contained view.
  */
object ViewDistillation {

  /** SCHEMA-BASED-BLOCKS (Alg. 3, line 2): group views by canonical schema. */
  def schemaBlocks(views: Seq[MatView]): Vector[Vector[MatView]] =
    views.groupBy(_.schema).toVector.sortBy(_._1)(MatView.rowOrdering)
      .map(_._2.toVector.sortBy(_.id))

  /** C1: collapse groups of row-set-equal views to one representative. */
  def dedupCompatible(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val groups = block.groupBy(_.rowSet).values.toVector.map(_.sortBy(_.id))
    val kept = groups.map(_.head).sortBy(_.id)
    val edges = groups.flatMap(g => g.tail.map(v => ViewEdge(g.head.id, v.id, Rel.Compatible)))
    (kept, edges.sortBy(e => (e.a, e.b)))
  }

  /** C2: keep the largest view of every containment chain (Alg. 3 line
    * 9-11's distillation). Assumes compatible duplicates were removed.
    */
  def keepLargestContained(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val bySize = block.sortBy(v => (-v.size, v.id))
    val kept = mutable.ArrayBuffer.empty[MatView]
    val edges = Vector.newBuilder[ViewEdge]
    for (v <- bySize) {
      kept.find(k => v.rowSet.subsetOf(k.rowSet)) match {
        case Some(k) => edges += ViewEdge(k.id, v.id, Rel.Contained)
        case None    => kept += v
      }
    }
    (kept.sortBy(_.id).toVector, edges.result())
  }

  /** Phase 2 under one candidate key: the inverted index key value → row →
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
    val keyed = block.filter(_.candidateKeys.contains(key))
    val index = mutable.Map.empty[String, mutable.Map[Vector[String], mutable.Set[Int]]]
    for ((v, i) <- keyed.zipWithIndex; row <- v.rowSet) {
      index.getOrElseUpdate(row(v.columnIndex(key)), mutable.Map.empty)
        .getOrElseUpdate(row, mutable.Set.empty) += i
    }
    // A keyed view asserts one row per key value, so a pair sharing a row
    // shares it under that row's key value only.
    val shared = mutable.Map.empty[(Int, Int), Int].withDefaultValue(0)
    val opposed = mutable.Set.empty[(Int, Int)]
    for (groups <- index.values) {
      val sides = groups.values.toVector.map(_.toVector.sorted)
      for (side <- sides; a <- side.indices; b <- a + 1 until side.size) shared((side(a), side(b))) += 1
      for (x <- sides.indices; y <- x + 1 until sides.size; i <- sides(x); j <- sides(y))
        opposed += ((i min j, i max j))
    }
    val pairs = shared.toVector.collect {
      case ((i, j), n) if n < keyed(i).size && n < keyed(j).size && !opposed((i, j)) => (i, j)
    }.sorted
    val parent = Array.tabulate(keyed.size)(identity)
    def find(x: Int): Int = { if (parent(x) != x) parent(x) = find(parent(x)); parent(x) }
    for ((i, j) <- pairs) parent(find(i)) = find(j)
    KeySignals(
      contradictions = index.toVector.collect {
        case (kv, groups) if groups.size >= 2 =>
          Contradiction(key, kv,
            groups.toVector.sortBy(_._1)(MatView.rowOrdering).map(_._2.map(keyed(_).id).toSet))
      }.sortBy(_.keyValue),
      contradictory = opposed.toVector.sorted.map { case (i, j) => (keyed(i).id, keyed(j).id) },
      complementary = pairs.map { case (i, j) => (keyed(i).id, keyed(j).id) },
      afterUnion = block.size - keyed.size + keyed.indices.count(i => find(i) == i))
  }

  /** The full distillation pipeline over a candidate-view collection. C3
    * best/worst are the min/max of `afterUnion` over candidate keys shared
    * by ≥ 2 views; with no such key no union is possible (paper: "many
    * views do not have valid candidate keys, so there are no unionable
    * views").
    */
  def distill(views: Seq[MatView]): DistillReport = {
    val blocks = schemaBlocks(views)
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
