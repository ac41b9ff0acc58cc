package repro.core

import scala.collection.mutable

/** Reference VIEW-DISTILLATION: pairwise and set-based. C1 and C2 compare
  * every pair of views' row sets. In phase 2 contradictions come from an
  * inverted index, contradictory and complementary pairs from comparing
  * every pair of keyed views (re-grouping both views' rows per pair), and C3
  * re-runs the pair comparison for every key. Slow but simple; tests compare
  * `ViewDistillation.distill` against it.
  */
object DistillReference {

  /** C1: a view is kept unless a view of lower id has its row set; the
    * Compatible edge comes from the lowest such id.
    */
  def dedupCompatible(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val edges = for {
      v <- block
      first = block.filter(_.rows.toSet == v.rows.toSet).minBy(_.id) if first.id != v.id
    } yield ViewEdge(first.id, v.id, Rel.Compatible)
    (block.filterNot(v => edges.exists(_.b == v.id)).sortBy(_.id), edges.sortBy(e => (e.a, e.b)))
  }

  /** C2 on a block without compatible views: a view is dropped when a larger
    * view contains its rows. The Contained edge comes from the first such
    * view by (−size, id), which is the largest, so no view contains it;
    * edges follow the dropped views in the same order.
    */
  def keepLargestContained(block: Vector[MatView]): (Vector[MatView], Vector[ViewEdge]) = {
    val bySize = block.sortBy(v => (-v.size, v.id))
    val edges = for {
      v <- bySize
      w <- bySize.find(w => w.size > v.size && v.rows.toSet.subsetOf(w.rows.toSet))
    } yield ViewEdge(w.id, v.id, Rel.Contained)
    (block.filterNot(v => edges.exists(_.b == v.id)).sortBy(_.id), edges)
  }

  def contradictionsFor(block: Vector[MatView], key: String): Vector[Contradiction] = {
    val keyed = block.filter(_.candidateKeys.contains(key))
    if (keyed.size < 2) return Vector.empty
    // keyValue -> row -> views asserting that row
    val index = mutable.Map.empty[String, mutable.Map[Vector[String], mutable.Set[String]]]
    for (v <- keyed; row <- v.rows.toSet[Vector[String]]) {
      val kv = row(v.columnIndex(key))
      index.getOrElseUpdate(kv, mutable.Map.empty)
        .getOrElseUpdate(row, mutable.Set.empty) += v.id
    }
    index.toVector.collect {
      case (kv, groups) if groups.size >= 2 =>
        Contradiction(key, kv, groups.toVector.sortBy(_._1)(MatView.rowOrdering).map(_._2.toSet))
    }.sortBy(c => (c.key, c.keyValue))
  }

  /** Whether two views contradict under `key` (some shared key value maps
    * to different rows).
    */
  def contradicts(v1: MatView, v2: MatView, key: String): Boolean = {
    val i1 = v1.columnIndex(key); val i2 = v2.columnIndex(key)
    val m1 = v1.rows.toSet[Vector[String]].groupBy(_(i1)); val m2 = v2.rows.toSet[Vector[String]].groupBy(_(i2))
    (m1.keySet intersect m2.keySet).exists(kv => m1(kv) != m2(kv))
  }

  /** Every pair of views keyed by `key`, lower id first, in id order. */
  private def keyedPairs(block: Vector[MatView], key: String): Vector[(MatView, MatView)] = {
    val keyed = block.filter(_.candidateKeys.contains(key)).sortBy(_.id)
    for (i <- keyed.indices.toVector; j <- (i + 1 until keyed.size).toVector) yield (keyed(i), keyed(j))
  }

  /** Contradictory pairs under `key`: keyed views that [[contradicts]]. */
  def contradictoryPairs(block: Vector[MatView], key: String): Vector[(MatView, MatView)] =
    keyedPairs(block, key).filter { case (v1, v2) => contradicts(v1, v2, key) }

  /** Complementary pairs under `key`: overlap, no containment, and no
    * contradiction under the same key.
    */
  def complementaryPairs(block: Vector[MatView], key: String): Vector[(MatView, MatView)] =
    for {
      (v1, v2) <- keyedPairs(block, key)
      if (v1.rows.toSet intersect v2.rows.toSet).nonEmpty
      if !v1.rows.toSet.subsetOf(v2.rows.toSet) && !v2.rows.toSet.subsetOf(v1.rows.toSet)
      if !contradicts(v1, v2, key)
    } yield (v1, v2)

  /** Views left in `block` after unioning complementary views under `key`. */
  def countAfterUnion(block: Vector[MatView], key: String): Int = {
    val keyed = block.filter(_.candidateKeys.contains(key))
    val others = block.size - keyed.size
    if (keyed.isEmpty) return block.size
    val parent = mutable.Map(keyed.map(v => v.id -> v.id): _*)
    def find(x: String): String = { if (parent(x) != x) parent(x) = find(parent(x)); parent(x) }
    for ((a, b) <- complementaryPairs(block, key)) parent(find(a.id)) = find(b.id)
    others + keyed.map(v => find(v.id)).distinct.size
  }

  /** C3 (worst, best) for one block over keys shared by ≥ 2 views. */
  def c3Counts(block: Vector[MatView]): (Int, Int) = {
    val keys = block.flatMap(_.candidateKeys).groupBy(identity)
      .collect { case (k, occ) if occ.size >= 2 => k }.toVector.sorted
    if (keys.isEmpty) (block.size, block.size)
    else {
      val counts = keys.map(k => countAfterUnion(block, k))
      (counts.max, counts.min)
    }
  }

  def distill(views: Seq[MatView]): DistillReport = {
    val blocks = ViewDistillation.schemaBlocks(views)
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
      for (k <- keys) {
        val cs = contradictionsFor(c2, k)
        contradictions ++= cs
        edges ++= contradictoryPairs(c2, k).map { case (a, b) =>
          ViewEdge(a.id, b.id, Rel.Contradictory, Some(k))
        }
        edges ++= complementaryPairs(c2, k).map { case (a, b) =>
          ViewEdge(a.id, b.id, Rel.Complementary, Some(k))
        }
      }
      val (w, b) = c3Counts(c2)
      worst += w; best += b
    }
    DistillReport(views.size, afterC1, afterC2, worst, best,
      edges.result(), distilled.result(), contradictions.result())
  }
}
