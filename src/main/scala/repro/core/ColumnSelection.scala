package repro.core

import repro.discovery.DiscoveryIndex

/** COLUMN-SELECTION (Algorithm 4) and the Table-V baselines.
  *
  * Given one query attribute's example values, each strategy returns the
  * candidate columns that JOIN-GRAPH-SEARCH will try to connect:
  *
  *  - [[ColumnStrategy.ColumnSelection]] — Ver: columns with non-empty
  *    example overlap, clustered by connected components of the NEIGHBORS
  *    hypergraph; clusters scored by their best column's overlap; top-θ
  *    score tiers returned. Robust to noise because the noise column sits
  *    in the ground-truth cluster.
  *  - [[ColumnStrategy.SelectAll]] — FASTTOPK: any column containing at
  *    least one example.
  *  - [[ColumnStrategy.SelectBest]] — SQuID: only the argmax-overlap
  *    column(s); collapses when a noise column covers the examples better
  *    than the ground-truth column.
  */
object ColumnSelection {

  /** A candidate-column cluster with its score (Alg. 4, line 7:
    * `max_col |col ∩ χ.A_i|`).
    */
  final case class Cluster(columns: Set[ColumnRef], score: Int) {
    require(columns.nonEmpty)
  }

  /** Columns with non-empty overlap with the examples (Alg. 4, lines 2-4). */
  def candidateColumns(examples: Vector[String], index: DiscoveryIndex): Set[ColumnRef] =
    examples.flatMap(index.searchKeyword).toSet

  /** Cluster candidates via NEIGHBORS connected components and score them. */
  def clusters(examples: Vector[String], index: DiscoveryIndex): Vector[Cluster] = {
    val cand = candidateColumns(examples, index)
    index.connectedComponents(cand).map { comp =>
      Cluster(comp, comp.map(index.overlap(_, examples)).max)
    }
  }

  /** Full Algorithm 4: columns of the top-θ score tiers of clusters. */
  def select(examples: Vector[String], index: DiscoveryIndex, theta: Int = 1): Set[ColumnRef] = {
    require(theta >= 1, "theta must be ≥ 1")
    val cs = clusters(examples, index)
    if (cs.isEmpty) Set.empty
    else {
      val tiers = cs.map(_.score).distinct.sorted(Ordering[Int].reverse).take(theta).toSet
      cs.filter(c => tiers.contains(c.score)).flatMap(_.columns).toSet
    }
  }
}

/** A per-attribute candidate-column selection strategy. */
sealed trait ColumnStrategy {
  def name: String
  def select(examples: Vector[String], index: DiscoveryIndex): Set[ColumnRef]
}

object ColumnStrategy {
  /** Ver's COLUMN-SELECTION at clustering threshold θ. */
  final case class ColumnSelection(theta: Int = 1) extends ColumnStrategy {
    val name = "CS"
    def select(examples: Vector[String], index: DiscoveryIndex): Set[ColumnRef] =
      repro.core.ColumnSelection.select(examples, index, theta)
  }

  /** FASTTOPK: every column containing at least one example. */
  case object SelectAll extends ColumnStrategy {
    val name = "SA"
    def select(examples: Vector[String], index: DiscoveryIndex): Set[ColumnRef] =
      repro.core.ColumnSelection.candidateColumns(examples, index)
  }

  /** SQuID: the column(s) containing the highest number of examples. */
  case object SelectBest extends ColumnStrategy {
    val name = "SB"
    def select(examples: Vector[String], index: DiscoveryIndex): Set[ColumnRef] = {
      val cand = repro.core.ColumnSelection.candidateColumns(examples, index)
      if (cand.isEmpty) Set.empty
      else {
        val scored = cand.map(c => c -> index.overlap(c, examples))
        val best = scored.map(_._2).max
        scored.filter(_._2 == best).map(_._1)
      }
    }
  }
}
