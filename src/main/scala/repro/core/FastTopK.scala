package repro.core

import repro.discovery.DiscoveryIndex

/** The FASTTOPK comparator (S4 [35]): overlap-based scoring of candidate
  * views plus a ranked-list browsing model for the simulated user study.
  * Scores are computed from column profiles (the number of example values
  * contained in each projected column) so ranking does not require
  * materializing the candidate set.
  */
object FastTopK {

  /** Overlap of a spec's projected columns with the query examples. */
  def overlapScore(spec: ViewSpec, index: DiscoveryIndex, q: ExampleQuery): Int =
    spec.projection.zipWithIndex.map { case (c, i) =>
      index.overlap(c, if (i < q.columns.size) q.columns(i) else Vector.empty)
    }.sum

  /** Size proxy used to break ties (larger coverage first, mimicking
    * top-k spreadsheet search's preference for more complete answers).
    */
  def sizeProxy(spec: ViewSpec, index: DiscoveryIndex): Int =
    spec.projection.map(index.distinctCount).sum

  /** Rank specs by (overlap desc, size desc, name). */
  def rank(specs: Seq[ViewSpec], index: DiscoveryIndex, q: ExampleQuery): Vector[ViewSpec] =
    specs.toVector.sortBy(s => (-overlapScore(s, index, q), -sizeProxy(s, index), s.toString))

  /** Browsing session: the user examines ranked views one by one with a
    * bounded patience; found if the target appears before patience runs
    * out. Returns (found, views examined).
    */
  def browse(ranked: Seq[ViewSpec], isTarget: ViewSpec => Boolean, patience: Int): (Boolean, Int) = {
    val idx = ranked.indexWhere(isTarget)
    if (idx >= 0 && idx < patience) (true, idx + 1)
    else (false, math.min(patience, ranked.size))
  }
}
