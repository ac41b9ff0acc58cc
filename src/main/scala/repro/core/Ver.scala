package repro.core

import repro.data.{GroundTruth, TableRepo}
import repro.discovery.DiscoveryIndex

/** The end-to-end Ver pipeline (Algorithm 1) over one repo + index:
  * per-attribute candidate selection (pluggable strategy), join graph
  * search, and optional materialization. The interactive components
  * (VIEW-PRESENTATION) consume its outputs.
  */
final class Ver(val repo: TableRepo, val index: DiscoveryIndex) {

  /** COLUMN-SELECTION + JOIN-GRAPH-SEARCH for a QBE query. */
  def searchSpecs(q: ExampleQuery, strategy: ColumnStrategy = ColumnStrategy.ColumnSelection()): SearchResult = {
    val cands = q.columns.map(ex => strategy.select(ex, index))
    if (cands.exists(_.isEmpty)) SearchResult(Vector.empty, 0, 0)
    else JoinGraphSearch.search(cands, index)
  }

  /** Materialize the ranked specs (top `limit`) with the driver-side
    * MATERIALIZER, which joins over the repo's rows.
    */
  def materialize(result: SearchResult, limit: Int = Int.MaxValue): Vector[MatView] =
    Materializer.materializeAll(repo, result.specs, limit)
}

object Ver {
  /** Ground-truth hit (Table V metric): the ground-truth view spec — same
    * tables, same join edges, same projected columns in the same order — is
    * among the candidates. Sound because workload queries are generated from
    * GT specs over the same discovery index.
    */
  def hit(result: SearchResult, gt: GroundTruth): Boolean =
    result.specs.exists(_.key == gt.spec.key)
}
