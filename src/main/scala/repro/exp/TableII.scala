package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{NoisyQuery, QueryGen, TableRepo, WdcLite}
import repro.discovery.{DiscoveryIndex, DiscoveryIndexBuilder}

/** Table II: the 5 WDC user-study tasks with the number of candidate views
  * generated by Ver (COLUMN-SELECTION) versus FASTTOPK (SELECT-ALL). The
  * paper reports e.g. 397 vs 2255 — the reproducible claim is the shape:
  * SELECT-ALL generates a multiple of Ver's candidate set.
  */
object TableII {

  final case class TaskRow(query: String, examples: String, verViews: Int, ftkViews: Int)

  final case class Env(repo: TableRepo, index: DiscoveryIndex, ver: Ver)

  def env(spark: SparkSession): Env = {
    val repo = WdcLite()
    val index = DiscoveryIndexBuilder.build(spark, repo)
    Env(repo, index, new Ver(repo, index))
  }

  def queries(e: Env): Vector[NoisyQuery] =
    e.repo.groundTruths.map(gt => QueryGen.generate(gt, repro.core.NoiseLevel.Zero, 0, e.repo.values))

  def run(spark: SparkSession): Vector[TaskRow] = {
    val e = env(spark)
    queries(e).map { nq =>
      val ver = e.ver.searchSpecs(nq.query, ColumnStrategy.ColumnSelection())
      val ftk = e.ver.searchSpecs(nq.query, ColumnStrategy.SelectAll)
      TaskRow(nq.gt.name, nq.query.columns.map(_.mkString("/")).mkString(" ; "),
        ver.views, ftk.views)
    }
  }

  def render(rows: Seq[TaskRow]): String =
    Fmt.table("Table II: #Views generated by Ver vs FASTTOPK (WDC tasks)",
      Seq("Query", "Example", "Ver #Views", "FASTTOPK #Views"),
      rows.map(r => Seq(r.query, r.examples, r.verViews.toString, r.ftkViews.toString)))
}
