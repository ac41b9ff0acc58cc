package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{ChemblLite, QueryGen, WdcLite}
import repro.discovery.DiscoveryIndexBuilder

/** Table V: ground-truth hit ratio over the 150-query noisy workload
  * (2 datasets × 5 ground truths × 3 noise levels × 5 replicates), for the
  * three column-selection strategies SA (SELECT-ALL), SB (SELECT-BEST) and
  * CS (COLUMN-SELECTION). Also records the mean candidate-view counts per
  * strategy, backing the paper's Figures 5-7 claim that SA's hit rate comes
  * at a much larger candidate space.
  */
object TableV {

  val Replicates = 5
  val Strategies: Vector[ColumnStrategy] =
    Vector(ColumnStrategy.SelectAll, ColumnStrategy.SelectBest, ColumnStrategy.ColumnSelection())

  final case class HitCell(strategy: String, noise: String, hits: Int, total: Int, meanViews: Double) {
    def ratio: Double = hits.toDouble / total
  }

  def run(spark: SparkSession): Vector[HitCell] = {
    val vers = Vector(ChemblLite(spark), WdcLite())
      .map(repo => new Ver(repo, DiscoveryIndexBuilder.build(spark, repo)))
    val cells = for {
      strategy <- Strategies
      level <- NoiseLevel.all
    } yield {
      var hits = 0; var total = 0; var views = 0L
      for (ver <- vers; gt <- ver.repo.groundTruths; r <- 0 until Replicates) {
        val nq = QueryGen.generate(gt, level, r, ver.repo.values)
        val res = ver.searchSpecs(nq.query, strategy)
        if (Ver.hit(res, gt)) hits += 1
        total += 1
        views += res.views
      }
      HitCell(strategy.name, level.name, hits, total, views.toDouble / total)
    }
    cells
  }

  def render(cells: Seq[HitCell]): String = {
    val byNoise = NoiseLevel.all.map(_.name)
    val rows = byNoise.map { noise =>
      val per = Vector("SA", "SB", "CS").map { s =>
        val c = cells.find(x => x.strategy == s && x.noise == noise).get
        f"${c.ratio}%.2f (views ${c.meanViews}%.0f)"
      }
      Seq(noise) ++ per
    }
    Fmt.table("Table V: ground-truth hit ratio over the noisy workload",
      Seq("Noise", "SA", "SB", "CS"), rows)
  }
}
