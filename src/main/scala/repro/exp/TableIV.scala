package repro.exp

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{ChemblLite, NoisyQuery, QueryGen, TableRepo, WdcLite}
import repro.discovery.DiscoveryIndexBuilder

/** Table IV: effect of view distillation based on 4C signals on the number
  * of views — Original, C1 (after deduplicating compatible views), C2
  * (after keeping the largest of contained views), C3 worst case / best
  * case (after unioning complementary views under the least/most reducing
  * candidate key) — for ChEMBL Q1-Q5 and WDC Q2-Q3 across the three query
  * noise levels.
  */
object TableIV {

  final case class DistillRow(query: String, noise: String,
                              original: Int, c1: Int, c2: Int, c3Worst: Int, c3Best: Int) {
    def cells: Seq[String] = Seq(query, noise, original.toString, c1.toString,
      c2.toString, c3Worst.toString, c3Best.toString)
  }

  /** Views materialized per query: the top-ranked specs. */
  val MaterializeCap = 100

  /** One Table IV query with the pipeline over its corpus. */
  final case class Query(ver: Ver, nq: NoisyQuery)

  /** Run CS pipeline + materialization + distillation for one query. */
  def distillFor(ver: Ver, nq: NoisyQuery, materializeCap: Int): DistillRow = {
    val res = ver.searchSpecs(nq.query, ColumnStrategy.ColumnSelection())
    val views = ver.materialize(res, materializeCap)
    val report = ViewDistillation.distill(views)
    DistillRow(nq.gt.name, nq.level.name, report.original, report.afterCompatible,
      report.afterContained, report.c3Worst, report.c3Best)
  }

  def queriesOn(spark: SparkSession, repo: TableRepo, gtNames: Seq[String]): Vector[Query] = {
    val ver = new Ver(repo, DiscoveryIndexBuilder.build(spark, repo))
    for {
      gt <- repo.groundTruths.filter(g => gtNames.contains(g.name))
      level <- NoiseLevel.all
    } yield Query(ver, QueryGen.generate(gt, level, 0, repo.values))
  }

  /** ChEMBL Q1-Q5, then WDC Q2-Q3, each at every noise level. */
  def queries(spark: SparkSession): Vector[Query] =
    queriesOn(spark, ChemblLite(spark), Seq("chembl-Q1", "chembl-Q2", "chembl-Q3", "chembl-Q4", "chembl-Q5")) ++
      queriesOn(spark, WdcLite(), Seq("wdc-Q2", "wdc-Q3"))

  def run(spark: SparkSession): Vector[DistillRow] =
    queries(spark).map(q => distillFor(q.ver, q.nq, MaterializeCap))

  def render(rows: Seq[DistillRow]): String =
    Fmt.table("Table IV: effect of 4C view distillation on #views",
      Seq("Query", "Noise", "Original", "C1", "C2", "C3 worst", "C3 best"),
      rows.map(_.cells))
}
