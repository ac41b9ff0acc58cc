package repro.core

import java.util.Locale

import repro.SparkSpec
import repro.data._
import repro.discovery.{DiscoveryIndex, DiscoveryIndexBuilder}

/** End-to-end pipeline tests over both corpora: the full Algorithm 1 flow
  * from noisy QBE query to distilled, presentable views.
  */
class VerEndToEndSpec extends SparkSpec {
  private lazy val wdcRepo = WdcLite()
  private lazy val wdcIndex = DiscoveryIndexBuilder.build(spark, wdcRepo)
  private lazy val wdcVer = new Ver(wdcRepo, wdcIndex)
  private lazy val chemblRepo = ChemblLite(spark)
  private lazy val chemblIndex = DiscoveryIndexBuilder.build(spark, chemblRepo)
  private lazy val chemblVer = new Ver(chemblRepo, chemblIndex)

  private def envs: Seq[(TableRepo, DiscoveryIndex, Ver)] =
    Seq((wdcRepo, wdcIndex, wdcVer), (chemblRepo, chemblIndex, chemblVer))

  test("COLUMN-SELECTION finds every ground truth at zero noise") {
    for ((repo, index, ver) <- envs; gt <- repo.groundTruths) {
      val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, repo.values)
      assert(Ver.hit(ver.searchSpecs(nq.query), gt), gt.name)
    }
  }
  test("COLUMN-SELECTION still finds the ground truth at medium noise") {
    for ((repo, index, ver) <- envs; gt <- repo.groundTruths) {
      val nq = QueryGen.generate(gt, NoiseLevel.Med, 0, repo.values)
      assert(Ver.hit(ver.searchSpecs(nq.query), gt), gt.name)
    }
  }
  test("SELECT-ALL candidate specs are a superset of COLUMN-SELECTION's") {
    for ((repo, index, ver) <- envs; gt <- repo.groundTruths.take(2)) {
      val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, repo.values)
      val cs = ver.searchSpecs(nq.query, ColumnStrategy.ColumnSelection()).specs.map(_.key).toSet
      val sa = ver.searchSpecs(nq.query, ColumnStrategy.SelectAll).specs.map(_.key).toSet
      assert(cs.subsetOf(sa), gt.name)
    }
  }
  test("SELECT-BEST candidate specs are a subset of SELECT-ALL's") {
    for ((repo, index, ver) <- envs; gt <- repo.groundTruths.take(2)) {
      val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, repo.values)
      val sb = ver.searchSpecs(nq.query, ColumnStrategy.SelectBest).specs.map(_.key).toSet
      val sa = ver.searchSpecs(nq.query, ColumnStrategy.SelectAll).specs.map(_.key).toSet
      assert(sb.subsetOf(sa), gt.name)
    }
  }
  test("SELECT-BEST misses ground truths under noise (the Table V collapse)") {
    val misses = (for {
      (repo, index, ver) <- envs; gt <- repo.groundTruths; r <- 0 until 3
    } yield {
      val nq = QueryGen.generate(gt, NoiseLevel.High, r, repo.values)
      Ver.hit(ver.searchSpecs(nq.query, ColumnStrategy.SelectBest), gt)
    }).count(_ == false)
    assert(misses >= 20, s"SB must miss most of the 30 high-noise queries (missed $misses)")
  }
  test("the search result funnel reports consistent statistics") {
    val gt = wdcRepo.groundTruths.head
    val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, wdcRepo.values)
    val r = wdcVer.searchSpecs(nq.query)
    assert(r.views == r.specs.size)
    assert(r.joinGraphs >= r.views, "specs deduplicate join graphs")
    assert(r.joinableGroups >= 1)
    assert(r.specs.map(_.key).distinct.size == r.specs.size)
  }
  test("ranked specs put smaller join graphs first") {
    val gt = wdcRepo.groundTruths.head
    val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, wdcRepo.values)
    val hops = wdcVer.searchSpecs(nq.query).specs.map(_.hops)
    assert(hops == hops.sorted)
  }
  test("chembl-Q3 materializes a compatible trio (aligned join keys)") {
    val gt = chemblRepo.groundTruths.find(_.name == "chembl-Q3").get
    val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, chemblRepo.values)
    val views = chemblVer.materialize(chemblVer.searchSpecs(nq.query), limit = 40)
    val report = ViewDistillation.distill(views)
    assert(report.afterCompatible < report.original,
      "joining on cell_id/cell_name/cell_description yields identical views")
    assert(report.edges.exists(_.rel == Rel.Compatible))
  }
  test("wdc-Q2 distillation prunes contained views sharply") {
    val gt = wdcRepo.groundTruths.find(_.name == "wdc-Q2").get
    val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, wdcRepo.values)
    val views = wdcVer.materialize(wdcVer.searchSpecs(nq.query), limit = 50)
    val report = ViewDistillation.distill(views)
    assert(report.afterContained < report.afterCompatible)
    assert(report.edges.exists(_.rel == Rel.Contained))
  }
  test("a perfect simulated user finds the ground-truth view end to end") {
    val gt = wdcRepo.groundTruths.find(_.name == "wdc-Q3").get
    val nq = QueryGen.generate(gt, NoiseLevel.Zero, 0, wdcRepo.values)
    val views = wdcVer.materialize(wdcVer.searchSpecs(nq.query), limit = 50)
    val report = ViewDistillation.distill(views)
    val target = Materializer.materialize(wdcRepo, gt.spec, "target")
    val scores = views.map(v => v.id -> FastTopK.overlapScore(v.spec, wdcIndex, nq.query).toDouble).toMap
    val presenter = new Presenter(report.distilled, report, scores)
    val session = presenter.run(
      SimUser("perfect", Interface.all.map(_ -> 1.0).toMap, patience = 10, seed = 5), target)
    assert(session.found)
  }
  test("empty candidate sets short-circuit to an empty result") {
    val r = wdcVer.searchSpecs(ExampleQuery(Vector(Vector("no-such-value"), Vector("State_01"))))
    assert(r.specs.isEmpty && r.views == 0)
  }
  test("a query whose examples appear in no column gives an empty result for SA, SB and CS") {
    val absent = Vector("no-such-value", "also-absent")
    for (q <- Seq(ExampleQuery(Vector(absent)), ExampleQuery(Vector(absent, absent.reverse)));
         strategy <- Seq(ColumnStrategy.SelectAll, ColumnStrategy.SelectBest, ColumnStrategy.ColumnSelection())) {
      val r = wdcVer.searchSpecs(q, strategy)
      assert(r == SearchResult(Vector.empty, 0, 0), s"${strategy.name} $q")
      assert(wdcRepo.groundTruths.forall(gt => !Ver.hit(r, gt)), s"${strategy.name} $q")
    }
  }
  test("lower-cased examples select the same columns and cluster scores as the original case") {
    val ex = Vector("State_12", "State_19", "State_09")
    val lower = ex.map(_.toLowerCase(Locale.ROOT))
    val sa = ColumnStrategy.SelectAll.select(ex, wdcIndex)
    assert(ColumnStrategy.SelectAll.select(lower, wdcIndex) == sa)
    val sb = ColumnStrategy.SelectBest.select(ex, wdcIndex)
    assert(sb.size < sa.size, "SB keeps only the best-overlap columns")
    assert(ColumnStrategy.SelectBest.select(lower, wdcIndex) == sb)
    assert(ColumnSelection.clusters(lower, wdcIndex) == ColumnSelection.clusters(ex, wdcIndex))
    assert(ColumnStrategy.ColumnSelection().select(lower, wdcIndex) ==
      ColumnStrategy.ColumnSelection().select(ex, wdcIndex))
  }
}
