package verbench

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{ChemblLite, NoisyQuery, QueryGen, TableRepo}
import repro.discovery.{DiscoveryIndex, DiscoveryIndexBuilder, Profiles}
import repro.exp.TableIII

/** What a workload's run shares with the harness: the session, the tracer,
  * and the per-layer counts its traced operations add up.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val seed: Long) {
  val counts = mutable.LinkedHashMap.empty[String, Double]
  def count(name: String, v: Double): Unit = if (tracer.enabled) counts(name) = counts.getOrElse(name, 0.0) + v
  def span[A](name: String)(f: => A): A = tracer.span(name)(f)
}

/** A closed-loop workload with one client. One pass runs every operation
  * once; the harness cycles through passes until the run's time is up.
  */
abstract class Workload[Op, Out](val ctx: Ctx) {
  /** Input properties, recorded with every result. */
  def inputs: String
  /** One pass, in order. */
  def ops: Vector[Op]
  def label(op: Op): String
  /** Untimed passes in set-up, so the JIT and Spark's caches are warm. */
  def warmupPasses: Int
  /** Latency of the first operation after the set-up index build, where the
    * workload measures it.
    */
  def firstOpMs: Option[Double] = None
  /** One operation through the program's public API. Layer calls are
    * wrapped in `ctx.span`, which records only in traced passes.
    */
  def run(op: Op): Out
  /** Extra per-layer measurements for a traced operation, run after it and
    * outside its latency.
    */
  def traceExtras(op: Op, out: Out): Unit = ()
  /** Output checks over every operation that returned, as (operation id,
    * reason) pairs. Runs after the timed region.
    */
  def check(results: Vector[(Int, Op, Out)]): Seq[(Int, String)]
  /** The workload's own names for its end-to-end figures, reported beside
    * the common ones: (name, value, unit, samples), from the untraced
    * operations that returned and the timed wall seconds.
    */
  def figures(results: Vector[(Int, Op, Out)], latMs: Map[Int, Double], wallS: Double): Seq[(String, Double, String, Int)]
}

object Workloads {
  val Names = Vector("index-build", "qbe-search", "view-pipeline")

  /** Containment threshold the program's builder uses by default. */
  val Threshold = 0.8
  /** ChemblLite's default seed; Table I's count of 42 joinable pairs holds there. */
  val TableISeed = 11L
  val TableICount = 42
  /** Top-k specs materialized per view-pipeline query. */
  val ViewK = 5
  val ViewReplicates = 2
  val SearchReplicates = 5

  def corpus(ctx: Ctx): TableRepo = ChemblLite(ctx.spark, seed = ctx.seed)

  def apply(name: String, ctx: Ctx): Workload[_, _] = name match {
    case "index-build"   => new IndexBuild(ctx)
    case "qbe-search"    => new QbeSearch(ctx)
    case "view-pipeline" => new ViewPipeline(ctx)
    case other           => throw new IllegalArgumentException(s"unknown workload $other; one of ${Names.mkString(", ")}")
  }

  /** `Ver.searchSpecs`. A traced operation makes the same calls one layer
    * at a time, so each is timed: selection per attribute, then join graph
    * search.
    */
  def search(ctx: Ctx, ver: Ver, q: ExampleQuery, strategy: ColumnStrategy): SearchResult =
    if (!ctx.tracer.enabled) ver.searchSpecs(q, strategy)
    else {
      val cands = q.columns.map(ex => ctx.span(s"select.${strategy.name}")(strategy.select(ex, ver.index)))
      val r = if (cands.exists(_.isEmpty)) SearchResult(Vector.empty, 0, 0)
              else ctx.span("jgs")(JoinGraphSearch.search(cands, ver.index))
      ctx.count("select.selected_cols", cands.map(_.size).sum)
      ctx.count("jgs.combos", cands.map(_.size.toDouble).product)
      ctx.count("jgs.join_graphs", r.joinGraphs)
      ctx.count("jgs.joinable_groups", r.joinableGroups)
      ctx.count("jgs.specs", r.specs.size)
      r
    }

  private def valuesOf(ref: Map[ColumnRef, Set[String]]): ColumnRef => Vector[String] =
    c => ref.getOrElse(c, sys.error(s"unknown column $c")).toVector.sorted

  private def corpusLine(repo: TableRepo, seed: Long): String =
    s"corpus=${repo.name}(scale=1,seed=$seed,tables=${repo.tables.size},columns=${repo.columnRefs.size})"

  // ---------------------------------------------------------------- index-build

  /** Each operation is one `DiscoveryIndexBuilder.build` over the generated
    * corpus; corpus generation and one warm-up build run in set-up.
    */
  final class IndexBuild(ctx: Ctx) extends Workload[TableRepo, DiscoveryIndex](ctx) {
    private val repo = corpus(ctx)
    private val ref = Reference.columnValues(repo)
    private val expected = Reference.containment(ref, Threshold)
    private val candidatePairs = Reference.overlaps(ref).size

    def inputs = s"${corpusLine(repo, ctx.seed)} threshold=$Threshold"
    def ops = Vector(repo)
    def warmupPasses = 1
    def label(r: TableRepo) = r.name

    def run(r: TableRepo): DiscoveryIndex =
      ctx.span("index.build")(DiscoveryIndexBuilder.build(ctx.spark, r, Threshold))

    override def traceExtras(r: TableRepo, idx: DiscoveryIndex): Unit = {
      ctx.count("index.columns", r.columnRefs.size)
      ctx.count("index.values", ref.valuesIterator.map(_.size).sum)
      ctx.count("index.joinable_pairs", idx.containment.size)
      // Pairs of columns that share a value: the pair join's input, counted
      // by the reference rather than by another Spark job.
      ctx.count("profiles.candidate_pairs", candidatePairs)
      // The builder's steps, each timed alone: plan, first action, pairs.
      ctx.span("profiles") {
        val cv = ctx.span("profiles.melt_plan")(Profiles.columnValues(ctx.spark, r)).cache()
        try {
          ctx.count("profiles.triples", ctx.span("profiles.melt")(cv.collect().length))
          ctx.count("profiles.joinable_pairs", ctx.span("profiles.pairs")(Profiles.joinablePairs(cv, Threshold).collect().length))
        } finally { cv.unpersist(); () }
      }
    }

    def check(results: Vector[(Int, TableRepo, DiscoveryIndex)]): Seq[(Int, String)] = {
      val tableI = Option.when(ctx.seed == TableISeed)(TableICount)
      results.flatMap { case (id, _, idx) => Checks.index(idx, expected, tableI).map(id -> _) }
    }

    def figures(results: Vector[(Int, TableRepo, DiscoveryIndex)], latMs: Map[Int, Double], wallS: Double) = {
      val s = results.map { case (id, _, _) => latMs(id) / 1000 }
      Seq((s"build_s.${repo.name}", Pct.median(s), "s", s.size),
        ("builds_per_s", s.size / wallS, "1/s", s.size))
    }
  }

  // ---------------------------------------------------------------- qbe-search

  final case class SearchOp(nq: NoisyQuery, strategy: ColumnStrategy)

  /** The Table V traffic: every ground truth × noise level × replicate,
    * each searched with SA, SB and CS. Indexes are built in set-up; no
    * operation runs a Spark job.
    */
  final class QbeSearch(ctx: Ctx) extends Workload[SearchOp, SearchResult](ctx) {
    private val repo = corpus(ctx)
    private val ref = Reference.columnValues(repo)
    private val index = DiscoveryIndexBuilder.build(ctx.spark, repo, Threshold)
    private val ver = new Ver(repo, index)
    private val strategies = Vector(ColumnStrategy.SelectAll, ColumnStrategy.SelectBest, ColumnStrategy.ColumnSelection())
    val ops: Vector[SearchOp] =
      QueryGen.workload(repo.groundTruths, SearchReplicates, valuesOf(ref), base = ctx.seed)
        .flatMap(nq => strategies.map(SearchOp(nq, _)))

    /** The first search after the build pays the index's lazy structures. */
    override val firstOpMs: Option[Double] = {
      val t0 = System.nanoTime(); run(ops.head); Some((System.nanoTime() - t0) / 1e6)
    }
    def warmupPasses = 2

    def inputs = s"${corpusLine(repo, ctx.seed)} queries=${ops.size / 3} strategies=SA,SB,CS " +
      s"searches_per_pass=${ops.size} query_base=${ctx.seed}"
    def label(op: SearchOp) = s"${op.nq.name}/${op.strategy.name}"

    def run(op: SearchOp): SearchResult = search(ctx, ver, op.nq.query, op.strategy)

    override def traceExtras(op: SearchOp, out: SearchResult): Unit = {
      val cand = ctx.span("index.keyword")(op.nq.query.columns.map(ex => ColumnSelection.candidateColumns(ex, index)))
      ctx.count("select.candidate_cols", cand.map(_.size).sum)
    }

    // Operation ids run in pass order, so id / 3 names one query's SA, SB
    // and CS searches. A query with a search that threw gets only the
    // per-result checks.
    def check(results: Vector[(Int, SearchOp, SearchResult)]): Seq[(Int, String)] =
      results.groupBy(_._1 / strategies.size).values.toSeq.flatMap { triple =>
        val byS = triple.map { case (id, op, r) => op.strategy.name -> (id, r) }.toMap
        if (byS.size != strategies.size) triple.flatMap { case (id, _, r) => Checks.specs(r).map(id -> _) }
        else {
          val nq = triple.head._2.nq
          Checks.searchTriple(nq.gt, nq.level, byS("SA")._2, byS("SB")._2, byS("CS")._2)
            .toSeq.flatMap { case (s, es) => es.map(byS(s)._1 -> _) }
        }
      }

    def figures(results: Vector[(Int, SearchOp, SearchResult)], latMs: Map[Int, Double], wallS: Double) = {
      val s = results.map { case (id, _, _) => latMs(id) }
      val p95 = Pct.of(s, 95)
      Seq(("search_p50_ms", Pct.median(s), "ms", s.size), ("search_p95_ms", p95.value, "ms", s.size),
        ("searches_per_s", s.size / wallS, "1/s", s.size))
    }
  }

  // ---------------------------------------------------------------- view-pipeline

  final case class PipelineOut(result: SearchResult, views: Vector[MatView], report: DistillReport,
                               sessions: Vector[Session])

  /** The Table IV / III traffic: each zero-noise ground-truth query is
    * searched with CS, its top-k specs materialized and distilled, and the
    * 18 simulated users run a presentation session against the ground
    * truth view, which set-up materializes.
    */
  final class ViewPipeline(ctx: Ctx) extends Workload[NoisyQuery, PipelineOut](ctx) {
    private val repo = corpus(ctx)
    private val ref = Reference.columnValues(repo)
    private val index = DiscoveryIndexBuilder.build(ctx.spark, repo, Threshold)
    private val ver = new Ver(repo, index)
    private val users = TableIII.personas
    // Two zero-noise replicates per ground truth: with one, a pass has
    // five distinct queries and its median jumps with the seed.
    val ops: Vector[NoisyQuery] =
      for (r <- Vector.range(0, ViewReplicates); gt <- repo.groundTruths)
        yield QueryGen.generate(gt, NoiseLevel.Zero, r, valuesOf(ref), base = ctx.seed)
    private val targets: Map[String, MatView] =
      repo.groundTruths.map(gt => gt.name -> Materializer.materialize(repo, gt.spec, "target")).toMap

    def inputs = s"${corpusLine(repo, ctx.seed)} queries=${ops.size} (${repo.groundTruths.size} ground truths x " +
      s"$ViewReplicates zero-noise replicates) k=$ViewK users=${users.size} query_base=${ctx.seed}"
    def label(nq: NoisyQuery) = nq.name
    def warmupPasses = 1

    def run(nq: NoisyQuery): PipelineOut = {
      val res = search(ctx, ver, nq.query, ColumnStrategy.ColumnSelection())
      val views = ctx.span("mat")(ver.materialize(res, ViewK))
      val report = ctx.span("distill")(ViewDistillation.distill(views))
      val scores = ctx.span("ftk.score")(
        views.map(v => v.id -> FastTopK.overlapScore(v.spec, index, nq.query).toDouble).toMap)
      val target = targets(nq.gt.name)
      val sessions = ctx.span("present")(
        users.map(u => new Presenter(report.distilled, report, scores).run(u, target)))
      ctx.count("mat.views", views.size)
      ctx.count("mat.rows", views.map(_.rows.size).sum)
      ctx.count("distill.c1", report.afterCompatible)
      ctx.count("distill.c2", report.afterContained)
      ctx.count("distill.c3_worst", report.c3Worst)
      ctx.count("distill.c3_best", report.c3Best)
      ctx.count("distill.contradictions", report.contradictions.size)
      ctx.count("distill.edges", report.edges.size)
      ctx.count("present.sessions", sessions.size)
      ctx.count("present.found", sessions.count(_.found))
      ctx.count("present.interactions", sessions.map(_.interactions).sum)
      PipelineOut(res, views, report, sessions)
    }

    /** Cheap checks on every operation; the DuckDB oracle on every view of
      * each query's last operation (the verification pass).
      */
    def check(results: Vector[(Int, NoisyQuery, PipelineOut)]): Seq[(Int, String)] = {
      val cheap = results.flatMap { case (id, _, o) =>
        (Checks.funnel(o.report, o.views.size) ++
          Option.when(o.views.size != math.min(ViewK, o.result.specs.size))(
            s"${o.views.size} views for ${o.result.specs.size} specs at k=$ViewK") ++
          Option.when(o.result.specs.isEmpty)("no specs")).map(id -> _)
      }
      // Replicates often materialize the same view; each distinct one is
      // checked once, charged to the last operation that produced it.
      val last = results.groupBy(_._2.name).values.map(_.maxBy(_._1)).toSeq.sortBy(_._1)
      val views = last.flatMap { case (id, _, o) => o.views.map(v => (v.spec, v.rows) -> (id, v)) }.toMap
      cheap ++ views.values.toSeq.flatMap { case (id, v) => Checks.views(ctx.spark, repo, Seq(v)).map(id -> _) }
    }

    def figures(results: Vector[(Int, NoisyQuery, PipelineOut)], latMs: Map[Int, Double], wallS: Double) = {
      val s = results.map { case (id, _, _) => latMs(id) / 1000 }
      val views = results.map(_._3.views.size).sum
      Seq(("query_p50_s", Pct.median(s), "s", s.size), ("views_per_s", views / wallS, "1/s", views))
    }
  }
}
