package verbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain

import repro.SparkEnv

/** Command-line arguments. `startMs` is when the launching process started,
  * so set-up time includes JVM start; `source` identifies the program's
  * sources.
  */
final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      startMs: Long, source: String, traceOut: Option[String])

object Args {
  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"expected --key value, got ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }, kv.get("start-ms").map(_.toLong).getOrElse(
      ManagementFactory.getRuntimeMXBean.getStartTime),
      kv.getOrElse("source", "unknown"), kv.get("trace-out"))
    require(Workloads.Names.contains(a.workload), s"unknown workload ${a.workload}; one of ${Workloads.Names.mkString(", ")}")
    require(a.seconds >= 1, "--seconds must be ≥ 1")
    a
  }
}

/** One benchmark run: set up one workload, run it closed loop for the given
  * seconds, check its outputs, print a report and, as the last line, one
  * JSON result.
  */
object Main {

  def main(argv: Array[String]): Unit = {
    val a = try Args.parse(argv) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    val spark = SparkEnv.session
    val listener = Option.when(a.trace)(new SpanListener)
    listener.foreach(spark.sparkContext.addSparkListener)
    val ctx = new Ctx(spark, new Tracer(Some(spark.sparkContext)), a.seed)
    try measure(Workloads(a.workload, ctx), a, listener) finally spark.stop()
    sys.exit(0)
  }

  private def elapsedMs(t0: Long) = (System.nanoTime() - t0) / 1e6

  def measure[Op, Out](w: Workload[Op, Out], a: Args, listener: Option[SpanListener]): Unit = {
    val ctx = w.ctx
    val tracer = ctx.tracer

    for (_ <- 0 until w.warmupPasses) w.ops.foreach(w.run)
    val setupS = (System.currentTimeMillis() - a.startMs) / 1000.0
    val hostBefore = hostCalibrationMs()

    // Operations cycle through the pass until the time is up. A traced run
    // alternates untraced and traced passes, at least one of each, so the
    // two can be compared on the same operations.
    val log = new OpLog[(Op, Out)]
    val traced = mutable.ArrayBuffer.empty[Boolean]
    val labels = mutable.ArrayBuffer.empty[String]
    val n = w.ops.size
    val t0 = System.nanoTime()
    var i = 0
    while (elapsedMs(t0) < a.seconds * 1000.0 || (a.trace && i < 2 * n)) {
      val pass = i / n
      val op = w.ops(i % n)
      val on = a.trace && pass % 2 == 1
      tracer.enabled = on
      tracer.query = s"p$pass/${w.label(op)}"
      val r = log.attempt(tracer.span("op")(op -> w.run(op)))
      if (on) r.foreach { case (o, out) => w.traceExtras(o, out) }
      tracer.enabled = false
      traced += on; labels += w.label(op)
      i += 1
    }
    val wallS = elapsedMs(t0) / 1000
    val hostAfter = hostCalibrationMs()

    val returned = log.returned.map { case (id, (op, out)) => (id, op, out) }
    for ((id, why) <- w.check(returned)) log.fail(id, why)
    val latMs = log.returned.map(_._1).zip(log.latenciesMs).toMap

    // End-to-end metrics come from untraced operations only.
    val untracedLat = latMs.collect { case (id, l) if !traced(id) => l }.toVector
    val e2e: Seq[(String, Double, String, String)] =
      if (untracedLat.isEmpty) Nil
      else {
        val p50 = Pct.of(untracedLat, 50); val p95 = Pct.of(untracedLat, 95)
        Seq(("setup_s", setupS, "s", "n=1"),
          ("op_p50_ms", p50.value, "ms", s"n=${p50.n} beyond=${p50.beyond}"),
          ("op_p95_ms", p95.value, "ms", s"n=${p95.n} beyond=${p95.beyond}"),
          ("ops_per_s", untracedLat.size / wallS, "1/s", s"n=${untracedLat.size} wall_s=$wallS"))
      }
    val named =
      if (a.trace || untracedLat.isEmpty) Nil
      else w.figures(returned.filter { case (id, _, _) => !traced(id) }, latMs, wallS)
    val errorRate = log.failed.toDouble / log.attempted

    val perLayer: Seq[(String, Double, String)] =
      if (!a.trace) Nil
      else {
        listener.foreach(_ => ListenerBusDrain(ctx.spark.sparkContext))
        val tracedLat = latMs.collect { case (id, l) if traced(id) => l }.toVector
        val firstSteady = w.firstOpMs.flatMap { first =>
          val same = latMs.collect { case (id, l) if !traced(id) && labels(id) == labels(0) => l }.toVector
          Option.when(same.nonEmpty)(first - Pct.median(same))
        }
        a.traceOut.foreach(p => writeSpans(p, tracer.spans))
        Layers.metrics(tracer.spans, listener.map(_.bySpan).getOrElse(Map.empty), ctx.counts.toMap,
          tracedLat, untracedLat, firstSteady)
      }

    val env = ctx.spark.sparkContext
    println(s"verbench workload=${a.workload} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    println(s"env spark.master=${env.master} defaultParallelism=${env.defaultParallelism} " +
      s"spark.sql.shuffle.partitions=${ctx.spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"driver_heap_mb=${Runtime.getRuntime.maxMemory / (1024 * 1024)} nproc=${Runtime.getRuntime.availableProcessors} " +
      s"jvm=${ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(_.startsWith("-X")).mkString(",")} " +
      s"source=${a.source}")
    println(f"host calibration_ms before=$hostBefore%.1f after=$hostAfter%.1f")
    println(s"inputs ${w.inputs} warmup_passes=${w.warmupPasses} ops_per_pass=$n passes=${i.toDouble / n} closed_loop_clients=1")
    for ((n, v, u, k) <- e2e) println(f"metric $n%-24s $v%14.4f $u%-4s $k")
    for ((n, v, u, k) <- named) println(f"metric $n%-24s $v%14.4f $u%-4s n=$k")
    println(f"metric ${"error_rate"}%-24s $errorRate%14.4f ${""}%-4s n=${log.attempted} failed=${log.failed}")
    for ((n, v, u) <- perLayer) println(f"layer  $n%-36s $v%16.4f $u")
    for ((id, why) <- log.failures.take(10)) println(s"failed op $id (${labels(id)}): $why")

    // The result line leaves out op_p95_ms: no workload has ten samples
    // beyond its 95th percentile in one run.
    val reported = if (a.trace) perLayer else e2e.collect { case (n, v, u, _) if n != "op_p95_ms" => (n, v, u) }
    println(Json.result(log.failed == 0, log.attempted, log.failed, reported))
  }

  /** A fixed single-threaded loop, timed: shows how fast the host ran just
    * before and after the timed region, so runs on a shared host can be
    * told apart. It is not part of any metric.
    */
  def hostCalibrationMs(): Double = {
    val t = System.nanoTime()
    var x = 1L
    for (_ <- 0 until 50000000) x = x * 6364136223846793005L + 1442695040888963407L
    if (x == 42) println()
    (System.nanoTime() - t) / 1e6
  }

  private def writeSpans(path: String, spans: Seq[Span]): Unit = {
    val lines = spans.map(s => Json.obj(Seq("id" -> s.id.toString, "name" -> Json.str(s.name),
      "parent" -> s.parent.toString, "query" -> Json.str(s.query), "start_ns" -> s.startNs.toString,
      "end_ns" -> s.endNs.toString)))
    Files.write(Paths.get(path), (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"'  => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a number")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String =
    obj(Seq("correct" -> correct.toString, "attempted" -> attempted.toString, "failed" -> failed.toString,
      "metrics" -> obj(metrics.map { case (n, v, u) => n -> obj(Seq("value" -> num(v), "unit" -> str(u))) })))
}

/** Per-layer metrics of a traced run. Layer times and counts are means per
  * traced operation that ran the layer; `*_per_view` and `*_per_session`
  * divide by those counts instead.
  */
object Layers {
  val Online = Set("index.keyword", "select.SA", "select.SB", "select.CS", "jgs", "mat", "distill", "ftk.score", "present")

  def metrics(spans: Vector[Span], spark: Map[Int, SparkCounters], counts: Map[String, Double],
              tracedLat: Vector[Double], untracedLat: Vector[Double],
              firstSteadyMs: Option[Double]): Seq[(String, Double, String)] = {
    val byId = spans.map(s => s.id -> s).toMap
    val children = spans.groupBy(_.parent).withDefaultValue(Vector.empty)
    def root(s: Span): Span = if (s.parent < 0) s else root(byId(s.parent))
    val ops = spans.filter(s => s.parent < 0 && s.name == "op")
    val nOps = ops.size.max(1).toDouble
    def named(p: String => Boolean) = spans.filter(s => p(s.name))
    def ms(ns: Double) = ns / 1e6
    /** Mean span time per operation that ran a span with this name. */
    def perOpMs(name: String): Double = {
      val ss = named(_ == name)
      if (ss.isEmpty) 0.0 else ms(ss.map(_.durNs).sum.toDouble) / ss.map(s => root(s).id).distinct.size
    }
    def totalMs(name: String) = ms(named(_ == name).map(_.durNs).sum.toDouble)
    def selfMs(p: String => Boolean) = ms(named(p).map(s => Span.selfNs(s, children(s.id))).sum.toDouble) / nOps
    def c(n: String) = counts.getOrElse(n, 0.0)
    def per(n: String) = c(n) / nOps
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b

    // Spark work under the measured operations, and under the mat spans.
    val opIds = ops.map(_.id).toSet
    def sparkUnder(p: Span => Boolean): Vector[SparkCounters] =
      spans.filter(s => opIds(root(s).id) && p(s)).flatMap(s => spark.get(s.id))
    val opSpark = sparkUnder(_ => true)
    val matSpark = sparkUnder(_.name == "mat")
    val jobWallMs = ops.map { o =>
      val ivs = spans.filter(s => root(s).id == o.id).flatMap(s => spark.get(s.id)).flatMap(_.jobIntervalsMs)
      Span.coveredNs(ivs, Long.MinValue, Long.MaxValue).toDouble
    }.sum
    val opMs = ms(ops.map(_.durNs).sum.toDouble)

    val p50Traced = if (tracedLat.isEmpty) 0.0 else Pct.median(tracedLat)
    val p50Untraced = if (untracedLat.isEmpty) 0.0 else Pct.median(untracedLat)

    Seq(
      ("profiles.melt_plan_ms", perOpMs("profiles.melt_plan"), "ms"),
      ("profiles.melt_ms", perOpMs("profiles.melt"), "ms"),
      ("profiles.pairs_ms", perOpMs("profiles.pairs"), "ms"),
      ("profiles.triples", per("profiles.triples"), "count"),
      ("profiles.candidate_pairs", per("profiles.candidate_pairs"), "count"),
      ("profiles.joinable_pairs", per("profiles.joinable_pairs"), "count"),
      ("profiles.joinable_ratio", ratio(c("profiles.joinable_pairs"), c("profiles.candidate_pairs")), "ratio"),
      ("index.build_ms", perOpMs("index.build"), "ms"),
      ("index.columns", per("index.columns"), "count"),
      ("index.values", per("index.values"), "count"),
      ("index.joinable_pairs", per("index.joinable_pairs"), "count"),
      ("index.first_search_ms", firstSteadyMs.getOrElse(0.0), "ms"),
      ("index.keyword_ms", perOpMs("index.keyword"), "ms"),
      ("select_ms.SA", perOpMs("select.SA"), "ms"),
      ("select_ms.SB", perOpMs("select.SB"), "ms"),
      ("select_ms.CS", perOpMs("select.CS"), "ms"),
      ("select.candidate_cols", per("select.candidate_cols"), "count"),
      ("select.selected_cols", per("select.selected_cols"), "count"),
      ("select.selected_ratio", ratio(c("select.selected_cols"), c("select.candidate_cols")), "ratio"),
      ("jgs_ms", perOpMs("jgs"), "ms"),
      ("jgs.combos", per("jgs.combos"), "count"),
      ("jgs.join_graphs", per("jgs.join_graphs"), "count"),
      ("jgs.joinable_groups", per("jgs.joinable_groups"), "count"),
      ("jgs.specs", per("jgs.specs"), "count"),
      ("jgs.specs_per_graph", ratio(c("jgs.specs"), c("jgs.join_graphs")), "ratio"),
      ("mat.ms_per_view", ratio(totalMs("mat"), c("mat.views")), "ms"),
      ("mat.views", per("mat.views"), "count"),
      ("mat.rows", per("mat.rows"), "count"),
      ("mat.self_share", 100 * ratio(selfMs(_ == "mat") * nOps, opMs), "%"),
      ("spark.jobs_per_view", ratio(matSpark.map(_.jobs).sum.toDouble, c("mat.views")), "count"),
      ("spark.shuffle_write_bytes_per_view", ratio(matSpark.map(_.shuffleWriteBytes).sum.toDouble, c("mat.views")), "bytes"),
      ("distill_ms", perOpMs("distill"), "ms"),
      ("distill.c1", per("distill.c1"), "count"),
      ("distill.c2", per("distill.c2"), "count"),
      ("distill.c3_worst", per("distill.c3_worst"), "count"),
      ("distill.c3_best", per("distill.c3_best"), "count"),
      ("distill.contradictions", per("distill.contradictions"), "count"),
      ("distill.edges", per("distill.edges"), "count"),
      ("present.ms_per_session", ratio(totalMs("present"), c("present.sessions")), "ms"),
      ("present.sessions", per("present.sessions"), "count"),
      ("present.found", per("present.found"), "count"),
      ("present.interactions", per("present.interactions"), "count"),
      ("ftk.score_ms", perOpMs("ftk.score"), "ms"),
      ("spark.jobs", opSpark.map(_.jobs).sum / nOps, "count"),
      ("spark.tasks", opSpark.map(_.tasks).sum / nOps, "count"),
      ("spark.shuffle_read_bytes", opSpark.map(_.shuffleReadBytes).sum / nOps, "bytes"),
      ("spark.shuffle_write_bytes", opSpark.map(_.shuffleWriteBytes).sum / nOps, "bytes"),
      ("spark.executor_run_ms", opSpark.map(_.executorRunMs).sum / nOps, "ms"),
      ("spark.job_wall_ms", jobWallMs / nOps, "ms"),
      ("spark.driver_ms", (opMs - jobWallMs) / nOps, "ms"),
      ("self_ms.op", selfMs(_ == "op"), "ms"),
      ("self_ms.index_build", selfMs(_ == "index.build"), "ms"),
      ("self_ms.profiles", selfMs(_.startsWith("profiles")), "ms"),
      ("self_ms.keyword", selfMs(_ == "index.keyword"), "ms"),
      ("self_ms.select", selfMs(_.startsWith("select.")), "ms"),
      ("self_ms.jgs", selfMs(_ == "jgs"), "ms"),
      ("self_ms.mat", selfMs(_ == "mat"), "ms"),
      ("self_ms.distill", selfMs(_ == "distill"), "ms"),
      ("self_ms.ftk", selfMs(_ == "ftk.score"), "ms"),
      ("self_ms.present", selfMs(_ == "present"), "ms"),
      ("trace.spans", spans.size / nOps, "count"),
      ("trace.online_spans", named(Online).size.toDouble, "count"),
      ("trace.op_p50_ms", p50Traced, "ms"),
      ("trace.overhead_pct", 100 * ratio(p50Traced - p50Untraced, p50Untraced), "%"),
    )
  }
}
