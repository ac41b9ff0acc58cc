package repro.bench

import repro.SparkSpec
import repro.bench.BenchFiles.ms
import repro.core.{Presenter, Session, Stats}
import repro.exp.TableIII

/** Benchmark harness for Table III: the simulated user study. Paper shape:
  * 16/18 find the view with Ver vs 6/18 with FASTTOPK (Fisher p = 0.002),
  * most users prefer and trust Ver, and the median session needs only a
  * few interactions. The run is deterministic, so the exact result that
  * EXPERIMENTS.md records is pinned too.
  *
  * The study pairs each persona with one task. The suite also runs every
  * persona against every task (5 × 18 VIEW-PRESENTATION sessions), pins
  * all 90 outcomes, and, after `WarmupPasses` untimed passes, times each
  * task's 18 sessions `Runs` times, each time over `PassesPerRun` passes,
  * writing the medians per pass with the distilled view and contradiction
  * counts to `BENCH_tableIII.json` ([[BenchFiles]]).
  */
class TableIIIBench extends SparkSpec {
  // A task's 18 sessions take a few ms, so one GC or JIT event moves a
  // single timing: each run times a batch of passes, and runs go round the
  // tasks in turn, so that a slow spell of the host spreads over all tasks.
  private val Runs = 15
  private val PassesPerRun = 10
  private val WarmupPasses = 10

  test("Table III: simulated user study outcomes") {
    val r = TableIII.run(spark)
    println(TableIII.render(r))
    assert(r.verFound + r.verNotFound == 18)
    assert(r.verFound >= 14, s"most simulated users find the view with Ver (got ${r.verFound}/18)")
    assert(r.ftkFound <= 9, s"ranked browsing strands most users (got ${r.ftkFound}/18)")
    assert(r.verFound > r.ftkFound, "Ver must beat FASTTOPK on task success")
    assert(r.pValue < 0.05, f"the found/not-found difference must be significant (p=${r.pValue}%.4f)")
    assert(r.preferVer > r.preferFtk, "more users prefer Ver")
    assert(r.verMedianInteractions <= 10,
      s"sessions are short (median ${r.verMedianInteractions} interactions; paper median 3)")
    assert(r == TableIII.StudyResult(
      verFound = 16, verNotFound = 2, ftkFound = 6, ftkNotFound = 12,
      preferVer = 16, preferFtk = 0, unsure = 2,
      verConfident = 12, ftkConfident = 6,
      intuitive = 16, notIntuitive = 2,
      easy = 16, difficult = 2,
      pValue = Stats.fisherExactTwoTailed(16, 2, 6, 12),
      verMedianInteractions = 2.0))
    assert(f"${r.pValue}%.4f" == "0.0016")
  }

  /** One line per task, one `found interactions/finalSize` token per
    * persona in [[TableIII.personas]] order (`+` found, `-` not).
    */
  private val PinnedSessions = Vector(
    "+2/7 +8/3 +2/7 +2/8 +2/7 +2/7 +2/8 +2/7 +2/8 +2/7 +2/8 +6/3 +7/3 +2/7 +2/8 +2/8 -13/4 -8/8",
    "+1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3 +1/3",
    "+2/15 +8/3 +2/15 +2/24 +2/15 +2/15 +2/24 +2/15 +2/24 +2/15 +2/24 +8/3 +10/3 +2/15 +2/24 +2/24 -19/9 -8/24",
    "+2/7 +5/3 +2/7 +2/11 +2/7 +2/7 +2/11 +2/7 +2/11 +2/7 +2/11 +5/3 +7/3 +2/7 +2/11 +2/11 -19/4 -8/11",
    "+2/6 +5/3 +2/6 +2/8 +2/6 +2/6 +2/8 +2/6 +2/8 +2/6 +2/8 +5/3 +6/3 +2/6 +2/8 +2/8 +12/3 -8/8",
  )

  private def token(s: Session): String = s"${if (s.found) "+" else "-"}${s.interactions}/${s.finalSize}"
  private def parse(line: String): Vector[Session] = line.split(' ').toVector.map { t =>
    val Array(interactions, finalSize) = t.tail.split('/')
    Session(t.head == '+', interactions.toInt, finalSize.toInt)
  }

  test("Table III: every persona against every task") {
    val tasks = TableIII.prepareTasks(spark)
    val users = TableIII.personas
    def sessions(t: TableIII.Task): Vector[Session] =
      users.map(u => new Presenter(t.distilled, t.report, t.initialScores).run(u, t.target))
    val all = tasks.map(sessions)
    all.foreach(ss => println(ss.map(token).mkString(" ")))
    assert(all == PinnedSessions.map(parse), "the 90 sessions changed")

    // Untimed passes first, so that the JIT has compiled the presenter
    // before the first task's timed runs, not during them.
    for (_ <- 1 to WarmupPasses; t <- tasks) sessions(t)
    val runs = Vector.fill(Runs)(tasks.map { t =>
      System.gc()
      ms(for (_ <- 1 to PassesPerRun) sessions(t))._2 / PassesPerRun
    })
    val timed = tasks.indices.map(i => (tasks(i), all(i), Stats.median(runs.map(_(i))))).toVector
    println(f"${"Query"}%-10s ${"Views"}%6s ${"Contra"}%7s ${"Found"}%6s ${"Inter"}%6s ${"Sessions ms"}%12s")
    for ((t, ss, sessionsMs) <- timed)
      println(f"${t.nq.gt.name}%-10s ${t.distilled.size}%6d ${t.report.contradictions.size}%7d " +
        f"${ss.count(_.found)}%6d ${ss.map(_.interactions).sum}%6d $sessionsMs%12.2f")

    val lines = timed.map { case (t, ss, sessionsMs) =>
      s"""    {"query": "${t.nq.gt.name}", "noise": "${t.nq.level.name}", "distilled_views": ${t.distilled.size}, """ +
        s""""contradictions": ${t.report.contradictions.size}, "sessions": ${ss.size}, """ +
        f""""found": ${ss.count(_.found)}, "interactions": ${ss.map(_.interactions).sum}, "sessions_ms": $sessionsMs%.2f}"""
    }
    val json =
      s"""{\n  "git_sha": "${BenchFiles.sha}",\n  "cpus": ${Runtime.getRuntime.availableProcessors},\n""" +
        s"""  "runs": $Runs,\n  "passes_per_run": $PassesPerRun,\n  "users": ${users.size},\n""" +
        f"""  "total_sessions_ms": ${timed.map(_._3).sum}%.2f,\n""" +
        lines.mkString("  \"tasks\": [\n", ",\n", "\n  ]\n}\n")
    BenchFiles.write("BENCH_tableIII.json", json)
  }
}
