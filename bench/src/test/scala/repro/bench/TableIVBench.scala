package repro.bench

import repro.SparkSpec
import repro.bench.BenchFiles.ms
import repro.core.{ColumnStrategy, Stats, ViewDistillation}
import repro.exp.TableIV

/** Benchmark harness for Table IV: 4C distillation's effect on the number
  * of candidate views for ChEMBL Q1-Q5 and WDC Q2-Q3 across noise levels.
  * Paper shape: monotone Original ≥ C1 ≥ C2 ≥ C3-worst ≥ C3-best, with
  * compatible-heavy ChEMBL queries (multiple aligned join keys), a
  * containment-heavy WDC Q2, and a WDC Q3 whose worst-case key barely
  * unions while the best-case key collapses the set.
  *
  * Table IV is the MATERIALIZER's heaviest traffic (up to 100 views per
  * query), so the suite also times each query's materialization and
  * distillation: after `WarmupPasses` untimed passes, `Runs` times each,
  * each time over `PassesPerRun` passes, and writes the medians per pass
  * with the view and row counts to `BENCH_tableIV.json` ([[BenchFiles]]).
  */
class TableIVBench extends SparkSpec {
  // A query takes 3–55 ms, so one GC or JIT event moves a single timing:
  // each run times a batch of passes, and runs go round the queries in
  // turn, so that a slow spell of the host spreads over all queries.
  private val Runs = 9
  private val PassesPerRun = 5
  private val WarmupPasses = 2

  test("Table IV: effect of 4C distillation on #views") {
    val queries = TableIV.queries(spark)
    val rows = queries.map(q => TableIV.distillFor(q.ver, q.nq, TableIV.MaterializeCap))
    println(TableIV.render(rows))
    assert(rows.size == 7 * 3, "7 queries × 3 noise levels")
    rows.foreach { r =>
      assert(r.c1 <= r.original, s"${r.query}/${r.noise}: C1 prunes")
      assert(r.c2 <= r.c1, s"${r.query}/${r.noise}: C2 prunes further")
      assert(r.c3Worst <= r.c2 && r.c3Best <= r.c3Worst, s"${r.query}/${r.noise}: C3 monotone")
    }
    // ChEMBL Q3: compatible-heavy (three aligned join keys) — C1 prunes a lot.
    val q3 = rows.filter(_.query == "chembl-Q3")
    assert(q3.exists(r => r.c1 <= r.original * 3 / 4), "chembl-Q3 has a large compatible reduction")
    // WDC Q2: containment-heavy — C2 prunes most of what C1 left.
    val wq2 = rows.filter(_.query == "wdc-Q2")
    assert(wq2.exists(r => r.c2 <= r.c1 / 2), "wdc-Q2 has a large contained reduction")
    // WDC Q3: the best-case key unions far more than the worst-case key.
    val wq3 = rows.filter(_.query == "wdc-Q3")
    assert(wq3.exists(r => r.c3Best * 2 <= r.c3Worst),
      "wdc-Q3's best key unions much more than its worst key")

    val specs = queries.map(q => q.ver.searchSpecs(q.nq.query, ColumnStrategy.ColumnSelection()))
    def materialize(i: Int) = queries(i).ver.materialize(specs(i), TableIV.MaterializeCap)
    val views = queries.indices.map(materialize)
    // Untimed passes first, so that the JIT has compiled both stages before
    // the first query's timed runs, not during them.
    for (_ <- 1 to WarmupPasses; i <- queries.indices) ViewDistillation.distill(materialize(i))
    // A collection before each timed batch, so that the garbage one stage
    // leaves is not collected on the other's clock.
    def perPass(stage: => Any): Double = {
      System.gc()
      ms(for (_ <- 1 to PassesPerRun) stage)._2 / PassesPerRun
    }
    val runs = Vector.fill(Runs)(queries.indices.map { i =>
      (perPass(materialize(i)), perPass(ViewDistillation.distill(views(i))))
    })
    val timed = queries.indices.map { i =>
      (queries(i), views(i).size, views(i).map(_.rows.size).sum,
        Stats.median(runs.map(_(i)._1)), Stats.median(runs.map(_(i)._2)))
    }
    println(f"${"Query"}%-10s ${"Noise"}%-5s ${"Views"}%6s ${"Rows"}%7s ${"Mat ms"}%8s ${"Distill ms"}%10s")
    for ((q, views, viewRows, matMs, distillMs) <- timed)
      println(f"${q.nq.gt.name}%-10s ${q.nq.level.name}%-5s $views%6d $viewRows%7d $matMs%8.1f $distillMs%10.1f")

    val corpora = queries.map(_.ver.repo).distinct.map { r =>
      s"""    {"corpus": "${r.name}", "tables": ${r.data.size}, "rows": ${r.data.map(_.rows.size).sum}}"""
    }
    val lines = timed.map { case (q, views, viewRows, matMs, distillMs) =>
      s"""    {"corpus": "${q.ver.repo.name}", "query": "${q.nq.gt.name}", "noise": "${q.nq.level.name}", """ +
        f""""views": $views, "rows": $viewRows, "materialize_ms": $matMs%.2f, "distill_ms": $distillMs%.2f}"""
    }
    val json =
      s"""{\n  "git_sha": "${BenchFiles.sha}",\n  "cpus": ${Runtime.getRuntime.availableProcessors},\n""" +
        s"""  "runs": $Runs,\n  "passes_per_run": $PassesPerRun,\n""" +
        s"""  "materialize_cap": ${TableIV.MaterializeCap},\n""" +
        f"""  "total_materialize_ms": ${timed.map(_._4).sum}%.2f,\n  "total_distill_ms": ${timed.map(_._5).sum}%.2f,\n""" +
        corpora.mkString("  \"corpora\": [\n", ",\n", "\n  ],\n") +
        lines.mkString("  \"queries\": [\n", ",\n", "\n  ]\n}\n")
    BenchFiles.write("BENCH_tableIV.json", json)
  }
}
