package repro.bench

import repro.SparkSpec
import repro.bench.BenchFiles.ms
import repro.data.{ChemblLite, OpenDataLite, Table, TableRepo}
import repro.discovery.{DiscoveryIndexBuilder, Profiles, SparkContainment}

/** Corpus sweep of the index build: at each corpus point it times
  * generating the corpus and profiling its rows ([[Profiles.profile]]) once,
  * the driver pair count over that profile ([[Profiles.containment]]) three
  * times, the whole build ([[DiscoveryIndexBuilder.build]]) three times and
  * the Spark self-join reference ([[SparkContainment]]) once, checks that
  * the pair counts, the builds and the reference give the same joinable
  * pairs, and writes every timing to `BENCH_sweep.json` ([[BenchFiles]]).
  *
  * The points grow tables (chembl-lite rows, opendata-lite fillers, which
  * add no joinable pairs) and join structure: the hot-value corpus is `n`
  * one-column tables sharing the same 100 values, so every value's posting
  * list holds all `n` columns and all n(n−1)/2 pairs are joinable — the
  * driver count's quadratic case.
  */
class SweepBench extends SparkSpec {
  private val Threshold = 0.8
  private val Runs = 3

  private def hotValues(n: Int): TableRepo = {
    val rows = (0 until 100).map(v => Seq(f"hv_$v%03d"))
    TableRepo(s"hot-values-$n", (0 until n).map(t => Table(f"hot_$t%04d", Seq("v"), rows)).toVector, Vector.empty)
  }

  test("sweep: the driver pair count equals the Spark reference at every corpus point") {
    val points: Seq[(String, () => TableRepo)] = Seq(
      "chembl-lite x1" -> (() => ChemblLite(spark)),
      "chembl-lite x8" -> (() => ChemblLite(spark, scale = 8)),
      "opendata-lite 300 fillers" -> (() => OpenDataLite()),
      "opendata-lite 3000 fillers" -> (() => OpenDataLite(nFiller = 3000)),
      "hot-values 300 tables" -> (() => hotValues(300)),
      "hot-values 1000 tables" -> (() => hotValues(1000)),
    )
    val rows = points.map { case (name, corpus) =>
      val (repo, generateMs) = ms(corpus())
      val (profile, profileMs) = ms(Profiles.profile(repo))
      val pairs = Vector.fill(Runs)(ms(Profiles.containment(profile, Threshold)))
      val builds = Vector.fill(Runs)(ms(DiscoveryIndexBuilder.build(spark, repo, Threshold)))
      val (reference, sparkMs) = ms(SparkContainment(spark, repo, Threshold))
      pairs.foreach { case (p, _) => assert(p == reference, name) }
      builds.foreach { case (idx, _) => assert(idx.containment == reference, name) }
      (name, repo.data.size, profile.distinctCounts.sum, reference.size, generateMs, profileMs, pairs.map(_._2),
        builds.map(_._2), sparkMs)
    }

    def fmt(xs: Seq[Double]) = xs.map(x => f"$x%.1f").mkString("[", ", ", "]")
    println(f"${"Corpus"}%-28s ${"Tables"}%7s ${"Triples"}%8s ${"Joinable"}%9s ${"Gen ms"}%8s ${"Prof ms"}%8s  " +
      "Pairs ms / Build ms / Spark ms")
    for ((name, tables, triples, joinable, generateMs, profileMs, pairsMs, buildMs, sparkMs) <- rows)
      println(f"$name%-28s $tables%7d $triples%8d $joinable%9d $generateMs%8.1f $profileMs%8.1f  " +
        s"${fmt(pairsMs)} / ${fmt(buildMs)} / " + f"$sparkMs%.1f")

    val json = rows.map { case (name, tables, triples, joinable, generateMs, profileMs, pairsMs, buildMs, sparkMs) =>
      s"""    {"corpus": "$name", "tables": $tables, "triples": $triples, "joinable_pairs": $joinable, """ +
        f""""generate_ms": $generateMs%.1f, "profile_ms": $profileMs%.1f, "pairs_ms": ${fmt(pairsMs)}, """ +
        s""""build_ms": ${fmt(buildMs)}, "spark_ms": ${fmt(Seq(sparkMs))}}"""
    }.mkString(
      s"""{\n  "git_sha": "${BenchFiles.sha}",\n  "threshold": $Threshold,\n  "cpus": ${Runtime.getRuntime.availableProcessors},\n  "points": [\n""",
      ",\n", "\n  ]\n}\n")
    BenchFiles.write("BENCH_sweep.json", json)
  }
}
