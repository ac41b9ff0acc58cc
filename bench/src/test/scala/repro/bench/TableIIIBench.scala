package repro.bench

import repro.SparkSpec
import repro.core.Stats
import repro.exp.TableIII

/** Benchmark harness for Table III: the simulated user study. Paper shape:
  * 16/18 find the view with Ver vs 6/18 with FASTTOPK (Fisher p = 0.002),
  * most users prefer and trust Ver, and the median session needs only a
  * few interactions. The run is deterministic, so the exact result that
  * EXPERIMENTS.md records is pinned too.
  */
class TableIIIBench extends SparkSpec {
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
}
