package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.core.{ColumnRef, NoiseLevel}

class QueryGenSpec extends AnyFunSuite {
  private lazy val repo = WdcLite()
  private def values(c: ColumnRef): Vector[String] = repo.values(c)

  private lazy val gt = repo.groundTruths.head

  test("queries are 2 columns × 3 rows (§VI-B)") {
    val q = QueryGen.generate(gt, NoiseLevel.Zero, 0, values)
    assert(q.query.columns.size == 2 && q.query.columns.forall(_.size == 3))
  }
  test("zero-noise examples come from the ground-truth columns") {
    val q = QueryGen.generate(gt, NoiseLevel.Zero, 0, values)
    q.query.columns.zip(gt.spec.projection).foreach { case (ex, col) =>
      assert(ex.toSet.subsetOf(values(col).toSet))
    }
  }
  test("medium noise replaces 1 of 3 values per column with a noise-only value") {
    val q = QueryGen.generate(gt, NoiseLevel.Med, 0, values)
    q.query.columns.zip(gt.spec.projection).foreach { case (ex, col) =>
      val gtVals = values(col).toSet
      val noiseOnly = values(gt.noiseColumns(col)).toSet diff gtVals
      assert(ex.count(gtVals) == 2, s"$col: ${ex.mkString(",")}")
      assert(ex.count(noiseOnly) == 1)
    }
  }
  test("high noise replaces 2 of 3 values per column") {
    val q = QueryGen.generate(gt, NoiseLevel.High, 0, values)
    q.query.columns.zip(gt.spec.projection).foreach { case (ex, col) =>
      val gtVals = values(col).toSet
      assert(ex.count(gtVals) == 1)
      assert(ex.count(v => !gtVals(v)) == 2)
    }
  }
  test("generation is deterministic per (gt, level, replicate)") {
    val a = QueryGen.generate(gt, NoiseLevel.Med, 1, values)
    val b = QueryGen.generate(gt, NoiseLevel.Med, 1, values)
    assert(a.query == b.query)
  }
  test("replicates differ") {
    val qs = (0 until 5).map(r => QueryGen.generate(gt, NoiseLevel.Zero, r, values).query)
    assert(qs.distinct.size > 1)
  }
  test("levels differ for the same replicate") {
    val z = QueryGen.generate(gt, NoiseLevel.Zero, 0, values).query
    val h = QueryGen.generate(gt, NoiseLevel.High, 0, values).query
    assert(z != h)
  }
  test("workload enumerates gts × levels × replicates") {
    val w = QueryGen.workload(repo.groundTruths, replicates = 5, values)
    assert(w.size == 5 * 3 * 5)
    assert(w.map(_.name).distinct.size == w.size)
    NoiseLevel.all.foreach(l => assert(w.count(_.level == l) == 25))
  }
  test("query names encode gt, level and replicate") {
    assert(QueryGen.generate(gt, NoiseLevel.Med, 3, values).name == s"${gt.name}/Med/r3")
  }
}
