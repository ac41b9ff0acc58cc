package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.discovery.DiscoveryIndex

/** Unit tests for COLUMN-SELECTION (Algorithm 4) and the SA/SB baselines
  * over a hand-built index: a ground-truth column, a high-containment noise
  * column clustered with it, and an unrelated collision column.
  */
class ColumnSelectionSpec extends AnyFunSuite {
  private val gt    = ColumnRef("truth", "s")
  private val noise = ColumnRef("archive", "s_old")
  private val coll  = ColumnRef("misc", "tag")
  private val other = ColumnRef("far", "f")

  private val index = DiscoveryIndex(
    Map(
      gt    -> Set("a", "b", "c", "d", "e"),
      noise -> Set("a", "b", "c", "d", "n1"),   // containment 4/5 with gt
      coll  -> Set("a", "z1", "z2", "z3"),      // one colliding token
      other -> Set("q1", "q2"),
    ),
    Map((gt, noise) -> 0.8),
    0.8)

  test("candidateColumns: any column containing at least one example") {
    val cand = ColumnSelection.candidateColumns(Vector("a", "b", "n1"), index)
    assert(cand == Set(gt, noise, coll))
  }
  test("candidateColumns: no hits yields empty set") {
    assert(ColumnSelection.candidateColumns(Vector("nope"), index).isEmpty)
  }
  test("overlap counts distinct contained examples") {
    for (ex <- Seq(Vector("a", "b", "n1"), Vector("A", "b", "N1"))) {
      assert(index.overlap(gt, ex) == 2, s"examples=$ex")
      assert(index.overlap(noise, ex) == 3, s"examples=$ex")
    }
    assert(index.overlap(gt, Vector("a", "a")) == 1)
    assert(index.overlap(gt, Vector("a", "A")) == 1, "case variants are one value")
  }
  test("clusters: connected components with the noise column in the gt cluster") {
    val cs = ColumnSelection.clusters(Vector("a", "b", "n1"), index)
    assert(cs.size == 2)
    val byCols = cs.map(c => c.columns -> c.score).toMap
    assert(byCols(Set(gt, noise)) == 3) // the noise column carries the max overlap
    assert(byCols(Set(coll)) == 1)
  }
  test("select θ=1 keeps only the top-scoring cluster (ties included)") {
    assert(ColumnSelection.select(Vector("a", "b", "n1"), index) == Set(gt, noise))
  }
  test("select θ=1 keeps score-tied clusters") {
    // Examples hit only 'a' in both clusters → tie at score 1 → both kept.
    assert(ColumnSelection.select(Vector("a"), index) == Set(gt, noise, coll))
  }
  test("select θ=2 adds the second score tier") {
    assert(ColumnSelection.select(Vector("a", "b", "n1"), index, theta = 2) == Set(gt, noise, coll))
  }
  test("select rejects θ < 1") {
    intercept[IllegalArgumentException](ColumnSelection.select(Vector("a"), index, theta = 0))
  }
  test("select with no hits is empty") {
    assert(ColumnSelection.select(Vector("nope"), index).isEmpty)
  }

  test("CS strategy is robust: noisy query still selects the ground-truth column") {
    val sel = ColumnStrategy.ColumnSelection().select(Vector("a", "b", "n1"), index)
    assert(sel.contains(gt), "noise values pull the cluster score up, not the gt column out")
  }
  test("SelectAll returns every hit") {
    assert(ColumnStrategy.SelectAll.select(Vector("a", "b", "n1"), index) == Set(gt, noise, coll))
  }
  test("SelectAll is always a superset of CS") {
    for (ex <- Seq(Vector("a"), Vector("a", "b"), Vector("a", "b", "n1"), Vector("n1"))) {
      val sa = ColumnStrategy.SelectAll.select(ex, index)
      val cs = ColumnStrategy.ColumnSelection().select(ex, index)
      assert(cs.subsetOf(sa), s"examples=$ex")
    }
  }
  test("SelectBest collapses on a noisy query: the noise column wins") {
    for (ex <- Seq(Vector("a", "b", "n1"), Vector("A", "B", "n1"))) {
      val sel = ColumnStrategy.SelectBest.select(ex, index)
      assert(sel == Set(noise), s"SQuID-style argmax drops the ground-truth column, examples=$ex")
    }
  }
  test("SelectBest keeps ties") {
    for (ex <- Seq(Vector("a", "b"), Vector("A", "b")))
      assert(ColumnStrategy.SelectBest.select(ex, index) == Set(gt, noise), s"examples=$ex")
  }
  test("SelectBest on clean examples finds the ground truth") {
    for (ex <- Seq(Vector("a", "b", "e"), Vector("a", "B", "E")))
      assert(ColumnStrategy.SelectBest.select(ex, index) == Set(gt), s"examples=$ex")
  }
  test("strategy names match Table V's column headers") {
    assert(ColumnStrategy.SelectAll.name == "SA")
    assert(ColumnStrategy.SelectBest.name == "SB")
    assert(ColumnStrategy.ColumnSelection().name == "CS")
  }
}
