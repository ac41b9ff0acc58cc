package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

import repro.core.ColumnSelection.Cluster
import repro.discovery.{DiscoveryIndex, Profiles}

/** Unit tests for COLUMN-SELECTION (Algorithm 4) and the SA/SB baselines
  * over a hand-built index: a ground-truth column, a high-containment noise
  * column clustered with it, and an unrelated collision column; plus
  * properties relating the three strategies on random indexes.
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

  // ---- the strategies on random indexes ------------------------------------
  /** A random index over 2–8 columns in 1–4 tables, each holding 1–6 of the
    * values a–h, where each cross-table column pair is joinable with
    * probability 1/3; 1–4 examples from a–j and A (i and j are in no
    * column, A is a case variant of a); θ from 1 to 3; and the index's
    * cells and pair map.
    */
  private val caseGen = for {
    n <- Gen.choose(2, 8)
    tables <- Gen.listOfN(n, Gen.choose(0, 3))
    cols = tables.zipWithIndex.map { case (t, i) => ColumnRef(s"t$t", s"c$i") }.toVector
    values <- Gen.listOfN(n, Gen.choose(1, 6).flatMap(Gen.pick(_, "abcdefgh".map(_.toString))))
    pairs = for (a <- cols; b <- cols if a.table < b.table) yield (a, b)
    scores <- Gen.listOfN(pairs.size, Gen.frequency(2 -> Gen.const(0.0), 1 -> Gen.oneOf(0.8, 1.0)))
    examples <- Gen.choose(1, 4).flatMap(Gen.listOfN(_, Gen.oneOf("abcdefghijA".map(_.toString))))
    theta <- Gen.choose(1, 3)
    cells = cols.zip(values.map(_.toVector))
    joinable = pairs.zip(scores).filter(_._2 > 0).toMap
  } yield (DiscoveryIndex(cells, joinable, 0.8), examples.toVector, theta, cells, joinable)

  private def forRandomCases(p: ((DiscoveryIndex, Vector[String], Int, Vector[(ColumnRef, Vector[String])],
      Map[(ColumnRef, ColumnRef), Double])) => Boolean): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000), Prop.forAllNoShrink(caseGen)(p))
    assert(res.passed, res.status.toString)
  }
  private def forRandomIndexes(p: (DiscoveryIndex, Vector[String], Int) => Boolean): Unit =
    forRandomCases { case (idx, ex, theta, _, _) => p(idx, ex, theta) }

  test("random indexes: SELECT-BEST is a subset of SELECT-ALL") {
    var smaller = 0
    forRandomIndexes { (idx, ex, _) =>
      val (sb, sa) = (ColumnStrategy.SelectBest.select(ex, idx), ColumnStrategy.SelectAll.select(ex, idx))
      if (sb.size < sa.size) smaller += 1
      sb.subsetOf(sa)
    }
    assert(smaller > 25, s"vacuous: $smaller cases where SELECT-BEST drops a column")
  }
  test("random indexes: COLUMN-SELECTION is a subset of SELECT-ALL") {
    var smaller = 0
    forRandomIndexes { (idx, ex, theta) =>
      val (cs, sa) = (ColumnStrategy.ColumnSelection(theta).select(ex, idx), ColumnStrategy.SelectAll.select(ex, idx))
      if (cs.size < sa.size) smaller += 1
      cs.subsetOf(sa)
    }
    assert(smaller > 25, s"vacuous: $smaller cases where COLUMN-SELECTION drops a column")
  }
  test("random indexes: COLUMN-SELECTION with θ ≥ the score tiers equals SELECT-ALL") {
    var multiTier = 0
    forRandomIndexes { (idx, ex, k) =>
      val tiers = ColumnSelection.clusters(ex, idx).map(_.score).distinct.size
      if (tiers >= 2) multiTier += 1
      // θ from the number of tiers to two more (at least 1).
      ColumnStrategy.ColumnSelection(math.max(1, tiers + k - 1)).select(ex, idx) ==
        ColumnStrategy.SelectAll.select(ex, idx)
    }
    assert(multiTier > 25, s"vacuous: $multiTier cases with two or more score tiers")
  }
  test("random indexes: clusters are the pair map's components over the candidates, scored by brute-force overlap") {
    var joined = 0; var several = 0
    forRandomCases { case (idx, ex, _, cells, pairs) =>
      val examples = ex.map(Profiles.normalize).toSet
      val overlap = cells.map { case (c, vs) => c -> vs.map(Profiles.normalize).toSet.intersect(examples).size }.toMap
      val cand = overlap.filter(_._2 > 0).keySet
      // Union-find over the pairs with both columns among the candidates.
      val parent = mutable.Map.from(cand.map(c => c -> c))
      def root(c: ColumnRef): ColumnRef = if (parent(c) == c) c else root(parent(c))
      for ((a, b) <- pairs.keys if cand(a) && cand(b)) parent(root(a)) = root(b)
      val expected = cand.groupBy(root).values.toVector.map(cs => Cluster(cs, cs.map(overlap).max)).sortBy(_.columns.min)
      if (expected.exists(_.columns.size > 1)) joined += 1
      if (expected.size > 1) several += 1
      ColumnSelection.clusters(ex, idx) == expected
    }
    assert(joined > 25 && several > 25, s"vacuous: $joined cases with a multi-column cluster, $several with two or more")
  }
}
