package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

import repro.data.GroundTruth
import repro.discovery.{DiscoveryIndex, IndexReference}

/** Unit tests for JOIN-GRAPH-SEARCH (Algorithm 5) and the discovery index's
  * GENERATE-JOIN-GRAPHS over a hand-built join topology, plus a property
  * against a brute-force enumerator on random ones:
  *
  *   t1.k — t2.k          (direct)
  *   t1.a — t4.a, t4.b — t2.b   (2-hop path through t4)
  *   t2.f — t3.f          (t3 reachable only via t2)
  *   t5 is isolated.
  */
class JoinGraphSearchSpec extends AnyFunSuite {
  private def c(t: String, col: String) = ColumnRef(t, col)
  private val cols = Map(
    c("t1", "k") -> Set("1"), c("t1", "a") -> Set("2"), c("t1", "x") -> Set("3"),
    c("t2", "k") -> Set("1"), c("t2", "b") -> Set("4"), c("t2", "f") -> Set("5"),
    c("t3", "f") -> Set("5"), c("t3", "y") -> Set("6"),
    c("t4", "a") -> Set("2"), c("t4", "b") -> Set("4"),
    c("t5", "z") -> Set("7"),
  )
  private val index = DiscoveryIndex(cols, Map(
    (c("t1", "k"), c("t2", "k")) -> 1.0,
    (c("t1", "a"), c("t4", "a")) -> 1.0,
    (c("t2", "b"), c("t4", "b")) -> 1.0,
    (c("t2", "f"), c("t3", "f")) -> 1.0,
  ), 0.8)

  test("generateJoinGraphs: same table yields the empty graph") {
    assert(index.generateJoinGraphs("t1", "t1") == Vector(Set.empty))
  }
  test("generateJoinGraphs: direct edge plus the 2-hop path") {
    val gs = index.generateJoinGraphs("t1", "t2")
    assert(gs.size == 2)
    assert(gs.head == Set(JoinEdge(c("t1", "k"), c("t2", "k"))), "direct edges rank first")
    assert(gs(1) == Set(JoinEdge(c("t1", "a"), c("t4", "a")), JoinEdge(c("t2", "b"), c("t4", "b"))))
  }
  test("generateJoinGraphs: 2-hop-only pair") {
    val gs = index.generateJoinGraphs("t1", "t3")
    assert(gs == Vector(Set(JoinEdge(c("t1", "k"), c("t2", "k")), JoinEdge(c("t2", "f"), c("t3", "f")))))
  }
  test("generateJoinGraphs: unreachable pair yields nothing") {
    assert(index.generateJoinGraphs("t1", "t5").isEmpty)
  }
  test("neighbors are symmetric") {
    assert(index.neighbors(c("t1", "k")) == Vector(c("t2", "k")))
    assert(index.neighbors(c("t2", "k")) == Vector(c("t1", "k")))
  }
  test("containmentOf is order-insensitive") {
    assert(index.containmentOf(c("t2", "k"), c("t1", "k")) == 1.0)
    assert(index.containmentOf(c("t1", "k"), c("t5", "z")) == 0.0)
  }
  test("searchKeyword finds columns by value, case-insensitively") {
    assert(index.searchKeyword("1").toSet == Set(c("t1", "k"), c("t2", "k")))
    assert(index.searchKeyword("NOPE").isEmpty)
  }
  test("connectedComponents clusters by the neighbor relation") {
    val comps = index.connectedComponents(Set(c("t1", "k"), c("t2", "k"), c("t5", "z")))
    assert(comps.map(_.size).sorted == Vector(1, 2))
  }

  // ---- JoinGraphSearch over candidate sets ---------------------------------
  test("search: same-table pair yields a single-table view") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "k")), Set(c("t1", "x"))), index)
    assert(r.specs == Vector(ViewSpec.singleTable(Vector(c("t1", "k"), c("t1", "x")))))
  }
  test("search: cross-table pair yields direct and 2-hop specs, ranked") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "x")), Set(c("t2", "b"))), index)
    assert(r.specs.size == 2)
    assert(r.specs.head.hops == 1 && r.specs(1).hops == 2)
    assert(r.specs.forall(_.connected))
  }
  test("search: non-joinable pairs produce no specs") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "x")), Set(c("t5", "z"))), index)
    assert(r.specs.isEmpty && r.joinableGroups == 0 && r.joinGraphs == 0)
  }
  test("search: funnel statistics count joinable groups and graphs") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "x")), Set(c("t2", "b"), c("t3", "y"))), index)
    assert(r.joinableGroups >= 2, "t1+t2 and t1+t2+t3 table sets")
    assert(r.joinGraphs >= r.specs.size)
  }
  test("search: duplicate specs from different combos are deduplicated") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "k")), Set(c("t2", "k"))), index)
    assert(r.specs.map(_.key).distinct.size == r.specs.size)
  }
  test("search: single-attribute query yields single-table views") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "k"), c("t2", "k"))), index)
    assert(r.specs.toSet == Set(
      ViewSpec.singleTable(Vector(c("t1", "k"))),
      ViewSpec.singleTable(Vector(c("t2", "k")))))
  }
  test("search: overlapping candidate sets keep both projection orders") {
    val both = Set(c("t1", "k"), c("t2", "k"))
    val r = JoinGraphSearch.search(Vector(both, both), index)
    // (t1.k, t1.k) and (t2.k, t2.k) on one table; (t1.k, t2.k) and
    // (t2.k, t1.k) over the direct edge and the 2-hop path through t4.
    assert(r.specs.size == 6)
    assert(r.specs.count(_.projection == Vector(c("t2", "k"), c("t1", "k"))) == 2)
  }
  test("Ver.hit requires the ground truth's projection order") {
    val gt = GroundTruth("gt", ViewSpec(Set("t1", "t2"), Set(JoinEdge(c("t1", "k"), c("t2", "k"))),
      Vector(c("t1", "x"), c("t2", "b"))), Map(c("t1", "x") -> c("t1", "x"), c("t2", "b") -> c("t2", "b")))
    val swapped = gt.spec.copy(projection = gt.spec.projection.reverse)
    assert(Ver.hit(SearchResult(Vector(gt.spec), 1, 1), gt))
    assert(!Ver.hit(SearchResult(Vector(swapped), 1, 1), gt))
  }
  test("search rejects three attributes, naming the stage and τ") {
    val e = intercept[IllegalArgumentException](JoinGraphSearch.search(
      Vector(Set(c("t1", "x")), Set(c("t2", "b")), Set(c("t3", "y"))), index))
    assert(e.getMessage.contains("JOIN-GRAPH-SEARCH") && e.getMessage.contains("τ = 3"), e.getMessage)
  }
  test("search requires at least one candidate set") {
    intercept[IllegalArgumentException](JoinGraphSearch.search(Vector.empty, index))
  }

  // ---- search vs a brute-force enumerator ----------------------------------
  /** A random index over 3–5 tables of 1–3 columns, where each cross-table
    * column pair is joinable with probability 1/3, the index's pair map, and
    * 1–2 candidate sets drawn from all columns, so they may overlap.
    */
  private val caseGen = for {
    widths <- Gen.choose(3, 5).flatMap(n => Gen.listOfN(n, Gen.choose(1, 3)))
    cols = widths.zipWithIndex.flatMap { case (w, t) => (0 until w).map(i => c(s"r$t", s"c$i")) }.toVector
    pairs = for (a <- cols; b <- cols if a.table < b.table) yield (a, b)
    scores <- Gen.listOfN(pairs.size, Gen.frequency(2 -> Gen.const(0.0), 1 -> Gen.oneOf(0.8, 0.9, 1.0)))
    cands <- Gen.choose(1, 2).flatMap(n => Gen.listOfN(n, Gen.atLeastOne(cols).map(_.toSet)))
    joinable = pairs.zip(scores).filter(_._2 > 0).toMap
  } yield (DiscoveryIndex(cols.map(_ -> Nil), joinable, 0.8), joinable, cands.toVector)

  /** Brute-force JOIN-GRAPH-SEARCH: for each combination of candidate
    * columns, every set of ≤ 2 join edges that forms a tree whose leaves are
    * exactly the combination's two tables — the empty set when both columns
    * come from one table. Edges and their scores come from the pair map.
    */
  private def referenceSearch(cands: Vector[Set[ColumnRef]], pairs: Map[(ColumnRef, ColumnRef), Double]): SearchResult = {
    val edges = pairs.keys.toVector.map { case (a, b) => JoinEdge(a, b) }
    val subsets = Vector(Set.empty[JoinEdge]) ++ edges.map(Set(_)) ++ edges.combinations(2).map(_.toSet)
    def joins(g: Set[JoinEdge], t1: String, t2: String): Boolean = {
      val degree = g.toVector.flatMap(_.tables).groupMapReduce(identity)(_ => 1)(_ + _)
      // ≤ 2 edges over one table more than there are edges: a tree (a path).
      if (t1 == t2) g.isEmpty
      else degree.size == g.size + 1 && degree.filter(_._2 == 1).keySet == Set(t1, t2)
    }
    val combos = cands.foldLeft(Vector(Vector.empty[ColumnRef]))((acc, s) => for (p <- acc; a <- s) yield p :+ a)
    val specs = for {
      combo <- combos
      g <- subsets if joins(g, combo.head.table, combo.last.table)
    } yield ViewSpec(combo.map(_.table).toSet ++ g.flatMap(_.tables), g, combo)
    val ranked = specs.distinctBy(_.key)
      .sortBy(s => (s.hops, -s.edges.toVector.map(e => pairs((e.left, e.right))).sum, s.toString))
    SearchResult(ranked, specs.map(_.tables).distinct.size, specs.size)
  }

  test("search equals a brute-force enumerator on random indexes") {
    var twoHop = 0; var overlapping = 0
    // No shrinking: it would shrink the pair map apart from the index built from it.
    val prop = Prop.forAllNoShrink(caseGen) { case (idx, pairs, cands) =>
      IndexReference.check(idx, pairs, cands)
      val r = JoinGraphSearch.search(cands, idx)
      if (r.specs.exists(_.hops == 2)) twoHop += 1
      if (cands.size == 2 && cands(0).intersect(cands(1)).nonEmpty) overlapping += 1
      r == referenceSearch(cands, pairs)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
    assert(twoHop > 0 && overlapping > 0,
      s"vacuous: $twoHop cases with two-hop specs, $overlapping with overlapping candidate sets")
  }
}
