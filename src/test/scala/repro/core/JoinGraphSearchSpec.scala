package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.discovery.DiscoveryIndex

/** Unit tests for JOIN-GRAPH-SEARCH (Algorithm 5) and the discovery index's
  * GENERATE-JOIN-GRAPHS over a hand-built join topology:
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
  test("generateJoinGraphs: rho=1 excludes multi-hop paths") {
    assert(index.generateJoinGraphs("t1", "t2", rho = 1).size == 1)
    assert(index.generateJoinGraphs("t1", "t3", rho = 1).isEmpty)
  }
  test("generateJoinGraphs: 2-hop-only pair") {
    val gs = index.generateJoinGraphs("t1", "t3")
    assert(gs == Vector(Set(JoinEdge(c("t1", "k"), c("t2", "k")), JoinEdge(c("t2", "f"), c("t3", "f")))))
  }
  test("generateJoinGraphs: unreachable pair yields nothing") {
    assert(index.generateJoinGraphs("t1", "t5").isEmpty)
  }
  test("generateJoinGraphs honours maxGraphs with smaller graphs first") {
    val gs = index.generateJoinGraphs("t1", "t2", maxGraphs = 1)
    assert(gs == Vector(Set(JoinEdge(c("t1", "k"), c("t2", "k")))))
  }
  test("neighbors are symmetric") {
    assert(index.neighbors(c("t1", "k")) == Set(c("t2", "k")))
    assert(index.neighbors(c("t2", "k")) == Set(c("t1", "k")))
  }
  test("containmentOf is order-insensitive") {
    assert(index.containmentOf(c("t2", "k"), c("t1", "k")) == 1.0)
    assert(index.containmentOf(c("t1", "k"), c("t5", "z")) == 0.0)
  }
  test("searchKeyword finds columns by value, case-insensitively") {
    assert(index.searchKeyword("1").toSet == Set(c("t1", "k"), c("t2", "k")))
    assert(index.searchKeyword("NOPE").isEmpty)
  }
  test("searchAttribute matches column names") {
    assert(index.searchAttribute("k").toSet == Set(c("t1", "k"), c("t2", "k")))
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
  test("search: maxViews cap keeps the top-ranked specs") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "x")), Set(c("t2", "b"))), index,
      SearchConfig(maxViews = 1))
    assert(r.specs.size == 1 && r.specs.head.hops == 1)
  }
  test("search: single-attribute query yields single-table views") {
    val r = JoinGraphSearch.search(Vector(Set(c("t1", "k"), c("t2", "k"))), index)
    assert(r.specs.toSet == Set(
      ViewSpec.singleTable(Vector(c("t1", "k"))),
      ViewSpec.singleTable(Vector(c("t2", "k")))))
  }
  test("search: three-attribute combination connects all source tables") {
    val r = JoinGraphSearch.search(
      Vector(Set(c("t1", "x")), Set(c("t2", "b")), Set(c("t3", "y"))), index)
    assert(r.specs.nonEmpty)
    assert(r.specs.forall(s => s.connected && s.tables.size >= 3))
  }
  test("search requires at least one candidate set") {
    intercept[IllegalArgumentException](JoinGraphSearch.search(Vector.empty, index))
  }
}
