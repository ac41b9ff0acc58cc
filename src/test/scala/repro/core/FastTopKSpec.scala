package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.discovery.DiscoveryIndex

class FastTopKSpec extends AnyFunSuite {
  private val s1 = ColumnRef("t1", "s"); private val p1 = ColumnRef("t1", "p")
  private val s2 = ColumnRef("t2", "s"); private val p2 = ColumnRef("t2", "p")
  private val index = DiscoveryIndex(
    Map(
      s1 -> Set("a", "b", "c"), p1 -> Set("x", "y"),
      s2 -> Set("a", "b", "c", "d", "e"), p2 -> Set("x", "z"),
    ),
    Map((s1, s2) -> 1.0),
    0.8)

  private val v1 = ViewSpec.singleTable(Vector(s1, p1))
  private val v2 = ViewSpec.singleTable(Vector(s2, p2))
  private val q = ExampleQuery(Vector(Vector("a", "b", "d"), Vector("x", "y", "q")))

  test("overlapScore counts contained examples per projected column") {
    assert(FastTopK.overlapScore(v1, index, q) == 2 + 2) // a,b + x,y
    assert(FastTopK.overlapScore(v2, index, q) == 3 + 1) // a,b,d + x
  }
  test("overlapScore counts duplicate example values once") {
    val dq = ExampleQuery(Vector(Vector("a", "a", "a"), Vector("x", "x", "x")))
    assert(FastTopK.overlapScore(v1, index, dq) == 2)
  }
  test("sizeProxy sums projected distinct counts") {
    assert(FastTopK.sizeProxy(v1, index) == 5 && FastTopK.sizeProxy(v2, index) == 7)
  }
  test("rank breaks overlap ties by size (larger coverage first)") {
    // both views overlap 4; v2's projected columns are larger → ranked first
    assert(FastTopK.rank(Seq(v1, v2), index, q) == Vector(v2, v1))
  }
  test("rank puts higher overlap first") {
    val q2 = ExampleQuery(Vector(Vector("d", "e", "b"), Vector("z", "x", "q")))
    assert(FastTopK.rank(Seq(v1, v2), index, q2).head == v2) // v2 overlap 5 beats v1's 2
  }
  test("browse finds the target within patience") {
    val (found, examined) = FastTopK.browse(Seq(v1, v2), _ == v2, patience = 2)
    assert(found && examined == 2)
  }
  test("browse fails beyond patience") {
    val (found, examined) = FastTopK.browse(Seq(v1, v2), _ == v2, patience = 1)
    assert(!found && examined == 1)
  }
  test("browse on a list without the target") {
    val (found, _) = FastTopK.browse(Seq(v1), _ == v2, patience = 10)
    assert(!found)
  }
}
