package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ModelSpec extends AnyFunSuite {
  private val a = ColumnRef("t1", "x")
  private val b = ColumnRef("t2", "y")
  private val c = ColumnRef("t3", "z")

  test("JoinEdge canonicalizes endpoint order") {
    assert(JoinEdge(a, b) == JoinEdge(b, a))
  }
  test("JoinEdge equal edges hash equally") {
    assert(JoinEdge(a, b).hashCode == JoinEdge(b, a).hashCode)
  }
  test("JoinEdge rejects self-joins") {
    intercept[IllegalArgumentException](JoinEdge(a, ColumnRef("t1", "w")))
  }
  test("JoinEdge tables") { assert(JoinEdge(a, b).tables == Set("t1", "t2")) }
  test("JoinEdge endpointIn / endpointNotIn") {
    val e = JoinEdge(a, b)
    assert(e.endpointIn("t1") == a && e.endpointIn("t2") == b)
    assert(e.endpointNotIn("t1") == b && e.endpointNotIn("t2") == a)
  }
  test("JoinEdge endpointIn rejects untouched table") {
    intercept[IllegalArgumentException](JoinEdge(a, b).endpointIn("t3"))
  }
  test("edge sets deduplicate structurally") {
    assert(Set(JoinEdge(a, b), JoinEdge(b, a)).size == 1)
  }

  test("ViewSpec singleTable") {
    val v = ViewSpec.singleTable(Vector(a, ColumnRef("t1", "w")))
    assert(v.tables == Set("t1") && v.edges.isEmpty && v.connected && v.hops == 0)
  }
  test("ViewSpec singleTable rejects multi-table projection") {
    intercept[IllegalArgumentException](ViewSpec.singleTable(Vector(a, b)))
  }
  test("ViewSpec rejects projection outside tables") {
    intercept[IllegalArgumentException](ViewSpec(Set("t1"), Set.empty, Vector(b)))
  }
  test("ViewSpec rejects edges outside tables") {
    intercept[IllegalArgumentException](
      ViewSpec(Set("t1", "t2"), Set(JoinEdge(b, c)), Vector(a)))
  }
  test("ViewSpec rejects empty projection") {
    intercept[IllegalArgumentException](ViewSpec(Set("t1"), Set.empty, Vector.empty))
  }
  test("ViewSpec connectivity: chain is connected") {
    val v = ViewSpec(Set("t1", "t2", "t3"), Set(JoinEdge(a, b), JoinEdge(b, c)), Vector(a, c))
    assert(v.connected && v.hops == 2)
  }
  test("ViewSpec connectivity: missing link is disconnected") {
    val v = ViewSpec(Set("t1", "t2", "t3"), Set(JoinEdge(a, b)), Vector(a, c))
    assert(!v.connected)
  }
  test("ViewSpec key keeps projection order") {
    val v1 = ViewSpec(Set("t1", "t2"), Set(JoinEdge(a, b)), Vector(a, b))
    val v2 = ViewSpec(Set("t1", "t2"), Set(JoinEdge(a, b)), Vector(b, a))
    assert(v1.key != v2.key)
    assert(ViewSpec.singleTable(Vector(a, a)).key != ViewSpec.singleTable(Vector(a)).key)
  }

  test("ExampleQuery rejects empty columns") {
    intercept[IllegalArgumentException](ExampleQuery(Vector(Vector.empty)))
    intercept[IllegalArgumentException](ExampleQuery(Vector.empty))
  }
  test("ExampleQuery rejects three attributes, naming JOIN-GRAPH-SEARCH and τ") {
    val e = intercept[IllegalArgumentException](ExampleQuery(Vector(Vector("a"), Vector("b"), Vector("c"))))
    assert(e.getMessage.contains("JOIN-GRAPH-SEARCH") && e.getMessage.contains("τ = 3"), e.getMessage)
  }
  test("ExampleQuery arity") {
    assert(ExampleQuery(Vector(Vector("a"), Vector("b"))).arity == 2)
  }

  test("NoiseLevel fractions match §VI-B: 0, 1/3, 2/3") {
    assert(NoiseLevel.Zero.noiseFraction == 0.0)
    assert(math.abs(NoiseLevel.Med.noiseFraction - 1.0 / 3) < 1e-9)
    assert(math.abs(NoiseLevel.High.noiseFraction - 2.0 / 3) < 1e-9)
    assert(NoiseLevel.all.size == 3)
  }
}
