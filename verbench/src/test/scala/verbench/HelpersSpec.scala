package verbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

import repro.core.ColumnRef

class HelpersSpec extends AnyFunSuite {

  test("nearest-rank percentile reports the sample count and the samples beyond it") {
    val xs = (1 to 20).map(_.toDouble).reverse
    assert(Pct.of(xs, 50) == Pct(10.0, 20, 10))
    assert(Pct.of(xs, 95) == Pct(19.0, 20, 1))
    assert(Pct.of(xs, 100) == Pct(20.0, 20, 0))
    assert(Pct.of(Seq(7.0), 95) == Pct(7.0, 1, 0))
    assert(Pct.of(Seq(3.0, 1.0), 50).value == 1.0, "rank ceil(0.5 × 2) = 1 is the lower sample")
    assert(Pct.median(Seq(5.0, 1.0, 3.0)) == 3.0)
    intercept[IllegalArgumentException](Pct.of(Nil, 50))
    intercept[IllegalArgumentException](Pct.of(Seq(1.0), 0))
  }

  test("self time subtracts the union of children, clipped to the parent") {
    val parent = Span(0, "op", -1, "q", 0, 100)
    def child(id: Int, s: Long, e: Long) = Span(id, "c", 0, "q", s, e)
    assert(Span.selfNs(parent, Nil) == 100)
    assert(Span.selfNs(parent, Seq(child(1, 10, 30), child(2, 50, 60))) == 70)
    // Overlapping children count once.
    assert(Span.selfNs(parent, Seq(child(1, 10, 30), child(2, 20, 40), child(3, 25, 35))) == 70)
    // A child reaching past the parent's end is clipped to it.
    assert(Span.selfNs(parent, Seq(child(1, 90, 120))) == 90)
    // A child that fully covers the parent leaves no self time.
    assert(Span.selfNs(parent, Seq(child(1, -5, 105))) == 0)
  }

  test("nested spans record parents, and a grandchild does not reduce the root's self time twice") {
    val t = new Tracer(None)
    t.enabled = true
    t.query = "q1"
    t.span("op") { t.span("mat") { t.span("inner")(Thread.sleep(5)) }; Thread.sleep(2) }
    t.enabled = false
    t.span("untraced")(())
    val byName = t.spans.map(s => s.name -> s).toMap
    assert(byName.keySet == Set("op", "mat", "inner"))
    assert(byName("mat").parent == byName("op").id && byName("inner").parent == byName("mat").id)
    assert(t.spans.forall(_.query == "q1"))
    val op = byName("op")
    val self = Span.selfNs(op, t.spans.filter(_.parent == op.id))
    assert(self == op.durNs - byName("mat").durNs)
  }

  test("an operation that throws counts as attempted and failed, not dropped") {
    val log = new OpLog[Int]
    assert(log.attempt(1).contains(1))
    assert(log.attempt(throw new IllegalStateException("boom")).isEmpty)
    assert(log.attempt(3).contains(3))
    assert(log.attempted == 3 && log.failed == 1)
    assert(log.failures.head._1 == 1 && log.failures.head._2.contains("boom"))
    assert(log.latenciesMs.size == 2 && log.returned.map(_._1) == Vector(0, 2))
    // A failed output check marks a returned operation failed once.
    log.fail(2, "wrong output"); log.fail(2, "wrong again")
    assert(log.attempted == 3 && log.failed == 2)
  }

  test("reference containment counts overlaps across tables only") {
    val a = ColumnRef("a", "x"); val b = ColumnRef("b", "y"); val a2 = ColumnRef("a", "z")
    val values = Map(a -> Set("1", "2", "3", "4", "5"), b -> Set("1", "2", "3", "4"), a2 -> Set("1", "2", "3", "4"))
    assert(Reference.overlaps(values) == Map(Set(a, b) -> 4, Set(a2, b) -> 4))
    assert(Reference.containment(values, 0.8) == Map(Set(a, b) -> 1.0, Set(a2, b) -> 1.0))
    assert(Reference.containment(values - a2 + (b -> Set("1", "9", "8", "7")), 0.8).isEmpty)
  }

  test("Spark jobs are attributed to the innermost open span") {
    val spark = SparkSession.builder.master("local[1]").appName("verbench-test")
      .config("spark.ui.enabled", false).getOrCreate()
    try {
      val sc = spark.sparkContext
      val listener = new SpanListener
      sc.addSparkListener(listener)
      val t = new Tracer(Some(sc))
      t.enabled = true
      t.span("outer") {
        sc.parallelize(1 to 10, 2).count()
        t.span("inner")(sc.parallelize(1 to 10, 3).count())
        sc.parallelize(1 to 10, 4).count()
      }
      t.enabled = false
      sc.parallelize(1 to 10, 5).count()
      ListenerBusDrain(sc)
      val ids = t.spans.map(s => s.name -> s.id).toMap
      val by = listener.bySpan
      assert(by(ids("outer")).jobs == 2 && by(ids("outer")).tasks == 6)
      assert(by(ids("inner")).jobs == 1 && by(ids("inner")).tasks == 3)
      assert(by(-1).jobs == 1 && by(-1).tasks == 5, "work outside any span is kept apart")
      assert(by(ids("inner")).jobIntervalsMs.size == 1)
    } finally spark.stop()
  }
}
