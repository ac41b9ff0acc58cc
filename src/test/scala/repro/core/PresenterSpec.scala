package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Unit tests for VIEW-PRESENTATION (Algorithm 2): question construction,
  * truthful answering, bandit behaviour, convergence and give-up.
  */
class PresenterSpec extends AnyFunSuite {

  private def spec2(c1: String, c2: String) =
    ViewSpec.singleTable(Vector(ColumnRef("t", c1), ColumnRef("t", c2)))
  private def mv(id: String, cols: (String, String), rows: (String, String)*): MatView =
    MatView.fromRows(id, spec2(cols._1, cols._2), Vector(cols._1, cols._2),
      rows.map(r => Seq(r._1, r._2)))

  /** Two schema blocks plus a contradiction within the (k,v) block. */
  private val views = Vector(
    mv("a", ("k", "v"), "1" -> "x", "2" -> "y"),
    mv("b", ("k", "v"), "1" -> "x", "3" -> "z"),
    mv("c", ("k", "v"), "1" -> "w", "4" -> "q"),
    mv("d", ("p", "q"), "1" -> "1", "2" -> "2"),
    mv("e", ("p", "q"), "3" -> "3", "4" -> "4"),
  )
  private val report = ViewDistillation.distill(views)
  private val scores = views.map(v => v.id -> 1.0).toMap

  private def alwaysAnswer: Map[Interface, Double] = Interface.all.map(_ -> 1.0).toMap
  private def neverAnswer: Map[Interface, Double] = Interface.all.map(_ -> 0.0).toMap

  test("perfect user finds the target") {
    val p = new Presenter(views, report, scores)
    val s = p.run(SimUser("perfect", alwaysAnswer, patience = 5, seed = 1), views(1))
    assert(s.found)
  }
  test("perfect user finds a target from the other schema block") {
    val p = new Presenter(views, report, scores)
    val s = p.run(SimUser("perfect", alwaysAnswer, patience = 5, seed = 2), views(3))
    assert(s.found)
  }
  test("truthful answers never prune the target (target survives to the end)") {
    for (seed <- 1 to 10; target <- views) {
      val p = new Presenter(views, report, scores)
      val s = p.run(SimUser("u", alwaysAnswer, patience = 5, seed = seed), target)
      assert(s.found, s"seed=$seed target=${target.id}")
    }
  }
  test("fully disengaged user gives up and does not find") {
    val p = new Presenter(views, report, scores)
    val s = p.run(SimUser("ghost", neverAnswer, patience = 1, seed = 3), views(0))
    assert(!s.found)
    assert(s.interactions <= 10, "gives up after a short skip streak")
  }
  test("sessions are deterministic in the seed") {
    def once = new Presenter(views, report, scores)
      .run(SimUser("u", Interface.all.map(_ -> 0.6).toMap, patience = 3, seed = 42), views(2))
    val (s1, s2) = (once, once)
    assert(s1 == s2)
  }
  test("interactions are counted and bounded by maxT plus the final scan") {
    val p = new Presenter(views, report, scores, maxT = 7)
    val s = p.run(SimUser("u", neverAnswer, patience = 1, seed = 5), views(0))
    assert(s.interactions <= 8)
  }
  test("a containment representative satisfies the session (superset semantics)") {
    val big = mv("big", ("k", "v"), "1" -> "x", "2" -> "y", "3" -> "z")
    val sub = mv("sub", ("k", "v"), "1" -> "x") // pruned by C2; big represents it
    val r = ViewDistillation.distill(Vector(big, sub))
    val p = new Presenter(r.distilled, r, Map("big" -> 1.0))
    val s = p.run(SimUser("u", alwaysAnswer, patience = 3, seed = 6), sub)
    assert(s.found, "the kept superset answers the query for the pruned target")
  }
  test("smallK candidate sets resolve in a single scan interaction") {
    val two = views.take(2)
    val r = ViewDistillation.distill(two)
    val p = new Presenter(r.distilled, r, scores)
    val s = p.run(SimUser("u", alwaysAnswer, patience = 3, seed = 7), two(0))
    assert(s.found && s.interactions == 1)
  }

  test("SimUser attribute answers follow the target schema") {
    val u = SimUser("u", alwaysAnswer, 3, 1)
    val byId = views.map(v => v.id -> v).toMap
    val q = Question(Interface.AttributeQ, "k",
      Vector(QOption("include", Set("d", "e")), QOption("exclude", Set("a", "b", "c"))))
    assert(u.answer(q, views(0), byId, new Random(1)).contains(0)) // target has k
    assert(u.answer(q, views(3), byId, new Random(1)).contains(1)) // target lacks k
  }
  test("SimUser summary answers compare schemas") {
    val u = SimUser("u", alwaysAnswer, 3, 1)
    val byId = views.map(v => v.id -> v).toMap
    val q = Question(Interface.SummaryQ, "k|v",
      Vector(QOption("relevant", Set("d", "e")), QOption("irrelevant", Set("a", "b", "c"))))
    assert(u.answer(q, views(0), byId, new Random(1)).contains(0))
    assert(u.answer(q, views(4), byId, new Random(1)).contains(1))
  }
  test("SimUser pair answers pick the side not pruning the target") {
    val u = SimUser("u", alwaysAnswer, 3, 1)
    val byId = views.map(v => v.id -> v).toMap
    val q = Question(Interface.PairQ, "k=1", Vector(
      QOption("side0", Set("c"), accepts = Some("a")),
      QOption("side1", Set("a", "b"), accepts = Some("c"))))
    assert(u.answer(q, views(0), byId, new Random(1)).contains(0)) // target a pruned by side1
    assert(u.answer(q, views(2), byId, new Random(1)).contains(1)) // target c pruned by side0
    assert(u.answer(q, views(3), byId, new Random(1)).isEmpty)     // uninvolved → skip
  }
  test("SimUser skips when the interface probability is zero") {
    val u = SimUser("u", neverAnswer, 3, 1)
    val byId = views.map(v => v.id -> v).toMap
    val q = Question(Interface.AttributeQ, "k",
      Vector(QOption("include", Set("d")), QOption("exclude", Set("a"))))
    assert(u.answer(q, views(0), byId, new Random(1)).isEmpty)
  }

  test("Question gain is the max prune size across answers") {
    val q = Question(Interface.AttributeQ, "k",
      Vector(QOption("include", Set("d", "e")), QOption("exclude", Set("a", "b", "c"))))
    assert(q.gain == 3)
  }
  test("Contradiction discrimination counts the largest agreeing side") {
    assert(Contradiction("k", "1", Vector(Set("a", "b", "c"), Set("d"))).discrimination == 3)
  }
  test("sampleArm picks the first arm whose cumulative probability exceeds u") {
    val ps = Vector(0.1, 0.2, 0.7)
    assert(Presenter.sampleArm(ps, 0.0) == 0)
    assert(Presenter.sampleArm(ps, 0.1) == 1)
    assert(Presenter.sampleArm(ps, 0.25) == 1)
    assert(Presenter.sampleArm(ps, math.nextDown(ps.sum)) == 2)
    // Rounding can leave u at the total: the last arm, not the first.
    assert(Presenter.sampleArm(ps, ps.sum) == 2)
  }
}
