package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.data.{Table, TableRepo}

/** Unit tests for VIEW-PRESENTATION (Algorithm 2): question construction,
  * truthful answering, bandit behaviour, convergence and give-up, and the
  * pinned sessions of a 5-view fixture; plus properties of `questions`,
  * `probabilities` and `step` on random distilled view sets, and of
  * `questions` and `step` against their references over view ids.
  */
class PresenterSpec extends AnyFunSuite {
  import PresenterSpec.Round

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

  // A presenter speaks view numbers; the tests compare in view ids, through
  // `ids` and the `decode`s below. The fixture's ids a–e are numbers 0–4.
  private val fixture = new Presenter(views, report, scores)
  /** The fixture's view set of `ids`. */
  private def fixtureSet(ids: String*): Array[Long] =
    Array(ids.map(id => 1L << fixture.byNumber.indexWhere(_.id == id)).foldLeft(0L)(_ | _))
  /** The ids of the views in `set`, one of `p`'s view sets. */
  private def ids(p: Presenter, set: Array[Long]): Set[String] = Presenter.members(set).map(p.byNumber(_).id).toSet
  private def decode(p: Presenter, q: Question): QuestionsReference.Question =
    QuestionsReference.Question(q.iface, q.label, q.options.map(o =>
      QuestionsReference.QOption(o.label, ids(p, o.prune), o.accepts.map(p.byNumber(_).id))))
  private def decode(p: Presenter, s: Presenter.State): StepReference.State =
    StepReference.State(Presenter.members(s.live).map(v => p.byNumber(v).id -> s.utility(v)).toMap,
      s.asked, s.answered, s.shown, s.interactions, s.skipStreak)

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
  /** One line per target in `views` order, one `found interactions/finalSize`
    * token per seed 1–10 (`+` found, `-` not), for a user who answers
    * everything and one who answers each interface by chance.
    */
  private val PinnedSessions = Vector(
    SimUser("u", alwaysAnswer, patience = 5, seed = 0) -> Vector(
      "+2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3",
      "+2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3",
      "+2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3 +2/3",
      "+2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2",
      "+2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2 +2/2"),
    SimUser("mixed", Map(Interface.DatasetQ -> 0.5, Interface.AttributeQ -> 0.7, Interface.PairQ -> 0.6,
      Interface.SummaryQ -> 0.3), patience = 2, seed = 0) -> Vector(
      "+2/5 +8/3 +2/5 +6/3 +2/5 +5/3 +7/3 +6/2 +8/3 +2/5",
      "+4/3 +8/3 +4/3 +6/3 +4/3 +5/3 +6/4 +6/2 +6/5 +4/3",
      "+4/3 +4/3 +4/3 +6/3 +4/3 +5/3 +4/3 +4/3 +8/3 +4/3",
      "+7/3 +9/2 +6/2 +6/2 +6/2 +5/2 +12/2 +6/2 +11/3 +5/2",
      "+7/3 +9/2 +6/2 +6/2 +6/2 +5/2 +12/2 +6/2 +11/3 +5/2"))

  test("the fixture's sessions are pinned for seeds 1–10, every target and two users") {
    def token(s: Session): String = s"${if (s.found) "+" else "-"}${s.interactions}/${s.finalSize}"
    for ((user, lines) <- PinnedSessions; (target, line) <- views.zip(lines)) {
      val sessions = (1 to 10).map(seed => new Presenter(views, report, scores).run(user.copy(seed = seed), target))
      assert(sessions.map(token).mkString(" ") == line, s"user=${user.name} target=${target.id}")
    }
  }

  test("a session that keeps more than SmallK views ends at Presenter.MaxT") {
    // One schema and no contradictions: only DatasetQ and the top-2 PairQ
    // have questions. The user answers DatasetQ only, and each "no" (no view
    // covers the target) prunes one of the 100 views.
    val many = Vector.tabulate(100)(i => mv(f"m$i%03d", ("k", "v"), i.toString -> s"v$i"))
    val r = ViewDistillation.distill(many)
    val user = SimUser("u", Map(Interface.DatasetQ -> 1.0), patience = 3, seed = 8)
    val s = new Presenter(r.distilled, r, Map.empty).run(user, mv("target", ("k", "v"), "none" -> "x"))
    assert(r.distilled.size == 100 && r.contradictions.isEmpty)
    assert(!s.found && s.interactions == Presenter.MaxT && s.finalSize > Presenter.SmallK, s)
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

  /** The rule `satisfies` keeps: same schema, and the target's rows a
    * subset of the view's, compared as strings.
    */
  private def satisfiesByStrings(view: MatView, target: MatView): Boolean =
    view.schema == target.schema && target.rows.toSet[Vector[String]].subsetOf(view.rows.toSet)

  test("satisfies: case, prefixes, ∅ and 0-row targets") {
    val n = Materializer.NullCell
    val abc = mv("t", ("k", "v"), "Abc" -> "a", n -> "")
    assert(Presenter.satisfies(mv("a", ("k", "v"), "Abc" -> "a", n -> "", "abc" -> "ab"), abc))
    assert(!Presenter.satisfies(mv("b", ("k", "v"), "abc" -> "a", n -> ""), abc))
    assert(!Presenter.satisfies(mv("c", ("k", "v"), "Abc" -> "ab", n -> ""), abc))
    assert(!Presenter.satisfies(mv("d", ("k", "v"), "Abc" -> "a", "" -> ""), abc))
    assert(!Presenter.satisfies(mv("e", ("k", "w"), "Abc" -> "a", n -> ""), abc))
    val empty = mv("t0", ("k", "v"))
    assert(Presenter.satisfies(abc, empty) && Presenter.satisfies(empty, empty))
    assert(!Presenter.satisfies(mv("e", ("k", "w")), empty) && !Presenter.satisfies(empty, abc))
  }

  test("satisfies equals the string rule on views of one repo dictionary and of their own") {
    // Tables t0–t3 over (k, v) take random subsets, some empty, of one pool
    // of rows, so views nest; each view projects its table on (k, v), k or v.
    val cell = Gen.frequency(6 -> Gen.oneOf(Materializer.NullCell, "", "a", "ab", "Abc", "abc"), 1 -> Gen.const(null: String))
    val viewsGen = for {
      pool <- Gen.listOfN(6, Gen.listOfN(2, cell))
      tables <- Gen.listOfN(4, Gen.someOf(pool))
      projections <- Gen.listOfN(4, Gen.oneOf(Vector("k", "v"), Vector("v", "k"), Vector("k"), Vector("v")))
    } yield {
      val repo = TableRepo("satisfies", tables.zipWithIndex.map { case (rows, i) =>
        Table(s"t$i", Seq("k", "v"), rows.toSeq) }.toVector, Vector.empty)
      projections.zipWithIndex.map { case (cols, i) =>
        Materializer.materialize(repo, ViewSpec.singleTable(cols.map(ColumnRef(s"t$i", _))), s"v$i")
      }.toVector
    }
    var satisfied = 0; var unsatisfied = 0; var emptyTargets = 0; var emptyViews = 0
    val prop = Prop.forAllNoShrink(viewsGen) { views =>
      val rebuilt = views.map(v => MatView.fromRows(v.id, v.spec, v.schema, v.rows))
      views.indices.forall { i =>
        views.indices.forall { j =>
          val expected = satisfiesByStrings(views(i), views(j))
          if (expected) satisfied += 1 else if (views(i).schema == views(j).schema) unsatisfied += 1
          if (expected && views(j).size == 0) emptyTargets += 1
          if (views(i).size == 0 && views(i).schema == views(j).schema) emptyViews += 1
          Presenter.satisfies(views(i), views(j)) == expected &&
            Presenter.satisfies(rebuilt(i), rebuilt(j)) == expected &&
            Presenter.satisfies(views(i), rebuilt(j)) == expected
        }
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
    assert(satisfied > 0 && unsatisfied > 0 && emptyTargets > 0 && emptyViews > 0,
      s"vacuous: $satisfied satisfied, $unsatisfied same-schema unsatisfied, $emptyTargets 0-row targets, " +
        s"$emptyViews 0-row views")
  }

  test("SimUser attribute answers follow the target schema") {
    val u = SimUser("u", alwaysAnswer, 3, 1)
    val byNumber = fixture.byNumber
    val q = Question(Interface.AttributeQ, "k",
      Vector(QOption("include", fixtureSet("d", "e")), QOption("exclude", fixtureSet("a", "b", "c"))))
    assert(u.answer(q, views(0), byNumber, new Random(1)).contains(0)) // target has k
    assert(u.answer(q, views(3), byNumber, new Random(1)).contains(1)) // target lacks k
  }
  test("SimUser summary answers compare schemas") {
    val u = SimUser("u", alwaysAnswer, 3, 1)
    val byNumber = fixture.byNumber
    val q = Question(Interface.SummaryQ, "k|v",
      Vector(QOption("relevant", fixtureSet("d", "e")), QOption("irrelevant", fixtureSet("a", "b", "c"))))
    assert(u.answer(q, views(0), byNumber, new Random(1)).contains(0))
    assert(u.answer(q, views(4), byNumber, new Random(1)).contains(1))
  }
  test("SimUser summary answers hold for column names that contain |") {
    // The label of schema (k|v, w) reads "k|v|w", as (k, v, w) would.
    val piped = Vector(
      mv("p1", ("k|v", "w"), "1" -> "x"), mv("p2", ("k|v", "w"), "2" -> "y"),
      mv("q1", ("a", "b"), "1" -> "x"), mv("q2", ("a", "b"), "3" -> "z"))
    val r = ViewDistillation.distill(piped)
    val p = new Presenter(r.distilled, r, Map.empty)
    val q = p.questions(p.initial).find(_.iface == Interface.SummaryQ).get
    val byNumber = p.byNumber
    val answer = SimUser("u", alwaysAnswer, 3, 1).answer(q, piped(0), byNumber, new Random(1))
    assert(q.label == "k|v|w" && answer.contains(0) && !ids(p, q.options(0).prune).contains("p1"))
  }
  test("SummaryQ picks between schemas with one label by schema order, whatever the order of the views") {
    // (k|v, w) and (k, v, w) both read "k|v|w", and their splits tie.
    val piped = Vector(
      mv("p1", ("k|v", "w"), "1" -> "x"), mv("p2", ("k|v", "w"), "2" -> "y"),
      MatView.fromRows("q1", ViewSpec.singleTable(Vector("k", "v", "w").map(ColumnRef("t", _))),
        Vector("k", "v", "w"), Seq(Seq("1", "x", "y"))),
      MatView.fromRows("q2", ViewSpec.singleTable(Vector("k", "v", "w").map(ColumnRef("t", _))),
        Vector("k", "v", "w"), Seq(Seq("2", "y", "z"))))
    val r = ViewDistillation.distill(piped)
    def summary(vs: Vector[MatView]) = {
      val p = new Presenter(vs, r, Map.empty)
      decode(p, p.questions(p.initial).find(_.iface == Interface.SummaryQ).get)
    }
    val q = summary(piped)
    assert(q.label == "k|v|w" && q.options(1).prune == Set("q1", "q2"))
    assert(summary(piped.reverse) == q)
  }
  test("SimUser pair answers pick the side not pruning the target") {
    val u = SimUser("u", alwaysAnswer, 3, 1)
    val byNumber = fixture.byNumber
    val q = Question(Interface.PairQ, "k=1", Vector(
      QOption("side0", fixtureSet("c"), accepts = Some(0)),
      QOption("side1", fixtureSet("a", "b"), accepts = Some(2))))
    assert(u.answer(q, views(0), byNumber, new Random(1)).contains(0)) // target a pruned by side1
    assert(u.answer(q, views(2), byNumber, new Random(1)).contains(1)) // target c pruned by side0
    assert(u.answer(q, views(3), byNumber, new Random(1)).isEmpty)     // uninvolved → skip
  }
  test("SimUser skips when the interface probability is zero") {
    val u = SimUser("u", neverAnswer, 3, 1)
    val byNumber = fixture.byNumber
    val q = Question(Interface.AttributeQ, "k",
      Vector(QOption("include", fixtureSet("d")), QOption("exclude", fixtureSet("a"))))
    assert(u.answer(q, views(0), byNumber, new Random(1)).isEmpty)
  }

  test("Question gain is the max prune size across answers") {
    val q = Question(Interface.AttributeQ, "k",
      Vector(QOption("include", fixtureSet("d", "e")), QOption("exclude", fixtureSet("a", "b", "c"))))
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

  // ---- properties on random distilled view sets ----------------------------
  /** `views` random views over (k,v), (k,w), (a,b), (k,v,w) and (k|v,w) —
    * (a,b) has the arity of (k,v) under other names, and the SummaryQ label
    * of (k|v,w) reads as (k,v,w)'s — with keys 0 to `maxKey` and cells
    * x/y/z, so key values collide into contradictions. The target is one of
    * the raw views, which C1/C2 may have dropped for a representative; users
    * answer each interface with probability 0, 0.3, 0.7 or 1.
    */
  private def cases(views: Gen[Int], maxKey: Int) = for {
    n <- views
    raw <- Gen.listOfN(n, for {
      schema <- Gen.oneOf(Vector("k", "v"), Vector("k", "w"), Vector("a", "b"), Vector("k", "v", "w"),
        Vector("k|v", "w"))
      rows <- Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.sequence[Vector[String], String](
        Gen.choose(0, maxKey).map(_.toString) +: schema.tail.map(_ => Gen.oneOf("x", "y", "z")))))
    } yield (schema, rows))
    views = raw.zipWithIndex.map { case ((schema, rows), i) =>
      MatView.fromRows(s"r$i", ViewSpec.singleTable(schema.map(ColumnRef("t", _))), schema, rows)
    }.toVector
    target <- Gen.oneOf(views)
    scores <- Gen.listOfN(n, Gen.choose(0, 2).map(_.toDouble))
    probs <- Gen.listOfN(Interface.all.size, Gen.oneOf(0.0, 0.3, 0.7, 1.0))
    seed <- Gen.long
  } yield (views, target, views.map(_.id).zip(scores).toMap, Interface.all.zip(probs).toMap, seed)
  /** 4–30 views with keys 0–5. */
  private val caseGen = cases(Gen.choose(4, 30), 5)
  /** 90–130 views with keys 0–99, which rarely contain one another, so
    * C1/C2 keep more views than one 64-bit word holds.
    */
  private val wideGen = cases(Gen.choose(90, 130), 99)

  /** Walks one session from `initial`, showing a random one of each round's
    * questions (not the bandit's pick, to reach every kind of state) and
    * applying `user`'s answer, for up to `Presenter.MaxT` rounds.
    */
  private def walk(p: Presenter, user: SimUser, target: MatView): Vector[Round] = {
    val rng = new Random(user.seed)
    val rounds = Vector.newBuilder[Round]
    var state = Option(p.initial)
    while (state.exists(s => s.interactions < Presenter.MaxT && p.questions(s).nonEmpty)) {
      val s = state.get
      val qs = p.questions(s)
      val q = qs(rng.nextInt(qs.size))
      val answer = user.answer(q, target, p.byNumber, rng)
      val next = Presenter.step(s, q, answer)
      rounds += Round(s, qs, q, answer, next)
      state = next.toOption
    }
    rounds.result()
  }

  test("a truthful step never removes a live view that satisfies the target") {
    var answered = 0; var bad = 0
    val prop = Prop.forAllNoShrink(caseGen) { case (raw, target, scores, _, seed) =>
      val r = ViewDistillation.distill(raw)
      val byId = r.distilled.map(v => v.id -> v).toMap
      val p = new Presenter(r.distilled, r, scores)
      for (Round(s, _, _, _, next) <- walk(p, SimUser("u", alwaysAnswer, 3, seed), target)) {
        val satisfying = ids(p, s.live).filter(id => Presenter.satisfies(byId(id), target))
        next.foreach { n =>
          if (n.answered != s.answered && satisfying.nonEmpty) answered += 1
          if (!satisfying.subsetOf(ids(p, n.live))) bad += 1
        }
      }
      bad == 0
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, s"$bad bad steps: ${res.status}")
    assert(answered > 300, s"vacuous: $answered answered steps with a satisfying live view")
  }

  test("probabilities sum to 1 and give every interface at least Gamma / |I|") {
    var postBootstrap = 0
    val prop = Prop.forAllNoShrink(caseGen) { case (raw, target, scores, probs, seed) =>
      val r = ViewDistillation.distill(raw)
      var ok = true
      for (Round(s, qs, _, _, _) <- walk(new Presenter(r.distilled, r, scores), SimUser("u", probs, 3, seed), target)) {
        val ps = Presenter.probabilities(s, qs)
        if (qs.forall(q => s.asked(q.iface) >= Presenter.BootstrapPerArm)) postBootstrap += 1
        ok &&= ps.size == qs.size && math.abs(ps.sum - 1) <= 1e-9 &&
          ps.forall(_ >= Presenter.Gamma / Interface.all.size)
      }
      ok
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
    assert(postBootstrap > 300, s"vacuous: $postBootstrap post-bootstrap states")
  }

  test("questions equal the set-based reference at every state of a session, in both view orders") {
    var states = 0; var contradictionStates = 0; var wide = 0; var bad = 0
    for ((gen, minCases) <- Seq(caseGen -> 300, wideGen -> 30)) {
      val prop = Prop.forAllNoShrink(gen) { case (raw, target, scores, probs, seed) =>
        val r = ViewDistillation.distill(raw)
        if (r.distilled.size > 64) wide += 1
        for (views <- Seq(r.distilled, r.distilled.reverse)) {
          val reference = QuestionsReference(views, r) _
          val p = new Presenter(views, r, scores)
          for (Round(s, qs, _, _, _) <- walk(p, SimUser("u", probs, 3, seed), target)) {
            states += 1
            if (qs.exists(q => q.iface == Interface.PairQ && !q.label.contains(" vs "))) contradictionStates += 1
            if (qs.map(decode(p, _)) != reference(decode(p, s))) bad += 1
          }
        }
        bad == 0
      }
      val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minCases), prop)
      assert(res.passed, s"$bad of $states states differ: ${res.status}")
    }
    assert(contradictionStates > 300, s"vacuous: $contradictionStates states offer a contradiction's PairQ")
    assert(wide >= 30, s"only $wide cases distilled to more than 64 views")
  }

  test("states equal the Map-based step reference at every round of a session, in both view orders") {
    var states = 0; var wide = 0; var bad = 0
    /** A state's live ids with their utilities as raw bits, its ranking and its counters. */
    def observe(s: StepReference.State, ranking: Vector[String]) =
      (s.utility.view.mapValues(java.lang.Double.doubleToRawLongBits).toMap, ranking,
        s.copy(utility = Map.empty))
    for ((gen, minCases) <- Seq(caseGen -> 300, wideGen -> 30)) {
      val prop = Prop.forAllNoShrink(gen) { case (raw, target, scores, probs, seed) =>
        val r = ViewDistillation.distill(raw)
        if (r.distilled.size > 64) wide += 1
        for (views <- Seq(r.distilled, r.distilled.reverse)) {
          val p = new Presenter(views, r, scores)
          // The reference walks its own states, from the same questions and
          // answers; each state of the walk must decode to the reference's.
          var reference = StepReference.initial(views, scores)
          def check(s: Presenter.State): Unit = {
            states += 1
            if (observe(decode(p, s), s.ranking.map(p.byNumber(_).id)) != observe(reference, reference.ranking))
              bad += 1
          }
          val rounds = walk(p, SimUser("u", probs, 3, seed), target)
          for (round <- rounds) {
            check(round.state)
            val next = StepReference.step(reference, decode(p, round.shown), round.answer)
            if (next.left.toOption != round.next.left.toOption) bad += 1
            next.foreach(reference = _)
          }
          rounds.lastOption.flatMap(_.next.toOption).foreach(check)
        }
        bad == 0
      }
      val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minCases), prop)
      assert(res.passed, s"$bad of $states states differ: ${res.status}")
    }
    assert(wide >= 30, s"only $wide cases distilled to more than 64 views")
  }

  test("a session is deterministic in its seed, whatever the order of the views") {
    val prop = Prop.forAllNoShrink(caseGen) { case (raw, target, scores, probs, seed) =>
      val r = ViewDistillation.distill(raw)
      val user = SimUser("u", probs, 3, seed)
      val s = new Presenter(r.distilled, r, scores).run(user, target)
      s == new Presenter(r.distilled, r, scores).run(user, target) &&
        s == new Presenter(r.distilled.reverse, r, scores).run(user, target)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status.toString)
  }
}

object PresenterSpec {

  /** One round of a walk: the state, its questions, the one shown, the
    * user's answer and the step's result.
    */
  final case class Round(state: Presenter.State, questions: Vector[Question], shown: Question,
                         answer: Option[Int], next: Either[Session, Presenter.State])
}
