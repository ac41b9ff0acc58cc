package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** Unit tests for VIEW-DISTILLATION (Algorithm 3) on handcrafted views
  * covering each 4C definition, plus randomized invariants.
  */
class FourCSpec extends AnyFunSuite {

  private def spec2(c1: String, c2: String) =
    ViewSpec.singleTable(Vector(ColumnRef("t", c1), ColumnRef("t", c2)))

  /** Two-column view builder (schema kept in sorted order by fromRows). */
  private def mv(id: String, cols: (String, String), rows: (String, String)*): MatView =
    MatView.fromRows(id, spec2(cols._1, cols._2), Vector(cols._1, cols._2),
      rows.map(r => Seq(r._1, r._2)))

  private val kv = ("k", "v")

  // ---- MatView basics ------------------------------------------------------
  test("MatView deduplicates rows") {
    assert(mv("a", kv, "1" -> "x", "1" -> "x").rows.size == 1)
  }
  test("MatView canonicalizes schema order") {
    val v = MatView.fromRows("a", spec2("b", "a"), Vector("b", "a"), Seq(Seq("1", "2")))
    assert(v.schema == Vector("a", "b") && v.rows == Vector(Vector("2", "1")))
  }
  test("MatView size counts distinct rows, and the constructor takes only distinct rows in canonical order") {
    assert(mv("a", kv, "1" -> "x", "2" -> "y", "1" -> "x").size == 2)
    val rows = Vector(Vector("1", "x"), Vector("2", "y"))
    val v = MatView("a", spec2("k", "v"), Vector("k", "v"), rows)
    assert(v.size == 2 && v.rows == rows && v == mv("a", kv, "2" -> "y", "1" -> "x"))
    for (bad <- Seq(rows.reverse, Vector(rows(0), rows(0)), rows :+ rows(0))) {
      val e = intercept[IllegalArgumentException](MatView("b", spec2("k", "v"), Vector("k", "v"), bad))
      assert(e.getMessage.contains("b: rows not distinct and in canonical order"))
    }
  }
  test("MatView of 0 rows: size 0 and every column a candidate key") {
    for (v <- Seq(mv("a", kv), MatView("b", spec2("k", "v"), Vector("k", "v"), Vector.empty))) {
      assert(v.size == 0 && v.candidateKeys == Vector("k", "v"))
    }
  }
  test("candidateKeys: a ∅ cell is one value, distinct from the empty cell") {
    val n = Materializer.NullCell
    assert(mv("a", kv, n -> "x", n -> "y").candidateKeys == Vector("v"))
    assert(mv("a", kv, n -> "x", "" -> "y").candidateKeys == Vector("k", "v"))
  }
  test("MatView equality is over id, spec, schema and rows, whatever the dictionary") {
    val a = mv("a", kv, "1" -> "x")
    val b = mv("a", kv, "1" -> "x", "2" -> "y")
    val (kept, _) = ViewDistillation.keepLargestContained(Vector(a, b))
    assert(kept == Vector(b) && kept.head.hashCode == b.hashCode)
    assert(a != a.copy(id = "b") && a.copy(id = "b").copy(id = "a") == a)
  }
  test("candidateKeys: both unique columns are keys") {
    assert(mv("a", kv, "1" -> "x", "2" -> "y").candidateKeys == Vector("k", "v"))
  }
  test("candidateKeys: repeated values disqualify a column") {
    assert(mv("a", kv, "1" -> "x", "2" -> "x").candidateKeys == Vector("k"))
  }
  test("candidateKeys: view may have no key") {
    assert(mv("a", kv, "1" -> "x", "1" -> "y", "2" -> "y", "2" -> "x").candidateKeys.isEmpty)
  }
  test("columnIndex resolves and rejects") {
    val v = mv("a", kv, "1" -> "x")
    assert(v.columnIndex("k") == 0 && v.columnIndex("v") == 1)
    intercept[IllegalArgumentException](v.columnIndex("nope"))
  }

  // ---- schema blocks -------------------------------------------------------
  test("schemaBlocks groups by canonical schema") {
    val blocks = ViewDistillation.schemaBlocks(Seq(
      mv("a", kv, "1" -> "x"), mv("b", ("v", "k"), "y" -> "2"), mv("c", ("x", "y"), "p" -> "q")))
    assert(blocks.size == 2)
    assert(blocks.map(_.map(_.id).toSet).contains(Set("a", "b")))
  }

  // ---- C1 compatible -------------------------------------------------------
  test("compatible views collapse to one representative (Definition 5)") {
    val (kept, edges) = ViewDistillation.dedupCompatible(Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "2" -> "y", "1" -> "x")))
    assert(kept.map(_.id) == Vector("a"))
    assert(edges == Vector(ViewEdge("a", "b", Rel.Compatible)))
  }
  test("non-compatible views both survive C1") {
    val (kept, edges) = ViewDistillation.dedupCompatible(Vector(
      mv("a", kv, "1" -> "x"), mv("b", kv, "2" -> "y")))
    assert(kept.size == 2 && edges.isEmpty)
  }
  test("compatibility is transitive: one representative for three") {
    val vs = Vector(mv("a", kv, "1" -> "x"), mv("b", kv, "1" -> "x"), mv("c", kv, "1" -> "x"))
    val (kept, edges) = ViewDistillation.dedupCompatible(vs)
    assert(kept.size == 1 && edges.size == 2)
  }

  // ---- C2 contained --------------------------------------------------------
  test("contained views: largest kept (Definition 6)") {
    val (kept, edges) = ViewDistillation.keepLargestContained(Vector(
      mv("small", kv, "1" -> "x"), mv("big", kv, "1" -> "x", "2" -> "y")))
    assert(kept.map(_.id) == Vector("big"))
    assert(edges == Vector(ViewEdge("big", "small", Rel.Contained)))
  }
  test("containment chain collapses to the top") {
    val (kept, edges) = ViewDistillation.keepLargestContained(Vector(
      mv("v1", kv, "1" -> "x"),
      mv("v2", kv, "1" -> "x", "2" -> "y"),
      mv("v3", kv, "1" -> "x", "2" -> "y", "3" -> "z")))
    assert(kept.map(_.id) == Vector("v3") && edges.size == 2)
  }
  test("overlapping but not contained views both survive C2") {
    val (kept, _) = ViewDistillation.keepLargestContained(Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "2" -> "y", "3" -> "z")))
    assert(kept.size == 2)
  }

  // ---- contradictions ------------------------------------------------------
  private def signals(block: MatView*): KeySignals = ViewDistillation.keySignals(block.toVector, "k")

  test("contradicts: same key value, different rows (Definition 9)") {
    val s = signals(mv("a", kv, "1" -> "x"), mv("b", kv, "1" -> "y"))
    assert(s.contradictions == Vector(Contradiction("k", "1", Vector(Set("a"), Set("b")))))
    assert(s.contradictory == Vector(("a", "b")))
  }
  test("a pair that contradicts at two key values gets one Contradictory edge") {
    // Under k = 1 a's row sorts first and under k = 2 b's does: the sides
    // swap, the edge does not.
    val r = ViewDistillation.distill(Vector(
      mv("a", kv, "1" -> "x", "2" -> "z"), mv("b", kv, "1" -> "y", "2" -> "w")))
    assert(r.contradictions.map(_.sides) == Vector(Vector(Set("a"), Set("b")), Vector(Set("b"), Set("a"))))
    assert(r.edges == Vector(ViewEdge("a", "b", Rel.Contradictory, Some("k"))))
  }
  test("no contradiction when shared key values agree") {
    val s = signals(mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "1" -> "x", "3" -> "z"))
    assert(s.contradictions.isEmpty && s.complementary == Vector(("a", "b")))
  }
  test("no contradiction without shared key values") {
    assert(signals(mv("a", kv, "1" -> "x"), mv("b", kv, "2" -> "y")).contradictions.isEmpty)
  }
  test("contradictionsFor builds sides from the inverted index") {
    val cs = signals(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "1" -> "x", "3" -> "z"),
      mv("c", kv, "1" -> "w")).contradictions
    assert(cs.size == 1)
    val c = cs.head
    assert(c.keyValue == "1" && c.sides.map(_.toSet).toSet == Set(Set("a", "b"), Set("c")))
    assert(c.discrimination == 2)
  }
  test("views without the candidate key do not participate") {
    val s = signals(
      mv("a", kv, "1" -> "x"),
      mv("nokey", kv, "1" -> "y", "1" -> "z", "2" -> "z", "2" -> "y"))
    assert(s.contradictions.isEmpty && s.afterUnion == 2)
  }
  test("restrictTo drops resolved contradictions") {
    val c = Contradiction("k", "1", Vector(Set("a"), Set("b")))
    assert(QuestionsReference.restrictTo(c, Set("a", "b")).nonEmpty)
    assert(QuestionsReference.restrictTo(c, Set("a")).isEmpty)
  }

  // ---- complementary / C3 --------------------------------------------------
  test("complementary pair: same key, overlap, no containment (Definition 8)") {
    val s = signals(mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "2" -> "y", "3" -> "z"))
    assert(s.complementary == Vector(("a", "b")) && s.afterUnion == 1)
    val contained = signals(mv("a", kv, "1" -> "x", "2" -> "y"), mv("sub", kv, "2" -> "y"))
    assert(contained.complementary.isEmpty && contained.afterUnion == 2)
  }
  test("disjoint views are not complementary (no overlap)") {
    assert(signals(mv("a", kv, "1" -> "x"), mv("b", kv, "2" -> "y")).complementary.isEmpty)
  }
  test("contradictory overrides complementary for the same key") {
    val s = signals(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "2" -> "y", "1" -> "z")) // overlap on (2,y), contradiction on k=1
    assert(s.complementary.isEmpty && s.contradictions.map(_.keyValue) == Vector("1"))
  }
  test("countAfterUnion merges connected components") {
    val s = signals(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "2" -> "y", "3" -> "z"),
      mv("c", kv, "9" -> "q"))
    assert(s.afterUnion == 2)
  }
  test("c3Counts: best and worst key differ when one key contradicts") {
    // Under k: shared row (2,y), no contradiction → union to 1.
    // Under v: value x maps to (1,x) in a and (3,x) in b → contradiction → 2.
    val r = ViewDistillation.distill(Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("b", kv, "2" -> "y", "3" -> "x")))
    assert(r.c3Worst == 2 && r.c3Best == 1)
  }
  test("c3Counts: no shared candidate key means no reduction") {
    val r = ViewDistillation.distill(Vector(
      mv("a", kv, "1" -> "x", "1" -> "y", "2" -> "y", "2" -> "x"),
      mv("b", kv, "3" -> "z", "3" -> "w", "4" -> "w", "4" -> "z")))
    assert(r.c3Worst == 2 && r.c3Best == 2)
  }

  // ---- distill integration -------------------------------------------------
  test("distill produces monotone counts and the 4C edge set") {
    val views = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"),
      mv("a2", kv, "2" -> "y", "1" -> "x"),                 // compatible with a
      mv("sub", kv, "1" -> "x"),                            // contained in a
      mv("c", kv, "2" -> "y", "3" -> "z"),                  // complementary with a under k
      mv("x", kv, "1" -> "w"),                              // contradicts a on k=1
      mv("other", ("p", "q"), "1" -> "1"))                  // different schema block
    val r = ViewDistillation.distill(views)
    assert(r.original == 6 && r.afterCompatible == 5 && r.afterContained == 4)
    assert(r.c3Best <= r.c3Worst && r.c3Worst <= r.afterContained)
    assert(r.edges.exists(e => e.rel == Rel.Compatible && e.a == "a" && e.b == "a2"))
    assert(r.edges.exists(e => e.rel == Rel.Contained && e.b == "sub"))
    assert(r.edges.exists(e => e.rel == Rel.Complementary && e.key.contains("k")))
    assert(r.edges.exists(e => e.rel == Rel.Contradictory && e.key.contains("k")))
    assert(r.contradictions.nonEmpty)
  }
  test("distill on an empty collection") {
    val r = ViewDistillation.distill(Vector.empty)
    assert(r.original == 0 && r.afterCompatible == 0 && r.c3Best == 0)
  }
  test("distilled views are exactly those surviving C1+C2") {
    val views = Vector(
      mv("a", kv, "1" -> "x", "2" -> "y"), mv("b", kv, "1" -> "x"), mv("c", kv, "1" -> "x", "2" -> "y"))
    val r = ViewDistillation.distill(views)
    assert(r.distilled.map(_.id) == Vector("a"))
  }

  // ---- randomized invariants ----------------------------------------------
  test("randomized: distill counts are monotone for arbitrary small views") {
    val rowGen = Gen.listOfN(4, Gen.zip(Gen.choose(1, 4).map(_.toString), Gen.oneOf("x", "y", "z")))
    val viewsGen = Gen.listOfN(6, rowGen).map(_.zipWithIndex.map { case (rows, i) =>
      mv(s"g$i", kv, rows: _*)
    })
    val prop = Prop.forAll(viewsGen) { vs =>
      val nonEmpty = vs.filter(_.rows.nonEmpty)
      val r = ViewDistillation.distill(nonEmpty.toVector)
      r.afterCompatible <= r.original &&
        r.afterContained <= r.afterCompatible &&
        r.c3Worst <= r.afterContained && r.c3Best <= r.c3Worst &&
        r.edges.forall(e => e.a != e.b)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), prop)
    assert(res.passed, res.status.toString)
  }

  // ---- one pass per key vs the pairwise reference ------------------------
  private val schemas = Vector(Vector("k", "v"), Vector("k", "v", "w"), Vector("a", "k", "w"))
  // "a b" / "c" and "a" / "b c" render alike under mkString(" "), so a sort
  // key that joins a row's cells would tie such rows; the contradiction
  // sides' order, MatView.rowOrdering, must not.
  private val cells = Vector("a", "c", "a b", "b c", "x")

  /** The row's words regrouped into as many cells, so it renders alike. */
  private def regroup(row: Vector[String]): Gen[Vector[String]] = {
    val words = row.mkString(" ").split(" ").toVector
    Gen.pick(row.size - 1, 1 until words.size).map { cuts =>
      (0 +: cuts.sorted :+ words.size).sliding(2).map(c => words.slice(c(0), c(1)).mkString(" ")).toVector
    }
  }

  private def seqOf[T](gs: Seq[Gen[T]]): Gen[Vector[T]] = Gen.sequence[Vector[T], T](gs)

  /** A random view set: 0–10 views over 2 or 3 schemas. Each view takes a
    * random subset of its schema's base rows (unique `k`); some rows get one
    * cell replaced or their words regrouped, so keyed views overlap, nest and
    * disagree.
    */
  private val viewSetGen: Gen[Vector[MatView]] = for {
    picked <- Gen.choose(2, 3).flatMap(n => Gen.pick(n, schemas)).map(_.toVector)
    bases <- seqOf(picked.map(sc => seqOf((1 to 4).map(k =>
      seqOf(sc.map(c => if (c == "k") Gen.const(k.toString) else Gen.oneOf(cells)))))))
    n <- Gen.choose(0, 10)
    ids <- Gen.pick(n, ('a' to 'p').map(_.toString))
    views <- seqOf(ids.toVector.map { id =>
      for {
        b <- Gen.choose(0, picked.size - 1)
        rows <- seqOf(bases(b).map(row => Gen.frequency(
          3 -> Gen.const(Some(row)),
          1 -> Gen.zip(Gen.choose(0, row.size - 1), Gen.oneOf(cells :+ "1"))
            .map { case (i, c) => Some(row.updated(i, c)) },
          1 -> regroup(row).map(Some(_)),
          2 -> Gen.const(None))))
      } yield MatView.fromRows(id, ViewSpec.singleTable(picked(b).map(ColumnRef("t", _))),
        picked(b), rows.flatten)
    })
  } yield views

  test("distill equals the pairwise reference on random view sets") {
    var withComplementary = 0; var withContradictions = 0
    val prop = Prop.forAll(viewSetGen) { vs =>
      val r = ViewDistillation.distill(vs)
      if (r.edges.exists(_.rel == Rel.Complementary)) withComplementary += 1
      if (r.contradictions.nonEmpty) withContradictions += 1
      // Phase 2 of distill sees no containment (C2 removed it), so also
      // compare each key's signals on the raw blocks.
      def ids(ps: Vector[(MatView, MatView)]) = ps.map { case (a, b) => (a.id, b.id) }
      val raw = ViewDistillation.schemaBlocks(vs).forall { block =>
        block.flatMap(_.candidateKeys).distinct.forall { k =>
          ViewDistillation.keySignals(block, k) == KeySignals(
            DistillReference.contradictionsFor(block, k),
            ids(DistillReference.contradictoryPairs(block, k)),
            ids(DistillReference.complementaryPairs(block, k)),
            DistillReference.countAfterUnion(block, k))
        }
      }
      r == DistillReference.distill(vs) && raw &&
        r.edges.distinct == r.edges && r.contradictions.distinct == r.contradictions
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(res.passed, res.status.toString)
    assert(withComplementary > 0 && withContradictions > 0,
      s"vacuous: $withComplementary cases with complementary edges, $withContradictions with contradictions")
  }

  test("randomized: materialized views and their fromRows rebuilds distill alike") {
    // One or two random repos, several specs over each: views of one repo
    // share its dictionary, views of two repos and every rebuild do not, so
    // distill recodes them into one.
    val cell = Gen.frequency(3 -> Gen.oneOf("a", "ab", "b", "A", "", Materializer.NullCell), 1 -> Gen.const(null: String))
    val viewsGen = for {
      nRepos <- Gen.choose(1, 2)
      repos <- Gen.listOfN(nRepos, MaterializerSpec.repoGen(cell, maxTables = 3, maxRows = 8).flatMap { r =>
        Gen.choose(2, 6).flatMap(n => Gen.listOfN(n, MaterializerSpec.specGen(r.data.map(_.name)))).map(r -> _)
      })
    } yield repos.zipWithIndex.flatMap { case ((r, specs), g) =>
      specs.zipWithIndex.map { case (spec, i) => Materializer.materialize(r, spec, s"v$g$i") }
    }.toVector
    val seen = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    val prop = Prop.forAllNoShrink(viewsGen) { views =>
      val rebuilt = views.map(v => MatView.fromRows(v.id, v.spec, v.schema, v.rows))
      val r = ViewDistillation.distill(views)
      r.edges.map(_.rel.name).distinct.foreach(seen(_) += 1)
      if (r.contradictions.nonEmpty) seen("contradiction") += 1
      Prop(r == ViewDistillation.distill(rebuilt) && r == DistillReference.distill(views)) :|
        s"views ${views.map(v => (v.id, v.schema, v.rows))}"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
    assert(Seq("compatible", "contained", "complementary", "contradictory", "contradiction").forall(seen(_) > 0),
      s"vacuous: $seen")
  }

  test("4C labels do not depend on view ids or input order") {
    val renamedGen = for { vs <- viewSetGen; seed <- Gen.long } yield {
      val rng = new scala.util.Random(seed)
      val fresh = rng.shuffle(('A' to 'P').map(_.toString))
      (vs, rng.shuffle(vs.indices.toVector).map(i => vs(i).copy(id = fresh(i))))
    }
    def canon(r: DistillReport, vs: Vector[MatView]) = {
      val sig = vs.map(v => v.id -> (v.schema, v.rows.toSet)).toMap
      (r.original, r.afterCompatible, r.afterContained, r.c3Worst, r.c3Best,
        r.distilled.map(v => (v.schema, v.rows.toSet)).toSet,
        r.contradictions.map(c => (c.key, c.keyValue, c.sides.map(_.map(sig)).toSet)),
        r.edges.collect { case e if e.rel == Rel.Complementary || e.rel == Rel.Contradictory =>
          (e.rel, Set(sig(e.a), sig(e.b)), e.key)
        }.toSet)
    }
    val prop = Prop.forAll(renamedGen) { case (vs, renamed) =>
      canon(ViewDistillation.distill(vs), vs) == canon(ViewDistillation.distill(renamed), renamed)
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }
}
