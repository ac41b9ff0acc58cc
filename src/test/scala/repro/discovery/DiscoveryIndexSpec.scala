package repro.discovery

import org.scalacheck.{Gen, Prop, Test => SCTest}

import repro.SparkSpec
import repro.core.ColumnRef
import repro.data.{Table, TableRepo}

/** Tests the offline index builder (driver pair count → online index) end
  * to end on small repos, and its pair count against the Spark reference
  * in [[Profiles]].
  */
class DiscoveryIndexSpec extends SparkSpec {

  private lazy val repo = TableRepo("idx-test", Vector(
    Table("users", Seq("uid", "city"), Seq(
      Seq("u1", "paris"), Seq("u2", "tokyo"), Seq("u3", "lima"))),
    Table("orders", Seq("uid", "item"), Seq(
      Seq("u1", "pen"), Seq("u2", "ink"), Seq("u2", "pad"))),
    Table("cities", Seq("city", "pop"), Seq(
      Seq("paris", "2m"), Seq("tokyo", "14m"), Seq("oslo", "0.7m"))),
    Table("unrelated", Seq("w"), Seq(Seq("zzz"))),
  ), Vector.empty)

  private lazy val index = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.6)

  test("every column is profiled, including join-free ones") {
    assert(index.profile.columns == repo.columnRefs && index.profile.distinctCounts.length == repo.columnRefs.size)
    assert(index.distinctCount(ColumnRef("unrelated", "w")) == 1)
  }
  test("values are collected per column") {
    assert(repo.values(ColumnRef("users", "city")) == Vector("lima", "paris", "tokyo"))
    assert(index.distinctCount(ColumnRef("users", "city")) == 3)
  }
  test("values rejects unknown columns") {
    intercept[IllegalArgumentException](repo.values(ColumnRef("users", "nope")))
    intercept[RuntimeException](repo.values(ColumnRef("nope", "x")))
  }
  test("joinable pairs respect the threshold") {
    // users.uid {u1,u2,u3} vs orders.uid {u1,u2}: containment max(2/3, 2/2) = 1.0
    assert(index.containmentOf(ColumnRef("users", "uid"), ColumnRef("orders", "uid")) == 1.0)
    // users.city vs cities.city: overlap 2 of 3 → containment 2/3 ≥ 0.6
    assert(index.containmentOf(ColumnRef("users", "city"), ColumnRef("cities", "city")) > 0.6)
  }
  test("below-threshold overlaps are not joinable") {
    val strict = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.8)
    assert(strict.containmentOf(ColumnRef("users", "city"), ColumnRef("cities", "city")) == 0.0)
    assert(strict.containmentOf(ColumnRef("users", "uid"), ColumnRef("orders", "uid")) == 1.0)
  }
  test("searchKeyword over the built index") {
    assert(index.searchKeyword("paris").toSet ==
      Set(ColumnRef("users", "city"), ColumnRef("cities", "city")))
    assert(index.searchKeyword("PARIS").nonEmpty, "case-insensitive")
    assert(index.searchKeyword("absent").isEmpty)
  }
  test("searchKeyword lists a value's columns sorted by (table, column)") {
    // Declared as t.b, t.a, s.c.
    val r = TableRepo("order", Vector(
      Table("t", Seq("b", "a"), Seq(Seq("x", "X"))),
      Table("s", Seq("c"), Seq(Seq("x"))),
    ), Vector.empty)
    val idx = DiscoveryIndexBuilder.build(spark, r)
    assert(idx.searchKeyword("x") == Vector(ColumnRef("s", "c"), ColumnRef("t", "a"), ColumnRef("t", "b")))
  }
  test("join edges are derived per table pair") {
    assert(index.joinEdges("users", "orders").size == 1)
    assert(index.joinEdges("orders", "users").size == 1, "order-insensitive lookup")
    assert(index.joinEdges("users", "unrelated").isEmpty)
  }
  test("tableNeighbors lists adjacent tables") {
    assert(index.tableNeighbors("users").toSet == Set("orders", "cities"))
    assert(index.tableNeighbors("unrelated").isEmpty)
  }
  test("generateJoinGraphs finds the 2-hop orders—users—cities path") {
    val gs = index.generateJoinGraphs("orders", "cities")
    assert(gs.size == 1 && gs.head.size == 2)
  }
  test("the index build is deterministic") {
    val again = DiscoveryIndexBuilder.build(spark, repo, threshold = 0.6)
    assert(again.profile.columns == index.profile.columns)
    assert(again.profile.postings.view.mapValues(_.toVector).toMap == index.profile.postings.view.mapValues(_.toVector).toMap)
    assert(again.profile.distinctCounts.toVector == index.profile.distinctCounts.toVector)
    assert(again.containment == index.containment)
  }

  test("containment keys order columns by (table, column)") {
    // ("t", "k") < ("t-x", "k"), while "t-x.k" < "t.k" because '-' < '.'.
    val r = TableRepo("key-order", Vector(
      Table("t", Seq("k"), Seq(Seq("a"), Seq("b"))),
      Table("t-x", Seq("k"), Seq(Seq("a"), Seq("b"), Seq("c"))),
    ), Vector.empty)
    val idx = DiscoveryIndexBuilder.build(spark, r, threshold = 0.8)
    assert(idx.containment == Map((ColumnRef("t", "k"), ColumnRef("t-x", "k")) -> 1.0))
    assert(idx.containment == SparkContainment(spark, r, 0.8))
  }
  test("tables a.b(c) and a(b.c) with equal values form one pair") {
    // Table "a.b" column "c" and table "a" column "b.c" print alike.
    val r = TableRepo("dotted", Vector(
      Table("a.b", Seq("c"), Seq(Seq("x"), Seq("y"))),
      Table("a", Seq("b.c"), Seq(Seq("x"), Seq("y"))),
    ), Vector.empty)
    val idx = DiscoveryIndexBuilder.build(spark, r, threshold = 0.8)
    assert(idx.containment == Map((ColumnRef("a", "b.c"), ColumnRef("a.b", "c")) -> 1.0))
    assert(idx.containment == SparkContainment(spark, r, 0.8))
  }
  test("a 0-row table and an all-null column profile to 0 and form no pair") {
    val r = TableRepo("empty-inputs", Vector(
      Table("empty", Seq("e"), Seq.empty),
      Table("nulls", Seq("n", "k"), Seq(Seq(null, "a"), Seq(null, "b"))),
      Table("other", Seq("k"), Seq(Seq("a"), Seq("b"))),
    ), Vector.empty)
    val empties = Set(ColumnRef("empty", "e"), ColumnRef("nulls", "n"))
    for (threshold <- Seq(0.0, 0.8)) {
      val idx = DiscoveryIndexBuilder.build(spark, r, threshold)
      for (c <- empties) {
        assert(idx.profile.columns.contains(c) && idx.distinctCount(c) == 0, c)
        assert(idx.neighbors(c).isEmpty, c)
      }
      assert(idx.containment == Map((ColumnRef("nulls", "k"), ColumnRef("other", "k")) -> 1.0))
      assert(idx.containment == SparkContainment(spark, r, threshold))
    }
    val none = Profiles.containment(Profiles.profile(TableRepo("none", Vector.empty, Vector.empty)), 0.0)
    assert(none.offsets.toVector == Vector(0) && none.nbrs.isEmpty && none.scores.isEmpty)
  }

  test("randomized: containment equals a driver reference, and keyword search agrees with overlap") {
    val alphabet = Vector("a", "A", "b", "B", "Ab", "aB", "c")
    val cell = Gen.frequency(6 -> Gen.oneOf(alphabet), 1 -> Gen.const(null: String))
    // Names whose string forms order unlike (table, column): "a-b.c" < "a.b.c"
    // while ("a", "b.c") < ("a-b", "c"), and "a.b"'s "c" prints as "a"'s "b.c".
    val tableGen = for {
      cols <- Gen.oneOf(Vector("c"), Vector("b.c"), Vector("c", "b.c"), Vector("b.c", "c"))
      nRows <- Gen.choose(0, 5)
      rows <- Gen.listOfN(nRows, Gen.listOfN(cols.size, cell))
    } yield (cols, rows)
    val caseGen = for {
      names <- Gen.oneOf(Vector("a", "a.b", "a-b").permutations.toVector)
      nTables <- Gen.choose(2, 3)
      tables <- Gen.listOfN(nTables, tableGen)
      threshold <- Gen.oneOf(0.0, 0.5, 0.8, 1.0)
    } yield (tables.zip(names).zipWithIndex.map { case (((cols, rows), t), i) =>
      // The first table always holds one value, in two cases, in every column.
      t -> (cols, if (i == 0) rows :+ cols.indices.map(j => if (j % 2 == 0) "Dup" else "dUP").toList else rows)
    }.toMap, threshold)

    val prop = Prop.forAllNoShrink(caseGen) { case (tables, threshold) =>
      val repo = TableRepo("random", tables.toVector.map { case (t, (cols, rows)) => Table(t, cols, rows) },
        Vector.empty)
      val idx = DiscoveryIndexBuilder.build(spark, repo, threshold)

      // Reference: per-column sets of lower-cased values, all pairs compared.
      val sets = tables.toVector.flatMap { case (t, (cols, rows)) =>
        cols.indices.map(j => ColumnRef(t, cols(j)) ->
          rows.flatMap(r => Option(r(j))).map(Profiles.normalize).toSet)
      }.toMap
      val expected = (for {
        (a, va) <- sets; (b, vb) <- sets
        if a.table != b.table && ColumnRef.ordering.lt(a, b)
        ov = (va intersect vb).size
        if ov > 0
        score = math.max(ov.toDouble / va.size, ov.toDouble / vb.size)
        if score >= threshold
      } yield (a, b) -> score).toMap
      assert(idx.containment == expected)
      assert(idx.containment == SparkContainment(spark, repo, threshold))
      assert(idx.profile.columns.zip(idx.profile.distinctCounts).toMap == sets.map { case (c, vs) => c -> vs.size })
      for (v <- alphabet :+ "Dup" :+ "absent"; c <- repo.columnRefs) {
        assert(idx.searchKeyword(v).contains(c) == (idx.overlap(c, Vector(v)) == 1), s"$v in $c")
        assert(idx.searchKeyword(v).contains(c) == sets(c).contains(Profiles.normalize(v)), s"$v in $c")
      }
      IndexReference.check(idx, expected, alphabet.map(idx.searchKeyword(_).toSet))
      true
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(25), prop)
    assert(res.passed, res.status.toString)
  }

  test("a hand-built pair naming a column not in the cells is rejected, naming the stage and the pair") {
    val cells = Map(ColumnRef("s", "k") -> Seq("a"), ColumnRef("t", "k") -> Seq("a"))
    for (pair <- Seq((ColumnRef("s", "k"), ColumnRef("t", "absent")), (ColumnRef("absent", "k"), ColumnRef("t", "k")))) {
      val e = intercept[IllegalArgumentException](DiscoveryIndex(cells, Map(pair -> 1.0), 0.8))
      assert(e.getMessage.contains("DiscoveryIndex") && e.getMessage.contains(s"(${pair._1}, ${pair._2})"), e.getMessage)
    }
  }
  test("a hand-built pair of two columns of one table is rejected, naming the stage and the pair") {
    val cells = Map(ColumnRef("t", "a") -> Seq("x"), ColumnRef("t", "b") -> Seq("x"))
    val e = intercept[IllegalArgumentException](DiscoveryIndex(cells, Map((ColumnRef("t", "a"), ColumnRef("t", "b")) -> 1.0), 0.8))
    assert(e.getMessage.contains("DiscoveryIndex") && e.getMessage.contains("(t.a, t.b)"), e.getMessage)
  }
  test("a hand-built pair given in both orders is rejected, naming the stage and the pair") {
    val (a, b) = (ColumnRef("s", "k"), ColumnRef("t", "k"))
    val e = intercept[IllegalArgumentException](DiscoveryIndex(Map(a -> Seq("x"), b -> Seq("x")), Map((a, b) -> 1.0, (b, a) -> 0.9), 0.8))
    assert(e.getMessage.contains("DiscoveryIndex") && Seq("(s.k, t.k)", "(t.k, s.k)").exists(e.getMessage.contains), e.getMessage)
  }
  test("a hand-built pair in either order reads as one canonical pair") {
    val (a, b) = (ColumnRef("s", "k"), ColumnRef("t", "k"))
    val idx = DiscoveryIndex(Map(a -> Seq("x"), b -> Seq("x")), Map((b, a) -> 0.9), 0.8)
    assert(idx.containment == Map((a, b) -> 0.9))
    assert(idx.containmentOf(a, b) == 0.9 && idx.containmentOf(b, a) == 0.9)
    assert(idx.neighbors(a) == Vector(b) && idx.neighbors(b) == Vector(a))
  }

  test("40 one-column tables sharing one value give one 40-column posting list in order") {
    // Declared in reverse, so the list's order comes from the pass, not the repo.
    val r = TableRepo("shared", Vector.tabulate(40)(i => Table(f"t${39 - i}%02d", Seq("v"), Seq(Seq("s")))), Vector.empty)
    val p = Profiles.profile(r)
    assert(p.postings.keySet == Set("s"))
    assert(p.postings("s").toVector == (0 until 40))
    assert(p.postings("s").toVector.map(p.columns) == Vector.tabulate(40)(i => ColumnRef(f"t$i%02d", "v")))
    assert(p.distinctCounts.forall(_ == 1))
  }

  test("randomized: the profiling pass equals per-column value sets") {
    val alphabet = Vector("a", "A", "b", "B", "c")
    val cell = Gen.frequency(6 -> Gen.oneOf(alphabet), 1 -> Gen.const(null: String))
    val tableGen = for {
      nCols <- Gen.choose(1, 3)
      // Columns declared out of name order, e.g. c2, c0, c1.
      cols <- Gen.oneOf(Vector.tabulate(nCols)(i => s"c$i").permutations.toVector)
      nRows <- Gen.choose(0, 6)
      rows <- Gen.listOfN(nRows, Gen.listOfN(nCols, cell))
    } yield (cols, rows)
    val caseGen = Gen.choose(1, 4).flatMap(n => Gen.listOfN(n, tableGen)).map(_.zipWithIndex.map {
      // Table t0's first column always repeats one value non-consecutively, in two cases.
      case ((cols, rows), 0) => Table("t0", cols, rows ++ Seq("x", "y", "X").map(v => v +: cols.tail.map(_ => null)))
      case ((cols, rows), i) => Table(s"t$i", cols, rows)
    }.reverse.toVector)

    val prop = Prop.forAllNoShrink(caseGen) { tables =>
      val p = Profiles.profile(TableRepo("random", tables, Vector.empty))
      val sets = tables.flatMap(t => t.columns.indices.map(j => ColumnRef(t.name, t.columns(j)) ->
        t.rows.flatMap(r => Option(r(j))).map(Profiles.normalize).toSet)).toMap
      val ordered = sets.keys.toVector.sortBy(c => (c.table, c.column))
      assert(p.columns == ordered)
      assert(p.distinctCounts.toVector == ordered.map(sets(_).size))
      assert(p.postings.keySet == sets.values.flatten.toSet)
      for ((v, ids) <- p.postings) {
        assert(ids.toVector == ids.toVector.distinct.sorted, s"$v: ${ids.toVector}")
        assert(ids.toVector.map(p.columns) == ordered.filter(sets(_).contains(v)), v)
      }
      true
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }
}
