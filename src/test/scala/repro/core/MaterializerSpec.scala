package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}

import repro.{Oracle, SparkSpec}
import repro.data.{Table, TableRepo}

/** Tests the driver-side MATERIALIZER against the DuckDB oracle: every join
  * graph materialization is checked for result-equality with the equivalent
  * SQL.
  */
class MaterializerSpec extends SparkSpec {
  import MaterializerSpec.sqlFor

  private def c(t: String, col: String) = ColumnRef(t, col)

  private lazy val repo = TableRepo("mat-test", Vector(
    Table("orders", Seq("oid", "cid", "status"), Seq(
      Seq("o1", "c1", "open"), Seq("o2", "c1", "closed"), Seq("o3", "c2", "open"),
      Seq("o4", "c9", "open"))),
    Table("customers", Seq("cid", "name"), Seq(
      Seq("c1", "alice"), Seq("c2", "bob"), Seq("c3", "carol"))),
    Table("cities", Seq("name", "city"), Seq(
      Seq("alice", "paris"), Seq("bob", "tokyo"))),
  ), Vector.empty)

  private val join1 = ViewSpec(Set("orders", "customers"),
    Set(JoinEdge(c("orders", "cid"), c("customers", "cid"))),
    Vector(c("customers", "name"), c("orders", "status")))

  /** Materialize `spec` over `r` and check the view against DuckDB's answer
    * to `sql` over the spec's tables.
    */
  private def assertMatchesDuckDb(r: TableRepo, spec: ViewSpec, sql: String): MatView = {
    val v = Materializer.materialize(r, spec, "v")
    Oracle.assertEquivalent(TableRepo.df(spark, v.schema, v.rows), sql,
      spec.tables.toVector.sorted.map(t => t -> r(t)): _*)
    v
  }

  test("two-table join matches DuckDB") {
    assertMatchesDuckDb(repo, join1,
      "SELECT DISTINCT customers.name AS name, orders.status AS status " +
        "FROM orders JOIN customers ON orders.cid = customers.cid")
  }

  test("three-table chain join matches DuckDB") {
    val spec = ViewSpec(Set("orders", "customers", "cities"),
      Set(JoinEdge(c("orders", "cid"), c("customers", "cid")),
          JoinEdge(c("customers", "name"), c("cities", "name"))),
      Vector(c("cities", "city"), c("orders", "status")))
    assertMatchesDuckDb(repo, spec,
      "SELECT DISTINCT cities.city AS city, orders.status AS status " +
        "FROM orders JOIN customers ON orders.cid = customers.cid " +
        "JOIN cities ON customers.name = cities.name")
  }

  test("single-table projection matches DuckDB") {
    val spec = ViewSpec.singleTable(Vector(c("orders", "cid"), c("orders", "status")))
    assertMatchesDuckDb(repo, spec, "SELECT DISTINCT cid, status FROM orders")
  }

  test("projection is distinct (set semantics)") {
    val spec = ViewSpec.singleTable(Vector(c("orders", "status")))
    assert(Materializer.materialize(repo, spec, "v").rows.size == 2)
  }

  test("unmatched join keys are dropped (inner join semantics)") {
    val v = Materializer.materialize(repo, join1, "v")
    assert(!v.rows.exists(_.contains("c9")), "order o4 has no matching customer")
    assert(v.rows.size == 3)
  }

  test("materialize collects canonicalized, distinct, sorted rows") {
    val v = Materializer.materialize(repo, join1, "v")
    assert(v.id == "v" && v.schema == Vector("name", "status"))
    assert(v.rows == v.rows.distinct)
    assert(v.rows == v.rows.sorted(Ordering.by((r: Vector[String]) => r.mkString(" "))))
  }

  test("duplicate projected column names get positional suffixes") {
    assert(Materializer.dedupeNames(Vector("s", "s", "t", "s")) == Vector("s", "s_2", "t", "s_3"))
    val spec = ViewSpec(Set("orders", "customers"),
      Set(JoinEdge(c("orders", "cid"), c("customers", "cid"))),
      Vector(c("orders", "cid"), c("customers", "cid")))
    val v = Materializer.materialize(repo, spec, "v")
    assert(v.schema == Vector("cid", "cid_2"))
    assert(v.rows == Vector(Vector("c1", "c1"), Vector("c2", "c2")))
  }

  test("suffixes skip names already taken, so a 3-column projection has unique names") {
    assert(Materializer.dedupeNames(Vector("a", "a", "a_2")) == Vector("a", "a_3", "a_2"))
    val r = TableRepo("dup-names", Vector(
      Table("t", Seq("a", "a_2"), Seq(Seq("k1", "p"), Seq("k2", "q"))),
      Table("u", Seq("a"), Seq(Seq("k1"), Seq("k3"))),
    ), Vector.empty)
    val spec = ViewSpec(Set("t", "u"), Set(JoinEdge(c("t", "a"), c("u", "a"))), Vector(c("t", "a"), c("u", "a"), c("t", "a_2")))
    val v = assertMatchesDuckDb(r, spec, sqlFor(spec))
    assert(v.schema == Vector("a", "a_2", "a_3") && v.rows == Vector(Vector("k1", "p", "k1")))
    val e = intercept[IllegalArgumentException](MatView("v9", spec, Vector("a", "a"), Vector.empty))
    assert(e.getMessage.contains("v9"))
  }

  test("disconnected specs are rejected") {
    val spec = ViewSpec(Set("orders", "cities"), Set.empty,
      Vector(c("orders", "oid"), c("cities", "city")))
    val e = intercept[RuntimeException](Materializer.materialize(repo, spec, "v"))
    assert(e.getMessage.contains("disconnected spec"))
  }

  test("materializeAll preserves ranked order and limit") {
    val single = ViewSpec.singleTable(Vector(c("orders", "oid")))
    val out = Materializer.materializeAll(repo, Seq(single, join1), limit = 1)
    assert(out.size == 1 && out.head.spec == single)
  }

  test("multi-edge connection between two tables joins on all edges") {
    // Both cid and name would have to match; build a repo where they do.
    val r2 = TableRepo("m2", Vector(
      Table("a", Seq("k1", "k2", "pa"), Seq(
        Seq("x", "1", "p1"), Seq("y", "2", "p2"))),
      Table("b", Seq("k1", "k2", "pb"), Seq(
        Seq("x", "1", "q1"), Seq("y", "9", "q2"))),
    ), Vector.empty)
    val spec = ViewSpec(Set("a", "b"),
      Set(JoinEdge(c("a", "k1"), c("b", "k1")), JoinEdge(c("a", "k2"), c("b", "k2"))),
      Vector(c("a", "pa"), c("b", "pb")))
    assertMatchesDuckDb(r2, spec,
      "SELECT DISTINCT a.pa AS pa, b.pb AS pb FROM a JOIN b ON a.k1 = b.k1 AND a.k2 = b.k2")
  }

  test("null join keys never match and projected nulls render as ∅") {
    val r = TableRepo("nulls", Vector(
      Table("l", Seq("k", "v"), Seq(Seq("k1", "v1"), Seq(null, "v2"), Seq("k3", null))),
      Table("r", Seq("k", "w"), Seq(Seq("k1", "w1"), Seq(null, "w2"), Seq("k3", "w3"))),
    ), Vector.empty)
    val spec = ViewSpec(Set("l", "r"), Set(JoinEdge(c("l", "k"), c("r", "k"))),
      Vector(c("l", "v"), c("r", "w")))
    val v = assertMatchesDuckDb(r, spec, "SELECT DISTINCT l.v AS v, r.w AS w FROM l JOIN r ON l.k = r.k")
    assert(v.rows == Vector(Vector("v1", "w1"), Vector(Materializer.NullCell, "w3")))
  }

  test("a join without matches is an empty view with the projected schema") {
    val spec = ViewSpec(Set("orders", "customers"),
      Set(JoinEdge(c("orders", "status"), c("customers", "name"))),
      Vector(c("orders", "oid"), c("customers", "cid")))
    val v = assertMatchesDuckDb(repo, spec,
      "SELECT DISTINCT orders.oid AS oid, customers.cid AS cid " +
        "FROM orders JOIN customers ON orders.status = customers.name")
    assert(v.rows.isEmpty && v.schema == Vector("cid", "oid"))
  }

  test("many-to-many two-hop chain with duplicate keys matches DuckDB") {
    // Every step fans out: a.k and b.k repeat, and so do b.m and c.m.
    val r = TableRepo("m2m", Vector(
      Table("a", Seq("k", "x"), Seq(
        Seq("1", "x1"), Seq("1", "x2"), Seq("1", "x1"), Seq("2", "x3"))),
      Table("b", Seq("k", "m", "junk"), Seq(
        Seq("1", "p", "j1"), Seq("1", "p", "j2"), Seq("1", "q", "j3"), Seq("2", "q", "j4"))),
      Table("c", Seq("m", "y"), Seq(
        Seq("p", "y1"), Seq("p", "y2"), Seq("q", "y2"), Seq("q", "y2"))),
    ), Vector.empty)
    val spec = ViewSpec(Set("a", "b", "c"),
      Set(JoinEdge(c("a", "k"), c("b", "k")), JoinEdge(c("b", "m"), c("c", "m"))),
      Vector(c("a", "x"), c("c", "y")))
    val v = assertMatchesDuckDb(r, spec,
      "SELECT DISTINCT a.x AS x, c.y AS y FROM a JOIN b ON a.k = b.k JOIN c ON b.m = c.m")
    assert(v.rows == Vector(Vector("x1", "y1"), Vector("x1", "y2"), Vector("x2", "y1"),
      Vector("x2", "y2"), Vector("x3", "y2")))
  }

  test("a join with a 0-row table is an empty view, and 4C counts it beside a full one") {
    val r = TableRepo("empty-table", Vector(
      Table("orders", Seq("oid", "cid"), Seq(Seq("o1", "c1"), Seq("o2", "c2"))),
      Table("customers", Seq("cid", "name"), Seq(Seq("c1", "alice"), Seq("c2", "bob"))),
      Table("refunds", Seq("cid", "name"), Seq.empty),
    ), Vector.empty)
    def joinWith(t: String) = ViewSpec(Set("orders", t), Set(JoinEdge(c("orders", "cid"), c(t, "cid"))),
      Vector(c("orders", "oid"), c(t, "name")))
    // Projected second, the 0-row table is the hashed side of the join;
    // projected first, it is where the join starts.
    val onRefunds = joinWith("refunds")
    val empties = Seq(onRefunds, onRefunds.copy(projection = onRefunds.projection.reverse))
      .map(s => assertMatchesDuckDb(r, s, sqlFor(s)))
    for (v <- empties) assert(v.rows.isEmpty && v.schema == Vector("name", "oid"))
    val full = assertMatchesDuckDb(r, joinWith("customers"), sqlFor(joinWith("customers")))
    assert(full.schema == Vector("name", "oid") && full.size == 2)

    // The empty view is contained in the full one, so C2 drops it; no
    // candidate key is shared by two views, so C3 leaves one view.
    val views = Vector(empties.head, full)
    def counts(vs: Seq[MatView]) = {
      val d = ViewDistillation.distill(vs)
      (d.original, d.afterCompatible, d.afterContained, d.c3Worst, d.c3Best, d.distilled.map(_.rows.toSet))
    }
    val pinned = (2, 2, 1, 1, 1, Vector(full.rows.toSet))
    for (ids <- Seq("a", "b").permutations; order <- views.indices.permutations) {
      val vs = order.map(i => views(i).copy(id = ids(i)))
      assert(counts(vs) == pinned, vs.map(_.id))
    }
  }


  test("cells that differ only by case never join, and DuckDB agrees") {
    val r = TableRepo("case", Vector(
      Table("l", Seq("k", "v"), Seq(Seq("Abc", "upper"), Seq("abc", "lower"), Seq("ABC", "caps"))),
      Table("r", Seq("k", "w"), Seq(Seq("abc", "w1"), Seq("aBc", "w2"))),
    ), Vector.empty)
    val spec = ViewSpec(Set("l", "r"), Set(JoinEdge(c("l", "k"), c("r", "k"))), Vector(c("l", "v"), c("r", "w")))
    val v = assertMatchesDuckDb(r, spec, sqlFor(spec))
    assert(v.rows == Vector(Vector("lower", "w1")))
  }

  test("randomized: materialize equals the Vector[String] reference, row order included") {
    // Empty strings, ∅ cells next to null ones, and shared prefixes.
    val cell = Gen.frequency(3 -> Gen.oneOf("a", "ab", "b", "A", "", Materializer.NullCell), 1 -> Gen.const(null: String))
    val prop = Prop.forAllNoShrink(MaterializerSpec.caseGen(cell, maxTables = 3, maxRows = 8)) { case (r, spec) =>
      val v = Materializer.materialize(r, spec, "v")
      val ref = MaterializerReference.materialize(r, spec, "v")
      Prop(v == ref) :| s"$spec over ${r.data}:\n  got ${v.rows}\n  ref ${ref.rows}"
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(res.passed, res.status.toString)
  }

  test("the canonical row order equals the old U+0000-joined key order on cells without U+0000") {
    val cell = Gen.oneOf(Gen.oneOf("", "a", "ab", "b", "A", "∅", "a b"), Gen.asciiPrintableStr)
    val rows = Gen.choose(1, 3).flatMap(w => Gen.listOf(Gen.listOfN(w, cell).map(_.toVector)).map(w -> _))
    val prop = Prop.forAll(rows) { case (w, rs) =>
      val schema = Vector.tabulate(w)(i => s"c$i")
      val v = MatView.fromRows("v", ViewSpec.singleTable(schema.map(c("t", _))), schema, rs)
      v.rows == rs.distinct.sortBy(_.mkString("\u0000")).toVector
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop)
    assert(res.passed, res.status.toString)
  }

  test("a U+0000 inside a cell does not change the cell-by-cell row order") {
    // Joined with U+0000, the row (a, z) gave a key that sorted after the
    // other row's; cell by cell, "a" sorts before "a" + U+0000 + "a".
    val rows = Seq(Seq("a\u0000a", "b"), Seq("a", "z"))
    val schema = Vector("x", "y")
    val v = MatView.fromRows("v", ViewSpec.singleTable(schema.map(c("t", _))), schema, rows)
    assert(v.rows == Vector(Vector("a", "z"), Vector("a\u0000a", "b")))
    assert(rows.sortBy(_.mkString("\u0000")) == rows)
    val r = TableRepo("nul", Vector(Table("t", schema, rows)), Vector.empty)
    assert(Materializer.materialize(r, ViewSpec.singleTable(schema.map(c("t", _))), "v") == v)
  }

  test("randomized: materialize equals DuckDB on small repos with nulls") {
    val cell = Gen.frequency(5 -> Gen.oneOf("x", "y", "z"), 1 -> Gen.const(null: String))
    val prop = Prop.forAllNoShrink(MaterializerSpec.caseGen(cell, maxTables = 3, maxRows = 6)) { case (r, spec) =>
      assertMatchesDuckDb(r, spec, sqlFor(spec))
      true
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(40), prop)
    assert(res.passed, res.status.toString)
  }
}

object MaterializerSpec {
  private val cols = Vector("a", "b", "c")

  /** A random repo of 2 to `maxTables` tables over columns a, b, c with 0 to
    * `maxRows` rows of `cell`s, and a spec over all of them ([[specGen]]).
    */
  def caseGen(cell: Gen[String], maxTables: Int, maxRows: Int): Gen[(TableRepo, ViewSpec)] =
    for {
      r <- repoGen(cell, maxTables, maxRows)
      spec <- specGen(r.data.map(_.name))
    } yield (r, spec)

  /** Tables t0, t1, … of 0 to `maxRows` rows of `cell`s over columns a, b, c. */
  def repoGen(cell: Gen[String], maxTables: Int, maxRows: Int): Gen[TableRepo] = {
    val tableGen = Gen.choose(0, maxRows).flatMap(n => Gen.listOfN(n, Gen.listOfN(cols.size, cell)))
    for {
      nTables <- Gen.choose(2, maxTables)
      names = Vector.tabulate(nTables)(i => s"t$i")
      data <- Gen.listOfN(nTables, tableGen)
    } yield TableRepo("random", names.zip(data).map { case (t, rows) => Table(t, cols, rows) }, Vector.empty)
  }

  /** A spec over the tables `names` (columns a, b, c): a chain of one- or
    * two-edge (composite-key) joins, plus the closing pair of a triangle half
    * the time, projecting 1 to 3 columns, whose bare names may repeat.
    */
  def specGen(names: Vector[String]): Gen[ViewSpec] = {
    def c(t: String, col: String) = ColumnRef(t, col)
    def edgesGen(t: String, u: String) = Gen.choose(1, 2).flatMap(n =>
      Gen.listOfN(n, Gen.zip(Gen.oneOf(cols), Gen.oneOf(cols))).map(_.map { case (x, y) =>
        JoinEdge(c(t, x), c(u, y)) }))
    for {
      pairs <- Gen.oneOf(true, false).map(closed =>
        names.zip(names.tail) ++ Option.when(closed && names.size == 3)(names.head -> names.last))
      edges <- Gen.sequence[List[List[JoinEdge]], List[JoinEdge]](pairs.map { case (t, u) => edgesGen(t, u) })
      nProj <- Gen.choose(1, 3)
      proj <- Gen.listOfN(nProj, Gen.zip(Gen.oneOf(names), Gen.oneOf(cols)))
    } yield ViewSpec(names.toSet, edges.flatten.toSet, proj.map { case (t, col) => c(t, col) }.toVector)
  }

  /** DuckDB SQL for a spec: inner equi-joins in reach order, the projection
    * aliased like [[Materializer.dedupeNames]], set semantics.
    */
  def sqlFor(spec: ViewSpec): String = {
    def ref(col: ColumnRef) = s"${col.table}.${col.column}"
    val first = spec.tables.min
    var reached = Set(first)
    val from = new StringBuilder(first)
    while (reached != spec.tables) {
      val t = (spec.tables -- reached).filter(t => spec.edges.exists(e => e.touches(t) && e.tables.exists(reached))).min
      val on = spec.edges.filter(e => e.touches(t) && e.tables.exists(reached))
        .map(e => s"${ref(e.endpointIn(t))} = ${ref(e.endpointNotIn(t))}")
      from ++= s" JOIN $t ON ${on.mkString(" AND ")}"
      reached += t
    }
    val cols = spec.projection.zip(Materializer.dedupeNames(spec.projection.map(_.column)))
      .map { case (col, n) => s"${ref(col)} AS $n" }
    s"SELECT DISTINCT ${cols.mkString(", ")} FROM $from"
  }
}
