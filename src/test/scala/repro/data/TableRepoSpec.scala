package repro.data

import repro.{Oracle, SparkSpec}
import repro.core.{ColumnRef, JoinEdge, Materializer, NoiseLevel, Ver, ViewSpec}
import repro.core.MaterializerSpec.sqlFor
import repro.discovery.{DiscoveryIndexBuilder, Profiles}

/** The repo's driver rows, what reads them, and the DataFrame view built
  * from them for the DuckDB oracle.
  */
class TableRepoSpec extends SparkSpec {
  private def c(t: String, col: String) = ColumnRef(t, col)

  /** Null cells in key and value columns. Every other cell of a row holding
    * a null also appears in a row without one, so dropping those rows
    * removes exactly the null cells from each column's values.
    */
  private val withNulls = TableRepo("nulls", Vector(
    Table("l", Seq("k", "v"), Seq(Seq("a", "x"), Seq("b", "y"), Seq(null, "y"), Seq("b", null))),
    Table("r", Seq("k", "w"), Seq(Seq("a", "p"), Seq("b", "q"), Seq(null, "p"), Seq("c", null), Seq("c", "p"))),
  ), Vector.empty)
  private val nullsRemoved =
    withNulls.copy(data = withNulls.data.map(t => t.copy(rows = t.rows.filterNot(_.contains(null)))))

  private def viewRows(repo: TableRepo, t: String): Vector[Vector[String]] =
    repo.tables(t).collect().toVector.map(r => Vector.tabulate(r.length)(r.getString))

  test("ragged rows are rejected with an error that names the table") {
    val e = intercept[IllegalArgumentException](Table("orders", Seq("a", "b"), Seq(Seq("1", "2"), Seq("3"))))
    assert(e.getMessage.contains("orders"))
  }

  test("an unknown table or column gives an error that names the repo") {
    for (f <- Seq(() => withNulls.rows("nope"), () => withNulls.values(c("nope", "k")),
                  () => withNulls.values(c("l", "nope")), () => withNulls("nope"))) {
      val e = intercept[IllegalArgumentException](f())
      assert(e.getMessage.contains("repo nulls"), e.getMessage)
    }
  }

  test("columnRefs lists columns in the profile's id order") {
    val r = TableRepo("declared", Vector(
      Table("t", Seq("b", "a"), Seq(Seq("x", "y"))),
      Table("s", Seq("c", "B"), Seq.empty),
    ), Vector.empty)
    assert(r.columnRefs == Vector(c("s", "B"), c("s", "c"), c("t", "a"), c("t", "b")))
    for (repo <- Seq(r, ChemblLite(spark))) assert(repo.columnRefs == Profiles.profile(repo).columns, repo.name)
  }

  test("values is the sorted, distinct, non-null cells") {
    val r = TableRepo("vals", Vector(Table("t", Seq("a"), Seq(Seq("b"), Seq(null), Seq("a"), Seq("b"), Seq("B")))),
      Vector.empty)
    assert(r.values(c("t", "a")) == Vector("B", "a", "b"))
    assert(withNulls.values(c("l", "v")) == Vector("x", "y"))
    assert(withNulls.values(c("r", "k")) == Vector("a", "b", "c"))
  }

  test("the encoded form ranks cells by String.compareTo, with null as -1 and ∅ in the dictionary") {
    val r = TableRepo("enc", Vector(
      Table("t", Seq("a", "b"), Seq(Seq("ab", null), Seq("a", "Abc"), Seq("", "abc"))),
      Table("u", Seq("c"), Seq(Seq("abc"), Seq(Materializer.NullCell))),
      Table("empty", Seq("d"), Seq.empty),
    ), Vector.empty)
    val enc = r.encoded
    assert(enc.cells.toVector == Vector("", "Abc", "a", "ab", "abc", Materializer.NullCell))
    assert(enc.nullCellCode == 5)
    assert(enc.columns("t").map(_.toVector).toVector == Vector(Vector(3, 2, 0), Vector(-1, 1, 4)))
    assert(enc.columns("u").map(_.toVector).toVector == Vector(Vector(4, 5)))
    assert(enc.columns("empty").map(_.toVector).toVector == Vector(Vector.empty))
  }

  test("the DataFrame view holds each table's rows, nulls included") {
    for (repo <- Seq(withNulls, ChemblLite(spark)); t <- repo.data.map(_.name))
      assert(viewRows(repo, t) == repo.rows(t), s"${repo.name}.$t")
    assert(viewRows(withNulls, "l")(2) == Vector(null, "y"))
  }

  test("null cells are absent values: not profiled or searchable, never joined, ∅ only in views") {
    val index = DiscoveryIndexBuilder.build(spark, withNulls, threshold = 0.0)
    val removed = DiscoveryIndexBuilder.build(spark, nullsRemoved, threshold = 0.0)
    assert(index.searchKeyword(Materializer.NullCell).isEmpty)
    assert(index.containment.nonEmpty && index.containment == removed.containment)
    assert(index.profile.columns == removed.profile.columns && index.profile.distinctCounts.toVector == removed.profile.distinctCounts.toVector)
    assert(index.profile.postings.view.mapValues(_.toVector).toMap == removed.profile.postings.view.mapValues(_.toVector).toMap)

    // The null keys of l and r never meet: they would add (y, p).
    val spec = ViewSpec(Set("l", "r"), Set(JoinEdge(c("l", "k"), c("r", "k"))), Vector(c("l", "v"), c("r", "w")))
    val v = Materializer.materialize(withNulls, spec, "v")
    Oracle.assertEquivalent(TableRepo.df(spark, v.schema, v.rows), sqlFor(spec), "l" -> withNulls("l"), "r" -> withNulls("r"))
    assert(v.rows.toSet == Set(Vector("x", "p"), Vector("y", "q"), Vector(Materializer.NullCell, "q")))
  }

  test("ChemblLite views pass the DuckDB oracle over repo(t)") {
    val repo = ChemblLite(spark, seed = 11)
    val ver = new Ver(repo, DiscoveryIndexBuilder.build(spark, repo))
    val specs = repo.groundTruths.flatMap { gt =>
      gt.spec +: ver.searchSpecs(QueryGen.generate(gt, NoiseLevel.Zero, 0, repo.values).query).specs.take(3)
    }.distinctBy(_.key)
    assert(specs.size > repo.groundTruths.size)
    for ((spec, i) <- specs.zipWithIndex) {
      val v = Materializer.materialize(repo, spec, s"v$i")
      Oracle.assertEquivalent(TableRepo.df(spark, v.schema, v.rows), sqlFor(spec),
        spec.tables.toVector.sorted.map(t => t -> repo(t)): _*)
    }
  }
}
