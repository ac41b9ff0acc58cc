package repro

import repro.data.TableRepo

/** The DuckDB oracle itself: results match as sets of rows, whatever order
  * either side returns them in.
  */
class OracleSpec extends SparkSpec {

  test("rows whose fields concatenate alike match in either order") {
    // Each pair is two distinct rows with one concatenation, whatever the
    // separator between fields ("" or U+0001).
    val rows = Seq(Seq("a", "bc"), Seq("ab", "c"), Seq("a\u0001", "b"), Seq("a", "\u0001b"))
    val t = TableRepo.df(spark, Seq("x", "y"), rows)
    // DuckDB returns them in insertion order, the Spark side reversed.
    Oracle.assertEquivalent(TableRepo.df(spark, Seq("x", "y"), rows.reverse), "SELECT x, y FROM t", "t" -> t)
  }

  test("a missing row is still a mismatch") {
    val t = TableRepo.df(spark, Seq("x", "y"), Seq(Seq("a", "bc"), Seq("ab", "c")))
    intercept[IllegalArgumentException](Oracle.assertEquivalent(
      TableRepo.df(spark, Seq("x", "y"), Seq(Seq("a", "bc"))), "SELECT x, y FROM t", "t" -> t))
  }
}
