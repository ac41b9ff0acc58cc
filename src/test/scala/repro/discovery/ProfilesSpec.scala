package repro.discovery

import repro.SparkSpec
import repro.core.ColumnRef
import repro.data.{Table, TableRepo}

/** Tests the Spark reference pair count in [[Profiles]] (the self-join that
  * `DiscoveryIndexSpec` and the corpus sweep compare the driver's
  * [[Profiles.containment]] with) against brute-force counts on a tiny
  * hand-built repo.
  */
class ProfilesSpec extends SparkSpec {

  private lazy val repo = TableRepo("prof-test", Vector(
    Table("t1", Seq("a", "b"), Seq(
      Seq("x", "1"), Seq("y", "2"), Seq("x", "3"))),
    Table("t2", Seq("a2", "c"), Seq(
      Seq("x", "1"), Seq("y", "9"), Seq("z", "9"))),
    Table("t3", Seq("d"), Seq(Seq("q"))),
  ), Vector.empty)

  private lazy val cv = Profiles.columnValues(spark, repo).cache()

  private def collected: Set[(String, String, String)] =
    cv.collect().map(r => (r.getString(0), r.getString(1), r.getString(2))).toSet

  test("columnValues melts every (table, column, value) triple") {
    assert(collected.contains(("t1", "a", "x")))
    assert(collected.contains(("t2", "c", "9")))
    assert(collected.contains(("t3", "d", "q")))
  }
  test("columnValues is distinct (duplicate cell values collapse)") {
    assert(collected.count(t => t == (("t1", "a", "x"))) == 1)
    assert(collected.size == 5 + 5 + 1) // t1: a{x,y}+b{1,2,3}; t2: a2{x,y,z}+c{1,9}; t3: d{q}
  }
  test("columnStats matches brute-force distinct counts") {
    val stats = Profiles.columnStats(cv).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getLong(2)).toMap
    assert(stats(("t1", "a")) == 2 && stats(("t1", "b")) == 3)
    assert(stats(("t2", "a2")) == 3 && stats(("t2", "c")) == 2)
    assert(stats(("t3", "d")) == 1)
  }
  test("columnPairs computes overlap and max-directional containment") {
    val pairs = Profiles.columnPairs(cv).collect().map { r =>
      ((r.getString(0), r.getString(1), r.getString(2), r.getString(3)),
        (r.getLong(4), r.getDouble(5)))
    }.toMap
    // t1.a {x,y} vs t2.a2 {x,y,z}: overlap 2, containment max(2/2, 2/3) = 1.0
    assert(pairs(("t1", "a", "t2", "a2")) == ((2L, 1.0)))
    // t1.b {1,2,3} vs t2.c {1,9}: overlap 1, containment max(1/3, 1/2) = 0.5
    assert(pairs(("t1", "b", "t2", "c")) == ((1L, 0.5)))
  }
  test("columnPairs excludes same-table pairs") {
    // t1.a and t1.b share no values anyway; force a same-table overlap:
    val r2 = TableRepo("same", Vector(Table("t", Seq("p", "q"), Seq(Seq("v", "v")))), Vector.empty)
    val cv2 = Profiles.columnValues(spark, r2)
    assert(Profiles.columnPairs(cv2).count() == 0)
  }
  test("columnPairs emits one row per unordered pair") {
    val pairs = Profiles.columnPairs(cv).collect()
      .map(r => Set((r.getString(0), r.getString(1)), (r.getString(2), r.getString(3))))
    assert(pairs.distinct.size == pairs.size)
  }
  test("joinablePairs filters by threshold") {
    val joinable = Profiles.joinablePairs(cv, 0.8).collect()
      .map(r => ((r.getString(0), r.getString(1)), (r.getString(2), r.getString(3)))).toSet
    assert(joinable == Set((("t1", "a"), ("t2", "a2"))))
  }
  test("joinablePairs at threshold 0 returns every overlapping pair") {
    assert(Profiles.joinablePairs(cv, 0.0).count() == Profiles.columnPairs(cv).count())
  }
}
