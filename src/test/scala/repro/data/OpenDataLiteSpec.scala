package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.core.ColumnRef

class OpenDataLiteSpec extends AnyFunSuite {
  private lazy val repo = OpenDataLite(nFiller = 40)
  private def names(r: TableRepo): Vector[String] = r.data.map(_.name)

  test("contains the WDC families, a renamed copy, and fillers") {
    assert(names(repo).contains("newspapers"))
    assert(names(repo).contains("od_newspapers"))
    assert(names(repo).count(_.startsWith("filler_")) == 40)
  }
  test("filler tables have unique-token columns (no joinable pairs)") {
    val f = repo.rows("filler_0")
    assert(f.nonEmpty)
    val firstCol = f.map(_(0))
    assert(firstCol.distinct.length == firstCol.length)
  }
  test("ground truths are inherited from the WDC base") {
    assert(repo.groundTruths.map(_.name) == WdcLite().groundTruths.map(_.name))
  }
  test("the copy shares value universes with the base (cross-copy joins)") {
    assert(repo.values(ColumnRef("newspapers", "state")) == repo.values(ColumnRef("od_newspapers", "state")))
  }
  test("deterministic in the seed") {
    val again = OpenDataLite(nFiller = 40)
    assert(names(again) == names(repo))
    assert(again.rows("filler_3") == repo.rows("filler_3"))
  }
}
