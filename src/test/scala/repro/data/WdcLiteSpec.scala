package repro.data

import org.scalatest.funsuite.AnyFunSuite

import repro.core.ColumnRef

class WdcLiteSpec extends AnyFunSuite {
  private lazy val repo = WdcLite()

  private def values(c: ColumnRef): Set[String] = repo.values(c).toSet
  private def rows2(t: String): Seq[(String, String)] = repo.rows(t).map(r => (r(0), r(1)))

  test("the corpus has the expected family sizes") {
    def fam(prefix: String) = repo.data.count(_.name.startsWith(prefix))
    assert(fam("airports_") == 8 && fam("churches_") == 6 && fam("state_regions_") == 8)
    assert(fam("city_papers_") == 12 && fam("country_pop_") == 8 && fam("country_births_") == 6)
    assert(fam("world_cities_") == 7 && fam("media_") == 7 && fam("venues_") == 7)
    assert(repo.data.exists(_.name == "newspapers"))
  }
  test("generation is deterministic") {
    assert(WdcLite() == repo)
  }
  test("member is pinned: its hash has not changed") {
    val grid = (1 to 8).map(k => (0 until 20).map(c => WdcLite.member(k, c)).mkString)
    assert(grid == Seq("11010101000100000000", "01101010111001101101", "00111110111111111010",
      "11100110110010111010", "11011000101011101010", "11100001001010110111",
      "10101010100000101100", "10111101101110011100"))
  }

  test("newspapers cover all states functionally (one paper per state)") {
    val rs = rows2("newspapers")
    assert(rs.map(_._1).distinct.size == WdcLite.NStates)
    assert(rs.map(_._2).distinct.size == WdcLite.NStates)
  }
  test("state_regions_2 is nested inside state_regions_1 (contained-view design)") {
    assert(values(ColumnRef("state_regions_2", "state"))
      .subsetOf(values(ColumnRef("state_regions_1", "state"))))
    assert(values(ColumnRef("state_regions_5", "state"))
      .subsetOf(values(ColumnRef("state_regions_1", "state"))))
  }
  test("state_regions windows overlap partially (complementary-view design)") {
    val a = values(ColumnRef("state_regions_1", "state"))
    val d = values(ColumnRef("state_regions_4", "state"))
    assert((a intersect d).nonEmpty && (d diff a).nonEmpty)
  }

  test("city_papers: one row per chain, city and paper unique per table") {
    for (k <- 1 to 12) {
      val rs = rows2(s"city_papers_$k")
      assert(rs.size == 15, s"table $k")
      assert(rs.map(_._1).distinct.size == rs.size, s"city unique in table $k")
      assert(rs.map(_._2).distinct.size == rs.size, s"paper unique in table $k")
    }
  }
  test("city_papers are era-functional: same era, same city → same paper") {
    val eraA = (1 to 12 by 2).flatMap(k => rows2(s"city_papers_$k"))
    val byCity = eraA.groupBy(_._1)
    byCity.foreach { case (city, rs) =>
      assert(rs.map(_._2).distinct.size == 1, s"city $city must be functional within era A")
    }
  }
  test("city_papers contradict across eras: same city, different paper") {
    val a = rows2("city_papers_1").toMap
    val b = (2 to 12 by 2).flatMap(k => rows2(s"city_papers_$k")).toMap
    val shared = a.keySet intersect b.keySet
    assert(shared.nonEmpty)
    assert(shared.exists(c => a(c) != b(c)), "the C4 design needs cross-era contradictions")
  }
  test("city_papers within an era contradict under the paper key (worst-key design)") {
    val eraA = (1 to 12 by 2).flatMap(k => rows2(s"city_papers_$k"))
    val byPaper = eraA.groupBy(_._2)
    assert(byPaper.exists(_._2.map(_._1).distinct.size > 1),
      "the same chain paper maps to different member cities across tables")
  }
  test("city_papers within an era share identical rows (overlap for unions)") {
    val a = rows2("city_papers_1").toSet
    val c = rows2("city_papers_3").toSet
    assert((a intersect c).nonEmpty, "complementary unions need row overlap")
  }

  test("country_pop eras are functional and contradictory across eras") {
    val a = rows2("country_pop_1").toMap; val b = rows2("country_pop_5").toMap
    val shared = a.keySet intersect b.keySet
    assert(shared.nonEmpty && shared.forall(c => a(c) != b(c)))
    val a2 = rows2("country_pop_2").toMap
    (a.keySet intersect a2.keySet).foreach(c => assert(a(c) == a2(c), "same era agrees"))
  }

  test("noise columns have ≥0.75 containment and noise-only values") {
    for (gt <- repo.groundTruths; (gtCol, noiseCol) <- gt.noiseColumns) {
      val g = values(gtCol); val n = values(noiseCol)
      assert((n diff g).nonEmpty, s"${gt.name}: $noiseCol needs noise-only values")
      val relevantUniverse = g union n
      assert((g intersect n).nonEmpty, s"${gt.name}: $noiseCol must overlap $gtCol")
      assert((n intersect relevantUniverse).size.toDouble / n.size > 0.5)
    }
  }
  test("archives bridge the two era clusters") {
    val cp = values(ColumnRef("cpaper_archive", "cpaper_old"))
    assert(cp.exists(_.startsWith("CPaper_A")) && cp.exists(_.startsWith("CPaper_B")))
    val po = values(ColumnRef("pop_archive", "pop_old"))
    assert(po.exists(_.startsWith("Pop_A")) && po.exists(_.startsWith("Pop_B")))
  }
  test("collision columns stay below the joinability threshold vs real columns") {
    def containment(a: ColumnRef, b: ColumnRef): Double = {
      val (va, vb) = (values(a), values(b))
      val o = (va intersect vb).size.toDouble
      math.max(o / va.size, o / vb.size)
    }
    assert(containment(ColumnRef("world_cities_1", "wc_name"), ColumnRef("newspapers", "state")) < 0.8)
    assert(containment(ColumnRef("world_cities_1", "wc_name"), ColumnRef("state_regions_5", "state")) < 0.8)
    assert(containment(ColumnRef("trade_1", "t_partner"), ColumnRef("country_pop_1", "country")) < 0.8)
    assert(containment(ColumnRef("venues_1", "v_city"), ColumnRef("city_papers_1", "city")) < 0.8)
    assert(containment(ColumnRef("media_1", "m_outlet"), ColumnRef("newspapers", "paper")) < 0.8)
  }
  test("collision families are internally joinable (identical universes)") {
    assert(values(ColumnRef("world_cities_1", "wc_name")) == values(ColumnRef("world_cities_2", "wc_name")))
    assert(values(ColumnRef("trade_1", "t_val")) == values(ColumnRef("trade_3", "t_val")))
  }

  test("five ground truths with well-formed specs") {
    assert(repo.groundTruths.map(_.name) ==
      Vector("wdc-Q1", "wdc-Q2", "wdc-Q3", "wdc-Q4", "wdc-Q5"))
    for (gt <- repo.groundTruths) {
      assert(gt.spec.connected, gt.name)
      for (c <- gt.spec.projection ++ gt.noiseColumns.values)
        assert(repo.columns(c.table).contains(c.column), s"${gt.name}: $c")
    }
  }
}
