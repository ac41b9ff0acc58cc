package repro.data

import scala.util.Random

import repro.core.{ColumnRef, JoinEdge, ViewSpec}

/** Synthetic stand-in for the paper's WDC web-tables corpus (10K tables).
  *
  * ~80 small tables organized in families whose value-coverage structure
  * reproduces the paper's WDC insights:
  *
  *  - `state_regions_*` windows are nested/overlapping slices of the state
  *    universe; `newspapers ⋈ state_regions_k` views therefore subsume each
  *    other (C2 insight: "join key values of one join path are subsumed by
  *    the join key values of other join paths") or union (C3 insight).
  *  - `city_papers_*` model newspaper chains over two eras: the `city` key
  *    unions views within an era but contradicts across eras, while the
  *    `paper` key contradicts even within an era (chains assign the same
  *    paper token to different member cities in different tables) — the
  *    worst-key/best-key asymmetry of WDC-Q3 in Table IV.
  *  - `country_pop_*` / `country_births_*` carry era-functional value tokens
  *    → contradictions across census eras (C4).
  *  - `*_archive` / `*_list` noise columns have ≈ 0.85 containment with the
  *    ground-truth universes and *bridge* the era-specific value clusters so
  *    COLUMN-SELECTION's connected components span both eras.
  *  - `world_cities/media/venues/trade/health` collision families share a
  *    few tokens with the query universes (containment « 0.8): SELECT-ALL
  *    picks them up on a value hit and they are internally joinable, so they
  *    inflate SELECT-ALL's join-graph space; COLUMN-SELECTION discards them
  *    as lower-scoring clusters.
  */
object WdcLite {
  val NStates = 50; val NCities = 40; val NChains = 20
  val NCountries = 30; val NIata = 60

  def states: Vector[String]    = (0 until NStates).map(i => f"State_$i%02d").toVector
  def cities: Vector[String]    = (0 until NCities).map(i => f"City_$i%02d").toVector
  def countries: Vector[String] = (0 until NCountries).map(i => f"Country_$i%02d").toVector
  def iatas: Vector[String]     = (0 until NIata).map(i => f"IATA_$i%02d").toVector
  def papers: Vector[String]    = (0 until NStates).map(i => f"Paper_$i%02d").toVector

  /** Which chain member a given city_papers table lists (deterministic mix). */
  def member(tableK: Int, chain: Int): Int = QueryGen.productHash((tableK, chain)).abs % 2

  def cpaperTok(era: String, chain: Int): String = f"CPaper_${era}_$chain%02d"
  def popTok(era: String, c: Int): String = f"Pop_${era}_$c%02d"
  def brTok(era: String, c: Int): String = f"BR_${era}_$c%02d"

  private def window[A](xs: Vector[A], start: Int, len: Int): Vector[A] =
    (0 until len).map(i => xs((start + i) % xs.size)).toVector

  def apply(seed: Long = 23): TableRepo = {
    val rng = new Random(seed)
    val t = Vector.newBuilder[Table]

    // --- airports_k: (state, iata, airport) over sliding windows.
    for (k <- 1 to 8) {
      val st = window(states, (k - 1) * 5, 30)
      val ia = window(iatas, (k - 1) * 4, 30)
      t += Table(s"airports_$k", Seq("state", "iata", "airport"),
        st.indices.map(i => Seq(st(i), ia(i), f"Airport_${k}_$i%02d")))
    }

    // --- churches_k: corpus filler with partially-overlapping state slices.
    for (k <- 1 to 6) {
      val st = window(states, (k - 1) * 7, 25)
      t += Table(s"churches_$k", Seq("state", "church"),
        st.indices.map(i => Seq(st(i), f"Church_${k}_$i%02d")))
    }

    // --- newspapers: one paper per state, full coverage (functional).
    t += Table("newspapers", Seq("state", "paper"),
      states.indices.map(i => Seq(states(i), papers(i))))

    // --- state_regions_k: nested and overlapping windows (C2/C3 driver).
    val regionWindows = Vector((0, 30), (0, 20), (5, 20), (10, 25), (0, 12), (20, 25), (15, 25), (25, 25))
    for ((k, (start, len)) <- regionWindows.zipWithIndex.map { case (w, i) => (i + 1, w) }) {
      val st = window(states, start, len)
      t += Table(s"state_regions_$k", Seq("state", "region"),
        st.map(s => Seq(s, s"Region_${states.indexOf(s) / 10}")))
    }

    // --- city_papers_k: newspaper chains, 2 eras, one member city per chain.
    for (k <- 1 to 12) {
      val era = if (k % 2 == 1) "A" else "B"
      val chains = (0 until 15).map(i => ((k - 1) * 2 + i) % NChains)
      val rows = chains.map { ch =>
        val cityIdx = 2 * ch + member(k, ch)
        Seq(cities(cityIdx), cpaperTok(era, ch))
      }
      t += Table(s"city_papers_$k", Seq("city", "paper"), rows)
    }

    // --- country_pop_k / country_births_k: era-functional census tokens.
    for (k <- 1 to 8) {
      val era = if (k <= 4) "A" else "B"
      val cs = (0 until 20).map(i => ((k - 1) * 3 + i) % NCountries)
      t += Table(s"country_pop_$k", Seq("country", "population"),
        cs.map(c => Seq(countries(c), popTok(era, c))))
    }
    for (k <- 1 to 6) {
      val era = if (k <= 3) "A" else "B"
      val cs = (0 until 20).map(i => ((k - 1) * 3 + i) % NCountries)
      t += Table(s"country_births_$k", Seq("country", "birth_rate"),
        cs.map(c => Seq(countries(c), brTok(era, c))))
    }

    // --- noise tables: ≈0.85 containment with the GT universes; archives
    //     bridge era-A and era-B token clusters.
    val stateProv = states.take(43) ++ (0 until 8).map(i => f"Province_$i%02d")
    t += Table("geo_mixed", Seq("state_prov", "geo_note"),
      stateProv.zipWithIndex.map { case (s, i) => Seq(s, s"note_$i") })

    val iataOld = window(iatas, 0, 30).take(26) ++ (0 until 4).map(i => f"IATA_OLD_$i%02d")
    t += Table("iata_old", Seq("iata_code", "iata_note"),
      iataOld.zipWithIndex.map { case (s, i) => Seq(s, s"inote_$i") })

    val paperOld = papers.take(42) ++ (0 until 8).map(i => f"OldPaper_$i%02d")
    t += Table("paper_archive", Seq("paper_old", "pa_note"),
      paperOld.zipWithIndex.map { case (s, i) => Seq(s, s"pnote_$i") })

    val cityExt = cities.take(34) ++ (0 until 6).map(i => f"ExtCity_$i%02d")
    t += Table("city_list", Seq("city_ext", "cl_note"),
      cityExt.zipWithIndex.map { case (s, i) => Seq(s, s"cnote_$i") })

    val cpaperOld = (0 until 17).map(ch => cpaperTok("A", ch)) ++
      (0 until 10).map(ch => cpaperTok("B", ch)) ++ (0 until 3).map(i => f"OldCPaper_$i%02d")
    t += Table("cpaper_archive", Seq("cpaper_old", "cp_note"),
      cpaperOld.zipWithIndex.map { case (s, i) => Seq(s, s"cpn_$i") })

    val countryExt = countries.take(26) ++ (0 until 5).map(i => f"ExtCountry_$i%02d")
    t += Table("country_list", Seq("country_ext", "co_note"),
      countryExt.zipWithIndex.map { case (s, i) => Seq(s, s"con_$i") })

    val popOld = (0 until 22).map(c => popTok("A", c)) ++
      (8 until 16).map(c => popTok("B", c)) ++ (0 until 4).map(i => f"OldPop_$i%02d")
    t += Table("pop_archive", Seq("pop_old", "po_note"),
      popOld.zipWithIndex.map { case (s, i) => Seq(s, s"pon_$i") })

    val brOld = (0 until 20).map(c => brTok("A", c)) ++
      (6 until 14).map(c => brTok("B", c)) ++ (0 until 4).map(i => f"OldBR_$i%02d")
    t += Table("br_archive", Seq("br_old", "br_note"),
      brOld.zipWithIndex.map { case (s, i) => Seq(s, s"brn_$i") })

    // --- collision families: low-containment token overlap with each GT
    //     query's two universes; internally joinable (identical value sets,
    //     per-table shuffled pairing).
    def collisionFamily(fam: String, count: Int, colA: String, valsA: Vector[String],
                        colB: String, valsB: Vector[String]): Unit = {
      for (j <- 1 to count) {
        val a = rng.shuffle(valsA); val b = rng.shuffle(valsB)
        val m = math.min(a.size, b.size)
        t += Table(s"${fam}_$j", Seq(colA, colB), (0 until m).map(i => Seq(a(i), b(i))))
      }
    }
    // Strided collision sets keep every real column's containment in (and
    // of) a collision column well below the 0.8 threshold — a contiguous
    // prefix could fully contain a small real column (e.g. state_regions_5)
    // and wrongly merge the collision family into the real cluster.
    def stride[A](xs: Vector[A], count: Int, step: Int, offset: Int = 0): Vector[A] =
      (0 until count).map(i => xs((offset + i * step) % xs.size)).toVector
    collisionFamily("world_cities", 7,
      "wc_name", stride(states, 16, 3) ++ (0 until 20).map(i => f"WCity_$i%02d"),
      "wc_code", stride(iatas, 20, 3) ++ (0 until 16).map(i => f"WC_$i%02d"))
    collisionFamily("media", 7,
      "m_state", stride(states, 16, 3, offset = 1) ++ (0 until 20).map(i => f"MediaCity_$i%02d"),
      "m_outlet", stride(papers, 20, 2, offset = 1) ++ (0 until 16).map(i => f"Outlet_$i%02d"))
    collisionFamily("venues", 7,
      "v_city", stride(cities, 16, 2) ++ (0 until 16).map(i => f"VenueCity_$i%02d"),
      "v_code", stride((0 until NChains).map(ch => cpaperTok("A", ch)).toVector, 10, 2) ++
        (0 until 12).map(i => f"VCode_$i%02d"))
    collisionFamily("trade", 7,
      "t_partner", stride(countries, 14, 2) ++ (0 until 16).map(i => f"TPartner_$i%02d"),
      "t_val", stride((0 until NCountries).map(c => popTok("A", c)).toVector, 12, 2) ++
        (0 until 16).map(i => f"TVal_$i%02d"))
    collisionFamily("health", 7,
      "h_country", stride(countries, 14, 2, offset = 1) ++ (0 until 16).map(i => f"HRegion_$i%02d"),
      "h_rate", stride((0 until NCountries).map(c => brTok("A", c)).toVector, 10, 2) ++
        (0 until 12).map(i => f"HVal_$i%02d"))

    def c(tb: String, col: String) = ColumnRef(tb, col)

    val groundTruths = Vector(
      GroundTruth("wdc-Q1",
        ViewSpec.singleTable(Vector(c("airports_1", "state"), c("airports_1", "iata"))),
        Map(c("airports_1", "state") -> c("geo_mixed", "state_prov"),
            c("airports_1", "iata") -> c("iata_old", "iata_code"))),
      GroundTruth("wdc-Q2",
        ViewSpec(Set("state_regions_1", "newspapers"),
          Set(JoinEdge(c("state_regions_1", "state"), c("newspapers", "state"))),
          Vector(c("state_regions_1", "state"), c("newspapers", "paper"))),
        Map(c("state_regions_1", "state") -> c("geo_mixed", "state_prov"),
            c("newspapers", "paper") -> c("paper_archive", "paper_old"))),
      GroundTruth("wdc-Q3",
        ViewSpec.singleTable(Vector(c("city_papers_1", "city"), c("city_papers_1", "paper"))),
        Map(c("city_papers_1", "city") -> c("city_list", "city_ext"),
            c("city_papers_1", "paper") -> c("cpaper_archive", "cpaper_old"))),
      GroundTruth("wdc-Q4",
        ViewSpec.singleTable(Vector(c("country_pop_1", "country"), c("country_pop_1", "population"))),
        Map(c("country_pop_1", "country") -> c("country_list", "country_ext"),
            c("country_pop_1", "population") -> c("pop_archive", "pop_old"))),
      GroundTruth("wdc-Q5",
        ViewSpec.singleTable(Vector(c("country_births_1", "country"), c("country_births_1", "birth_rate"))),
        Map(c("country_births_1", "country") -> c("country_list", "country_ext"),
            c("country_births_1", "birth_rate") -> c("br_archive", "br_old"))),
    )

    TableRepo("wdc-lite", t.result(), groundTruths)
  }
}
