package repro.data

import repro.SparkSpec
import repro.core.{ColumnRef, NoiseLevel}

class ChemblLiteSpec extends SparkSpec {
  private lazy val repo = ChemblLite(spark)

  private def values(c: ColumnRef): Set[String] = repo.values(c).toSet

  test("all expected tables exist") {
    val expected = Set("cell_dictionary", "assays", "assay_archive", "bioassay_ontology",
      "target_dictionary", "component_sequences", "component_class", "target_synonyms",
      "activities", "molecule_dictionary", "compound_records", "old_compounds",
      "lab_notes_1", "lab_notes_2", "lab_notes_3")
    assert(repo.data.map(_.name).toSet == expected)
  }
  test("schemas are all-string and as declared") {
    assert(repo.columns("assays") ==
      Vector("assay_id", "cell_id", "cell_name", "cell_description", "assay_type", "assay_organism"))
  }
  test("generation is deterministic in the seed") {
    assert(ChemblLite(spark) == repo)
  }
  test("different seeds change the data") {
    val other = ChemblLite(spark, seed = 99)
    assert(repo.rows("assays") != other.rows("assays"))
  }

  test("cell_dictionary aligns cell_id, cell_name, cell_description one-to-one") {
    val rows = repo.rows("cell_dictionary")
    for (i <- 0 until 3) assert(rows.map(_(i)).distinct.length == rows.length)
  }
  test("assays carry the cell triple consistently with cell_dictionary") {
    val dict = repo.rows("cell_dictionary").map(r => r(0) -> ((r(1), r(2)))).toMap
    repo.rows("assays").foreach { r =>
      assert(dict(r(1)) == ((r(2), r(3))),
        "the three aligned join keys must produce identical views (C1 design)")
    }
  }

  test("noise columns share ≈85% of their universe with the ground truth column") {
    for (gt <- repo.groundTruths; (gtCol, noiseCol) <- gt.noiseColumns) {
      val g = values(gtCol); val n = values(noiseCol)
      val containment = (g intersect n).size.toDouble / n.size
      assert(containment >= 0.75 && containment < 1.0,
        s"${gt.name}: containment of $noiseCol in $gtCol is $containment")
      assert((n diff g).nonEmpty, s"${gt.name}: $noiseCol needs noise-only values")
    }
  }
  test("description overlaps pref_name at ≈0.85 (the wrong-join-path design)") {
    val d = values(ColumnRef("component_sequences", "description"))
    val p = values(ColumnRef("target_dictionary", "pref_name"))
    val c = (d intersect p).size.toDouble / d.size
    assert(c >= 0.8 && c < 1.0, s"containment=$c")
  }
  test("component_class.pref_name is a permutation of the protein universe") {
    val cc = repo.rows("component_class").map(_(1))
    assert(cc.distinct.length == cc.length, "unique per row → candidate key in Q4 views")
    assert(values(ColumnRef("component_class", "pref_name"))
      .subsetOf(values(ColumnRef("target_dictionary", "pref_name"))))
  }
  test("lab_notes collide with ~30% of proteins (below the 0.8 threshold)") {
    val tag = values(ColumnRef("lab_notes_1", "note_tag"))
    val p = values(ColumnRef("target_dictionary", "pref_name"))
    val c = (tag intersect p).size.toDouble / tag.size
    assert(c > 0.1 && c < 0.5, s"containment=$c")
  }
  test("activities reference existing assays, targets and molecules") {
    val assays = values(ColumnRef("assays", "assay_id"))
    val tids = values(ColumnRef("target_dictionary", "tid"))
    val mols = values(ColumnRef("molecule_dictionary", "molregno"))
    assert(values(ColumnRef("activities", "assay_id")).subsetOf(assays))
    assert(values(ColumnRef("activities", "tid")).subsetOf(tids))
    assert(values(ColumnRef("activities", "molregno")).subsetOf(mols))
  }
  test("compound_records share the drug-name universe with molecule_dictionary") {
    assert(values(ColumnRef("compound_records", "compound_name"))
      .subsetOf(values(ColumnRef("molecule_dictionary", "molecule_name"))))
  }
  test("five ground truths with well-formed specs") {
    assert(repo.groundTruths.map(_.name) ==
      Vector("chembl-Q1", "chembl-Q2", "chembl-Q3", "chembl-Q4", "chembl-Q5"))
    for (gt <- repo.groundTruths) {
      assert(gt.spec.connected, gt.name)
      gt.spec.tables.foreach(t => assert(repo.data.exists(_.name == t), s"${gt.name}: $t"))
      for (c <- gt.spec.projection ++ gt.noiseColumns.values)
        assert(repo.columns(c.table).contains(c.column), s"${gt.name}: $c")
    }
  }
  test("Q2's ground truth is a 2-hop join through activities") {
    val q2 = repo.groundTruths.find(_.name == "chembl-Q2").get
    assert(q2.spec.hops == 2 && q2.spec.tables.contains("activities"))
  }
  test("scale shrinks the tables") {
    val small = ChemblLite(spark, scale = 0.5)
    assert(small.rows("assays").size < repo.rows("assays").size)
  }
  test("generated queries are pinned: their seed hash has not changed") {
    def examples(gt: Int, level: NoiseLevel, replicate: Int) =
      QueryGen.generate(repo.groundTruths(gt), level, replicate, repo.values).query.columns
    assert(examples(0, NoiseLevel.Zero, 0) == Vector(
      Vector("cell_name_0033", "cell_name_0150", "cell_name_0138"), Vector("assay_type_F", "assay_type_B", "assay_type_A")))
    assert(examples(1, NoiseLevel.Med, 0) == Vector(
      Vector("protein_0139", "protein_0196", "synonym_0009"), Vector("assay_type_A", "assay_type_P", "assay_type_X")))
    assert(examples(2, NoiseLevel.Med, 1) == Vector(
      Vector("cell_name_0040", "cell_name_0145", "old_cell_0000"), Vector("organism_05", "organism_08", "org_extra_00")))
    assert(examples(4, NoiseLevel.High, 2) == Vector(
      Vector("drug_0115", "old_drug_0013", "old_drug_0012"), Vector("standard_type_1", "standard_type_X", "standard_type_X")))
  }
}
