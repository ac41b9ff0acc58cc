package repro.data

import org.apache.spark.sql.SparkSession
import scala.util.Random

import repro.core.{ColumnRef, JoinEdge, ViewSpec}

/** Synthetic stand-in for the paper's ChEMBL corpus (70 tables, 140M rows).
  *
  * The tables reproduce — at laptop scale — the *structural causes* behind
  * the paper's ChEMBL insights, which is what Ver's algorithms actually
  * consume (value-overlap structure, not biology):
  *
  *  - `assays` carries `cell_id`/`cell_name`/`cell_description` aligned
  *    1-to-1 with `cell_dictionary`, so three distinct join keys produce
  *    identical views → *compatible* pairs (C1 insight, §VI-B-1).
  *  - `component_sequences.description` overlaps
  *    `target_dictionary.pref_name` with containment ≈ 0.85, creating the
  *    paper's wrong join path `description = pref_name` → *contradictory*
  *    views under the `pref_name` key (C4 insight).
  *  - The Q2 ground truth is a 2-hop join through `activities` (ρ = 2).
  *  - Every ground-truth column has a designated noise column with
  *    containment ≈ 0.85 (> 0.8 per §VI-B), whose extra values feed
  *    Medium/High-noise queries; SELECT-BEST collapses on them because the
  *    noise column usually covers the sampled ground-truth values too.
  *  - `lab_notes_*` tables carry token collisions with the protein universe
  *    at containment ≈ 0.3 — value hits for SELECT-ALL that COLUMN-SELECTION
  *    discards as a lower-scoring cluster.
  */
object ChemblLite {
  /** Shared-universe fraction of a noise column (the rest are noise-only). */
  val NoiseShare = 0.85

  /** `spark` is unused (tables are driver rows); the benchmark still passes one. */
  def apply(spark: SparkSession, scale: Double = 1.0, seed: Long = 11): TableRepo = {
    require(scale > 0, "scale must be positive")
    val rng = new Random(seed)
    def n(base: Int): Int = math.max(8, (base * scale).toInt)

    val nCell = n(160); val nTarget = n(220); val nComp = n(220)
    val nAssay = n(480); val nAct = n(700); val nMol = n(260); val nRec = n(320)

    val organisms  = (0 until 12).map(i => f"organism_$i%02d").toVector
    val assayTypes = Vector("assay_type_B", "assay_type_F", "assay_type_A", "assay_type_P")
    val stdTypes   = (0 until 5).map(i => s"standard_type_$i").toVector

    val cellIds   = (0 until nCell).map(i => f"CELL_$i%04d").toVector
    val cellNames = (0 until nCell).map(i => f"cell_name_$i%04d").toVector
    val cellDescs = (0 until nCell).map(i => f"cell_desc_$i%04d").toVector
    val proteins  = (0 until nTarget).map(i => f"protein_$i%04d").toVector
    val compIds   = (0 until nComp).map(i => f"COMPONENT_$i%04d").toVector
    val tids      = (0 until nTarget).map(i => f"TID_$i%04d").toVector
    val molregnos = (0 until nMol).map(i => f"MOL_$i%04d").toVector
    val drugs     = (0 until nMol).map(i => f"drug_$i%04d").toVector

    def pick[A](xs: Vector[A]): A = xs(rng.nextInt(xs.size))

    // --- cell_dictionary: the 1-to-1 aligned triple of candidate keys.
    val cellDictionary = (0 until nCell).map { i =>
      Seq(cellIds(i), cellNames(i), cellDescs(i))
    }

    // --- assays: denormalized cell triple (consistent with cell_dictionary)
    //     so joining on any of the three keys yields identical views.
    val assays = (0 until nAssay).map { i =>
      val c = rng.nextInt(nCell)
      Seq(f"ASSAY_$i%04d", cellIds(c), cellNames(c), cellDescs(c), pick(assayTypes), pick(organisms))
    }

    /** A noise column universe: `NoiseShare` of `base` plus fresh extras. */
    def noisy(base: Vector[String], extraPrefix: String): Vector[String] = {
      val nShared = math.max(1, math.round(base.size * NoiseShare).toInt)
      val nExtra  = math.max(1, base.size - nShared)
      base.take(nShared) ++ (0 until nExtra).map(i => f"${extraPrefix}_$i%04d")
    }

    // --- assay_archive: noise columns for cell_name and assay_type.
    val cellNamesOld  = noisy(cellNames, "old_cell")
    val assayTypesOld = assayTypes :+ "assay_type_X" // containment 4/5 = 0.8
    val assayArchive = cellNamesOld.zipWithIndex.map { case (cn, i) =>
      Seq(f"ARCHIVE_$i%04d", cn, assayTypesOld(i % assayTypesOld.size))
    }

    // --- bioassay_ontology: noise column for organism (containment 10/12).
    val organismAlt = organisms.take(10) ++ Vector("org_extra_00", "org_extra_01")
    val bioassayOntology = organismAlt.zipWithIndex.map { case (o, i) =>
      Seq(f"ONTO_$i%04d", o)
    }

    // --- target_dictionary: pref_name unique; organism per target.
    val targetOrganism = tids.indices.map(_ => pick(organisms)).toVector
    val targetDictionary = tids.indices.map { i =>
      Seq(tids(i), proteins(i), targetOrganism(i))
    }

    // --- component_sequences: description ≈ 85% protein tokens (the wrong
    //     join path of the C4 insight), organism independently drawn so the
    //     spurious join contradicts target_dictionary's organisms.
    val nSharedDesc = math.round(nComp * NoiseShare).toInt
    val descriptions = rng.shuffle(proteins).take(nSharedDesc) ++
      (0 until (nComp - nSharedDesc)).map(i => f"seqdesc_$i%04d")
    val componentSequences = compIds.indices.map { i =>
      Seq(compIds(i), descriptions(i), pick(organisms))
    }

    // --- component_class: pref_name is a permutation of the protein
    //     universe → unique per row, so views keyed by pref_name exist.
    val classPerm = rng.shuffle(proteins)
    val componentClass = compIds.indices.map { i =>
      Seq(compIds(i), classPerm(i), f"class_${i % 9}%02d")
    }

    // --- target_synonyms: noise column for pref_name.
    val synonyms = noisy(proteins, "synonym")
    val targetSynonyms = synonyms.zipWithIndex.map { case (s, i) => Seq(f"SYN_$i%04d", s) }

    // --- activities: the 2-hop hub (assays ↔ activities ↔ targets).
    val activities = (0 until nAct).map { i =>
      Seq(f"ACT_$i%05d", f"ASSAY_${rng.nextInt(nAssay)}%04d", pick(tids),
        pick(molregnos), pick(stdTypes), s"sv_${rng.nextInt(40)}")
    }

    // --- molecule_dictionary / compound_records: shared drug-name universe.
    val moleculeDictionary = molregnos.indices.map { i => Seq(molregnos(i), drugs(i)) }
    val compoundRecords = (0 until nRec).map { i =>
      val m = rng.nextInt(nMol)
      Seq(f"REC_$i%04d", molregnos(m), drugs(m))
    }

    // --- old_compounds: noise columns for compound_name and standard_type.
    //     Built from the drug names actually present in compound_records so
    //     containment w.r.t. the ground-truth column is ≈0.85 (the sampled
    //     records cover only part of the drug universe).
    val presentDrugs = compoundRecords.map(_(2)).distinct.sorted.toVector
    val drugsOld    = noisy(presentDrugs, "old_drug")
    val stdTypesOld = stdTypes.take(4) :+ "standard_type_X" // containment 4/5
    val oldCompounds = drugsOld.zipWithIndex.map { case (d, i) =>
      Seq(f"OLDC_$i%04d", d, stdTypesOld(i % stdTypesOld.size))
    }

    // --- lab_notes_*: SELECT-ALL distractors. note_tag collides with ~30%
    //     of the protein universe (containment « 0.8 → a separate, lower-
    //     scoring cluster); note_organism joins the organism columns so the
    //     distractor tables actually reach views via join paths.
    val labNotes = (1 to 3).map { k =>
      val nTag = n(200)
      val collisions = rng.shuffle(proteins).take((nTag * 0.3).toInt)
      val own = (0 until nTag - collisions.size).map(i => f"note${k}_$i%04d")
      val tags = rng.shuffle(collisions ++ own)
      s"lab_notes_$k" -> tags.zipWithIndex.map { case (t, i) =>
        Seq(f"NOTE${k}_$i%04d", t, pick(organisms))
      }
    }

    val tables = Vector(
      Table("cell_dictionary", Seq("cell_id", "cell_name", "cell_description"), cellDictionary),
      Table("assays",
        Seq("assay_id", "cell_id", "cell_name", "cell_description", "assay_type", "assay_organism"), assays),
      Table("assay_archive", Seq("archive_id", "cell_name_old", "assay_type_old"), assayArchive),
      Table("bioassay_ontology", Seq("onto_id", "organism_alt"), bioassayOntology),
      Table("target_dictionary", Seq("tid", "pref_name", "organism"), targetDictionary),
      Table("component_sequences", Seq("component_id", "description", "organism"), componentSequences),
      Table("component_class", Seq("component_id", "pref_name", "protein_class"), componentClass),
      Table("target_synonyms", Seq("syn_id", "synonym"), targetSynonyms),
      Table("activities",
        Seq("activity_id", "assay_id", "tid", "molregno", "standard_type", "standard_value"), activities),
      Table("molecule_dictionary", Seq("molregno", "molecule_name"), moleculeDictionary),
      Table("compound_records", Seq("record_id", "molregno", "compound_name"), compoundRecords),
      Table("old_compounds", Seq("oldc_id", "compound_old", "standard_type_old"), oldCompounds),
    ) ++ labNotes.map { case (name, rows) => Table(name, Seq("note_id", "note_tag", "note_organism"), rows) }

    def c(t: String, col: String) = ColumnRef(t, col)

    val groundTruths = Vector(
      GroundTruth("chembl-Q1",
        ViewSpec(Set("assays", "cell_dictionary"),
          Set(JoinEdge(c("assays", "cell_id"), c("cell_dictionary", "cell_id"))),
          Vector(c("cell_dictionary", "cell_name"), c("assays", "assay_type"))),
        Map(c("cell_dictionary", "cell_name") -> c("assay_archive", "cell_name_old"),
            c("assays", "assay_type") -> c("assay_archive", "assay_type_old"))),
      GroundTruth("chembl-Q2",
        ViewSpec(Set("target_dictionary", "activities", "assays"),
          Set(JoinEdge(c("target_dictionary", "tid"), c("activities", "tid")),
              JoinEdge(c("activities", "assay_id"), c("assays", "assay_id"))),
          Vector(c("target_dictionary", "pref_name"), c("assays", "assay_type"))),
        Map(c("target_dictionary", "pref_name") -> c("target_synonyms", "synonym"),
            c("assays", "assay_type") -> c("assay_archive", "assay_type_old"))),
      GroundTruth("chembl-Q3",
        ViewSpec(Set("assays", "cell_dictionary"),
          Set(JoinEdge(c("assays", "cell_id"), c("cell_dictionary", "cell_id"))),
          Vector(c("cell_dictionary", "cell_name"), c("assays", "assay_organism"))),
        Map(c("cell_dictionary", "cell_name") -> c("assay_archive", "cell_name_old"),
            c("assays", "assay_organism") -> c("bioassay_ontology", "organism_alt"))),
      GroundTruth("chembl-Q4",
        ViewSpec(Set("component_sequences", "component_class"),
          Set(JoinEdge(c("component_sequences", "component_id"), c("component_class", "component_id"))),
          Vector(c("component_sequences", "organism"), c("component_class", "pref_name"))),
        Map(c("component_sequences", "organism") -> c("bioassay_ontology", "organism_alt"),
            c("component_class", "pref_name") -> c("target_synonyms", "synonym"))),
      GroundTruth("chembl-Q5",
        ViewSpec(Set("compound_records", "activities"),
          Set(JoinEdge(c("compound_records", "molregno"), c("activities", "molregno"))),
          Vector(c("compound_records", "compound_name"), c("activities", "standard_type"))),
        Map(c("compound_records", "compound_name") -> c("old_compounds", "compound_old"),
            c("activities", "standard_type") -> c("old_compounds", "standard_type_old"))),
    )

    TableRepo("chembl-lite", tables, groundTruths)
  }
}
