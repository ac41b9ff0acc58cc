package repro.data

import scala.util.Random
import scala.util.hashing.MurmurHash3.{finalizeHash, mix, productSeed}

import repro.core.{ColumnRef, ExampleQuery, NoiseLevel}

/** A generated noisy QBE query (§VI-B Noisy Query Generation): example
  * values per ground-truth column, with `level.noiseFraction` of them drawn
  * from the noise column's *noise-only* values (values not present in the
  * ground-truth column).
  */
final case class NoisyQuery(gt: GroundTruth, level: NoiseLevel, replicate: Int, query: ExampleQuery) {
  def name: String = s"${gt.name}/${level.name}/r$replicate"
}

/** Workload generator for Tables IV and V: per ground truth and noise
  * level, `2-column × rowsPerColumn` example queries, seeded so every run
  * (and the DuckDB oracle) sees identical workloads.
  */
object QueryGen {
  val RowsPerColumn = 3

  /** Deterministic seed per (ground truth, level, replicate). */
  private def seedOf(gt: GroundTruth, level: NoiseLevel, replicate: Int, base: Long): Long =
    productHash((gt.name, level.name, replicate, base)).toLong

  /** The deprecated `MurmurHash3.productHash`; `caseClassHash` would change every generated corpus and query. */
  private[data] def productHash(p: Product): Int =
    finalizeHash(p.productIterator.foldLeft(mix(productSeed, p.productPrefix.hashCode))((h, x) => mix(h, x.##)), p.productArity)

  /** Sample without replacement; small pools fall back to sampling with
    * replacement (duplicate example values are harmless — selection scores
    * count distinct values).
    */
  private def sample(rng: Random, pool: Vector[String], k: Int): Vector[String] = {
    require(pool.nonEmpty || k == 0, "cannot sample from an empty pool")
    if (pool.size >= k) rng.shuffle(pool).take(k)
    else Vector.fill(k)(pool(rng.nextInt(pool.size)))
  }

  /** Generate one noisy query. `values` resolves a column to its sorted
    * distinct values (typically `TableRepo.values` or a precomputed map).
    */
  def generate(gt: GroundTruth, level: NoiseLevel, replicate: Int,
               values: ColumnRef => Vector[String], base: Long = 97L): NoisyQuery = {
    val rng = new Random(seedOf(gt, level, replicate, base))
    val nNoise = math.round(RowsPerColumn * level.noiseFraction).toInt
    val cols = gt.spec.projection.map { gtCol =>
      val gtVals = values(gtCol)
      val noiseOnly = values(gt.noiseColumns(gtCol)).filterNot(gtVals.toSet)
      require(level == NoiseLevel.Zero || noiseOnly.nonEmpty,
        s"${gt.name}: noise column ${gt.noiseColumns(gtCol)} has no noise-only values")
      sample(rng, gtVals, RowsPerColumn - nNoise) ++ sample(rng, noiseOnly, nNoise)
    }
    NoisyQuery(gt, level, replicate, ExampleQuery(cols))
  }

  /** The full Table-V-style workload: every ground truth × every noise
    * level × `replicates` queries.
    */
  def workload(gts: Seq[GroundTruth], replicates: Int,
               values: ColumnRef => Vector[String], base: Long = 97L): Vector[NoisyQuery] =
    (for {
      gt <- gts.toVector
      level <- NoiseLevel.all
      r <- 0 until replicates
    } yield generate(gt, level, r, values, base))
}
