package verbench

import scala.util.control.NonFatal

/** A percentile of a sample, with the sample count it was taken from. */
final case class Pct(value: Double, n: Int, beyond: Int)

object Pct {
  /** Nearest-rank percentile: the smallest sample such that at least `p` %
    * of the samples are at or below it. `beyond` counts the samples above
    * that rank.
    */
  def of(samples: Seq[Double], p: Double): Pct = {
    require(samples.nonEmpty, "percentile of an empty sample")
    require(p > 0 && p <= 100, s"percentile $p out of (0, 100]")
    val sorted = samples.sorted
    val rank = math.ceil(p / 100.0 * sorted.size).toInt.max(1)
    Pct(sorted(rank - 1), sorted.size, sorted.size - rank)
  }

  def median(samples: Seq[Double]): Double = of(samples, 50).value
}

/** Closed-loop operation accounting for one client: every operation is
  * attempted once; one that throws is counted as attempted and failed, and
  * its latency is not sampled. Output checks that run after the timed
  * region mark further operations failed with [[fail]].
  */
final class OpLog[A] {
  private val results = Vector.newBuilder[(Int, A)]
  private var nAttempted = 0
  private val failedIds = scala.collection.mutable.LinkedHashMap.empty[Int, String]
  private val latencies = Vector.newBuilder[Double]

  def attempted: Int = nAttempted
  def failed: Int = failedIds.size
  def failures: Seq[(Int, String)] = failedIds.toSeq
  /** Latencies in ms of the operations that returned. */
  def latenciesMs: Vector[Double] = latencies.result()
  /** (operation id, result) of the operations that returned. */
  def returned: Vector[(Int, A)] = results.result()

  /** Run one operation, timing it. Returns the result if it returned. */
  def attempt(op: => A): Option[A] = {
    val id = nAttempted
    nAttempted += 1
    val t0 = System.nanoTime()
    try {
      val r = op
      latencies += (System.nanoTime() - t0) / 1e6
      results += ((id, r))
      Some(r)
    } catch {
      case NonFatal(e) =>
        failedIds(id) = s"threw ${e.getClass.getSimpleName}: ${e.getMessage}"
        None
    }
  }

  def fail(id: Int, why: String): Unit = if (!failedIds.contains(id)) failedIds(id) = why
}
