package repro.discovery

import org.apache.spark.sql.SparkSession

import repro.core.ColumnRef
import repro.data.TableRepo

/** The Spark self-join's joinable pairs ([[Profiles.joinablePairs]]) as a
  * map keyed like [[DiscoveryIndex.containment]]: the reference the index
  * build's driver pair count is compared with.
  */
object SparkContainment {
  def apply(spark: SparkSession, repo: TableRepo, threshold: Double): Map[(ColumnRef, ColumnRef), Double] =
    Profiles.joinablePairs(Profiles.columnValues(spark, repo), threshold).collect().map { r =>
      (ColumnRef(r.getString(0), r.getString(1)), ColumnRef(r.getString(2), r.getString(3))) -> r.getDouble(5)
    }.toMap
}
