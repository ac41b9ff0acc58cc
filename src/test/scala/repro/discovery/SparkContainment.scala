package repro.discovery

import org.apache.spark.sql.SparkSession

import repro.core.ColumnRef
import repro.data.TableRepo

/** The Spark self-join's joinable pairs ([[Profiles.joinablePairs]]) as a
  * map keyed like [[DiscoveryIndex.containment]]: the reference the index
  * build's driver pair count is compared with. Each collected pair is put in
  * [[ColumnRef.ordering]] on the driver, so Spark's UTF-8 byte compare of
  * `tbl1 < tbl2` never decides the key.
  */
object SparkContainment {
  def apply(spark: SparkSession, repo: TableRepo, threshold: Double): Map[(ColumnRef, ColumnRef), Double] =
    Profiles.joinablePairs(Profiles.columnValues(spark, repo), threshold).collect().map { r =>
      val (a, b) = (ColumnRef(r.getString(0), r.getString(1)), ColumnRef(r.getString(2), r.getString(3)))
      (if (ColumnRef.ordering.lt(a, b)) (a, b) else (b, a)) -> r.getDouble(5)
    }.toMap
}
