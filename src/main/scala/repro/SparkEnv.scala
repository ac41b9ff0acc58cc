package repro

import org.apache.spark.sql.SparkSession

/** The one SparkSession factory, for the `jobs/` entrypoint and the tests
  * (`repro.SparkSpec`): local master, broadcast joins disabled so shuffle
  * paths are exercised.
  */
object SparkEnv {
  lazy val session: SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName("repro-ver")
    .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .getOrCreate()
}
