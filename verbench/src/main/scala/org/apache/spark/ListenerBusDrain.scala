package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so span
  * counters are complete before they are read. The bus is internal to
  * Spark, hence this object's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
