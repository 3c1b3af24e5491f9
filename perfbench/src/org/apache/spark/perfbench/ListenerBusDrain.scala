package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Access to the listener bus, which Spark keeps package-private.
  *
  * Waiting until the bus is empty guarantees that every job, stage and
  * query-execution event posted so far has reached the benchmark's
  * listeners, so an operation's counters are complete before the next one
  * starts (no sleep-and-hope for late events).
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
