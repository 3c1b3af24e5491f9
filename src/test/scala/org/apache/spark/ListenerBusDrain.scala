package org.apache.spark

/** Test access to the listener bus, which Spark keeps package-private.
  * Waiting until it is empty guarantees that every event posted so far has
  * reached the registered listeners.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
