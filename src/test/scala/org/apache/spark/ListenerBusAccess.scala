package org.apache.spark

/** Waits until every listener event posted so far has been delivered, so a
  * job count read right after an action is complete.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
