package org.apache.spark

/** The one scheduler internal the benchmark needs: waiting until every
  * listener event posted so far has been delivered, so that job and task
  * counts read right after an action are complete.
  */
object BenchAccess {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
