package repro.perfbench

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import org.apache.spark.SparkContext

/** One timed call into a layer: name, start, end and the span that caused
  * it. Spans of one operation share `op`, the operation's job group.
  */
final case class Span(id: Int, parent: Int, op: String, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** Records spans around the benchmark's calls into the program's layers.
  *
  * Disabled, `span` just runs its body. Enabled, it also names the span in
  * the thread's Spark local properties, so jobs started inside it are
  * attributed to that layer. Spans stay in memory until the run ends.
  */
final class Tracer(sc: SparkContext) {
  @volatile var enabled = false
  private val ids = new AtomicInteger(0)
  private val done = mutable.ArrayBuffer.empty[Span]
  /** Open spans of the calling thread, innermost first: (id, name, start). */
  private val stack = new ThreadLocal[List[(Int, String, Long)]] {
    override def initialValue(): List[(Int, String, Long)] = Nil
  }
  private val opOf = new ThreadLocal[String]

  /** Marks the calling thread as running operation `op` (its job group). */
  def beginOp(op: String): Unit = { opOf.set(op); stack.set(Nil) }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = ids.incrementAndGet()
      val outer = stack.get
      val t0 = System.nanoTime()
      stack.set((id, name, t0) :: outer)
      sc.setLocalProperty(SparkMeter.SpanKey, name)
      try body
      finally {
        val t1 = System.nanoTime()
        stack.set(outer)
        sc.setLocalProperty(SparkMeter.SpanKey, outer.headOption.map(_._2).orNull)
        val parent = outer.headOption.map(_._1).getOrElse(0)
        done.synchronized { done += Span(id, parent, opOf.get, name, t0, t1) }
      }
    }

  /** Records, as a child of the innermost open span, the part of that span
    * from its start until now. The program's drivers call back into the
    * benchmark only at `optimize`, so the time a driver spent before that
    * call (unnesting) is recorded this way.
    */
  def lead(name: String): Unit =
    if (enabled) stack.get.headOption.foreach { case (parent, _, start) =>
      val id = ids.incrementAndGet()
      done.synchronized { done += Span(id, parent, opOf.get, name, start, System.nanoTime()) }
    }

  /** Removes and returns the spans recorded so far. */
  def drain(): Seq[Span] = done.synchronized {
    val out = done.toList
    done.clear()
    out
  }
}

object Tracer {

  /** Self time per span name: a span's duration minus the part its child
    * spans cover (children of one span never overlap: calls are sequential).
    */
  def selfNs(spans: Seq[Span]): Map[String, Long] = {
    val childNs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(_.durNs).sum }
    spans.groupBy(_.name).map { case (n, ss) =>
      n -> ss.map(s => s.durNs - childNs.getOrElse(s.id, 0L)).sum
    }
  }
}
