package repro.perfbench

import java.util.concurrent.TimeoutException
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}
import scala.util.{Failure, Success, Try}
import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession

/** Outcome of one timed operation. `stats` holds exactly the Spark work
  * submitted under the operation's job group.
  */
final case class OpResult[T](group: String, value: Try[T], ns: Long, stats: GroupStats) {
  def ok: Boolean = value.isSuccess
}

/** The benchmark's timer: one operation in flight at a time (a closed loop
  * with one client).
  *
  * Each operation runs on a fresh thread that sets its own job group, so
  * every job it starts — including jobs on Spark's broadcast and subquery
  * threads, which copy the submitting thread's properties — carries that
  * group. On timeout the group is cancelled, the thread interrupted, and
  * the runner waits until no job of the group is active before it returns,
  * so an abandoned operation cannot burn cores under the next one.
  */
final class OpRunner(spark: SparkSession, meter: SparkMeter, tracer: Tracer, timeoutMs: Long) {
  private val sc = spark.sparkContext
  private val ids = new AtomicInteger(0)

  def run[T](label: String)(body: => T): OpResult[T] = {
    val group = s"op-${ids.incrementAndGet()}"
    meter.currentGroup = group
    val outcome = new AtomicReference[Try[T]](Failure(new TimeoutException(s"$label: timed out")))
    val elapsed = new AtomicReference[Long](timeoutMs * 1000000L)
    val worker = new Thread(() => {
      sc.setJobGroup(group, label, interruptOnCancel = true)
      tracer.beginOp(group)
      val t0 = System.nanoTime()
      // Not `Try`: an interrupt from cancellation must end up in the
      // outcome, not escape the worker thread.
      val r = try Success(tracer.span("op")(body)) catch { case e: Throwable => Failure(e) }
      elapsed.set(System.nanoTime() - t0)
      outcome.set(r)
    }, s"perfbench-$group")
    worker.setDaemon(true)
    worker.start()
    worker.join(timeoutMs)
    if (worker.isAlive) cancel(group, worker)
    OpResult(group, outcome.get, elapsed.get, meter.take(group))
  }

  /** Jobs of `group` that Spark still reports as running. */
  def activeJobs(group: String): Seq[Int] =
    sc.statusTracker.getJobIdsForGroup(group).toSeq
      .filter(id => sc.statusTracker.getJobInfo(id).exists(_.status == JobExecutionStatus.RUNNING))

  private def cancel(group: String, worker: Thread): Unit = {
    sc.cancelJobGroupAndFutureJobs(group, "benchmark operation timed out")
    worker.interrupt()
    val deadline = System.nanoTime() + OpRunner.CancelGraceMs * 1000000L
    worker.join(OpRunner.CancelGraceMs)
    while (activeJobs(group).nonEmpty && System.nanoTime() < deadline) Thread.sleep(20)
    if (worker.isAlive || activeJobs(group).nonEmpty)
      throw new IllegalStateException(s"$group is still running after cancellation")
  }
}

object OpRunner {
  /** How long a cancelled operation may take to stop. */
  val CancelGraceMs = 30000L
}
