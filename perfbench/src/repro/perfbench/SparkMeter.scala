package repro.perfbench

import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** Spark work of one job group, split by the benchmark span that was open
  * when each job started.
  */
final class GroupStats {
  var jobs = 0
  var stages = 0
  var tasks = 0L
  var jobWallMs = 0L
  var taskMs = 0L
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  var shuffleReadBytes = 0L
  var spillBytes = 0L
  var planMs = 0L
  /** Task durations of each completed stage (for the task-skew ratio). */
  val stageTaskMs = mutable.Map.empty[Int, mutable.ArrayBuffer[Long]]
  /** Jobs started while each span name was innermost. */
  val jobsBySpan = mutable.Map.empty[String, Int]
}

/** Listens to Spark and credits every job, stage and task to the job group
  * of the operation that submitted it — never to a time window — so work
  * left behind by a cancelled operation cannot inflate the next one.
  *
  * Query planning time (analysis + optimization + planning, from each
  * action's `QueryPlanningTracker`) comes from a `QueryExecutionListener`;
  * those events carry no job group, so they go to the group that was
  * current when the action finished, which is exact in a closed loop once
  * the bus has been drained between operations.
  */
final class SparkMeter(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  import SparkMeter._

  private val groups = mutable.Map.empty[String, GroupStats]
  private val jobGroup = mutable.Map.empty[Int, String]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val stageGroup = mutable.Map.empty[Int, String]
  @volatile var currentGroup: String = "none"

  spark.sparkContext.addSparkListener(this)
  spark.listenerManager.register(this)

  private def stats(g: String): GroupStats = groups.getOrElseUpdate(g, new GroupStats)

  /** Wait for all posted events, then return (and forget) a group's stats. */
  def take(group: String): GroupStats = {
    org.apache.spark.perfbench.ListenerBusDrain(spark.sparkContext)
    synchronized { groups.remove(group).getOrElse(new GroupStats) }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val g = props.flatMap(p => Option(p.getProperty(JobGroupKey))).getOrElse("none")
    val span = props.flatMap(p => Option(p.getProperty(SpanKey))).getOrElse("-")
    jobGroup(e.jobId) = g
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stageGroup(_) = g)
    val s = stats(g)
    s.jobs += 1
    s.jobsBySpan(span) = s.jobsBySpan.getOrElse(span, 0) + 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for (g <- jobGroup.remove(e.jobId); t0 <- jobStart.remove(e.jobId))
      stats(g).jobWallMs += e.time - t0
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageGroup.get(e.stageId).foreach { g =>
      val s = stats(g)
      s.stageTaskMs.getOrElseUpdate(e.stageId, mutable.ArrayBuffer.empty) += e.taskInfo.duration
      Option(e.taskMetrics).foreach { m =>
        s.taskMs += m.executorRunTime
        s.gcMs += m.jvmGCTime
      }
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageGroup.remove(info.stageId).foreach { g =>
      val s = stats(g)
      s.stages += 1
      s.tasks += info.numTasks
      Option(info.taskMetrics).foreach { m =>
        s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        s.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        s.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
      }
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = {
    val ms = qe.tracker.phases.values.map(_.durationMs).sum
    synchronized { stats(currentGroup).planMs += ms }
  }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
}

object SparkMeter {
  val JobGroupKey = "spark.jobGroup.id"
  /** Local property naming the innermost open span of the submitting thread. */
  val SpanKey = "perfbench.span"
}
