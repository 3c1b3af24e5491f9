package repro.perfbench

/** The timer's own test (`python3 perfbench/run.py --selftest`).
  *
  * 1. An operation's jobs are credited to its job group.
  * 2. A timed-out operation is cancelled: when the runner returns, no job
  *    of its group is active.
  * 3. The timed-out operation's shuffle is not credited to the next
  *    operation: an identical small shuffle reads the same bytes and jobs
  *    whether or not it follows the cancelled one.
  *
  * Exits with a non-zero code on the first failed check.
  */
object SelfTest {

  def main(args: Array[String]): Unit = {
    val spark = Main.session()
    try {
      val sc = spark.sparkContext
      val meter = new SparkMeter(spark)
      val runner = new OpRunner(spark, meter, new Tracer(sc), timeoutMs = 3000)
      def check(ok: Boolean, what: String): Unit =
        if (ok) println(s"ok   $what") else { println(s"FAIL $what"); sys.exit(1) }

      def smallShuffle(): Long =
        sc.parallelize(1 to 20000, 4).map(i => (i % 97, i.toLong)).reduceByKey(_ + _).count()

      val alone = runner.run("small shuffle")(smallShuffle())
      check(alone.ok && alone.stats.jobs == 1 && alone.stats.shuffleWriteBytes > 0,
        s"jobs credited to their group (${alone.stats.jobs} job, ${alone.stats.shuffleWriteBytes} B shuffled)")

      // Shuffles, then stalls in its result stage far beyond the timeout.
      val stuck = runner.run("stalled shuffle") {
        sc.parallelize(1 to 200000, 8).map(i => (i % 1000, i.toLong)).reduceByKey(_ + _)
          .mapPartitions { it => Thread.sleep(120000); it }.count()
      }
      check(!stuck.ok, "a stalled operation times out")
      check(runner.activeJobs(stuck.group).isEmpty, s"cancelling ${stuck.group} leaves no active job")
      check(stuck.stats.shuffleWriteBytes > 0, "the cancelled operation's shuffle is credited to it")

      val next = runner.run("small shuffle again")(smallShuffle())
      check(next.ok && next.stats.jobs == alone.stats.jobs &&
        next.stats.shuffleWriteBytes == alone.stats.shuffleWriteBytes &&
        next.stats.stages == alone.stats.stages,
        s"the next operation is credited only with its own work " +
          s"(${next.stats.shuffleWriteBytes} B, ${next.stats.stages} stages)")
      println("selftest passed")
    } finally spark.stop()
  }
}
