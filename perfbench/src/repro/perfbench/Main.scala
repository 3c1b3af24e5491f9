package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** Benchmark entry point (normally launched by `perfbench/run.py`).
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <file>
  *      [--git-sha <sha>] [--source-digest <hex>] [--sf <scale factor>]
  * }}}
  *
  * One run: check the standard route on a reduced-size instance against
  * `LocalEval`; set the inputs up `SetupRepeats` times (median =
  * `setup_s`); run one gated warm-up pass, whose time is not reported and
  * whose every output is gated against the standard route's (see
  * [[Bench]]); then time passes over the query set for `--seconds`, gating
  * their shredded outputs. Untraced runs report the end-to-end metrics;
  * traced runs pair untraced and traced passes (untraced–traced, then
  * traced–untraced) and report the per-layer metrics. `--sf` overrides the
  * workload's scale factor, for probing how times scale with data size.
  * Standard output ends with the run record (settings, versions, seed,
  * git sha) and, last, the result object; `--out` gets the full record
  * (run record, every pass, every span).
  */
object Main {
  import Strategy._

  /** Set-ups per run (their median is `setup_s`) and timed passes per run
    * at least (pairs in a traced run): what fits the benchmark's time budget
    * of about a minute per run.
    */
  val SetupRepeats = 2
  val MinPasses = 1
  val OpTimeoutMs = 60000L
  /** Seed kept out of all tuning, for confirming later claims. */
  val HeldOutSeed = 7919L

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = Workloads(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val sf = opts.get("sf").map(_.toDouble).getOrElse(workload.sf)

    val spark = session()
    try {
      val versions = Map(
        "git_sha" -> opts.getOrElse("git-sha", "unknown"),
        "source_digest" -> opts.getOrElse("source-digest", "unknown"))
      val (result, record) = run(spark, workload, sf, seed, seconds, trace, versions)
      opts.get("out").foreach(p => Files.write(Paths.get(p), Json(record).getBytes(StandardCharsets.UTF_8)))
      println(Json(ListMap("run_record" -> record("run"))))
      println(Json(result))
    } finally spark.stop()
  }

  /** `local[nproc]` with the settings of the repository's test and job
    * sessions (SparkSpec, JobSession); AQE stays at Spark's default and is
    * recorded, not set.
    */
  def session(): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def run(spark: SparkSession, w: Workload, sf: Double, seed: Long, seconds: Double, trace: Boolean,
          versions: Map[String, Any]): (Map[String, Any], ListMap[String, Any]) = {
    val sc = spark.sparkContext
    val meter = new SparkMeter(spark)
    val tracer = new Tracer(sc)
    val b = new Bench(spark, new OpRunner(spark, meter, tracer, OpTimeoutMs), tracer)

    // Independent reference: the standard route on the reduced-size
    // instance against LocalEval. The other strategies are gated against
    // the standard route in the warm-up pass; running them here too would
    // cost almost as much as a pass, since Spark's per-job cost dominates.
    val r0 = System.nanoTime()
    var refSetupS = 0.0
    val reference = b.scoped { scope =>
      val pass = w.setup(b, w.refSf, seed, scope)
      refSetupS = (System.nanoTime() - r0) / 1e9
      b.localReference = true
      b.runs = Set(Standard)
      b.pass = new PassRecord(traced = false)
      pass(b)
      b.pass
    }
    b.resetReferences()
    b.localReference = false
    Console.err.println(f"[perfbench] reference check took ${(System.nanoTime() - r0) / 1e9}%.1f s " +
      f"(set-up $refSetupS%.1f s, LocalEval and gate ${b.checkNs / 1e9}%.1f s)")

    // Set-up, repeated; the last one's inputs stay cached for the passes.
    val inputs = new CacheScope
    var passFn: Bench => Unit = null
    val setupS = (1 to SetupRepeats).map { i =>
      if (i > 1) inputs.release()
      inputs.rows = 0
      val t0 = System.nanoTime()
      passFn = w.setup(b, sf, seed, inputs)
      (System.nanoTime() - t0) / 1e9
    }
    Console.err.println(s"[perfbench] set-ups took ${setupS.map(t => f"$t%.1f").mkString(", ")} s")
    val inputBytes = Bench.cachedBytes(spark)
    val inputRdds = sc.getPersistentRDDs.keySet

    def runPass(traced: Boolean): PassRecord = {
      tracer.enabled = traced
      b.pass = new PassRecord(traced)
      try passFn(b)
      finally {
        tracer.enabled = false
        b.pass.spans = tracer.drain()
        b.pass.leakedRdds = (sc.getPersistentRDDs.keySet -- inputRdds).size
      }
      b.pass
    }

    try {
      // The SparkSQL baseline is only a per-layer metric, so untraced runs
      // leave it out. The warm-up pass gates every output; its time is not
      // reported.
      b.runs = s => s != SparkSQL || trace
      b.gating = true
      val w0 = System.nanoTime()
      val c0 = b.checkNs
      val warmUp = runPass(traced = false)
      b.gating = false
      Console.err.println(f"[perfbench] warm-up pass took ${(System.nanoTime() - w0) / 1e9}%.1f s " +
        f"(gate ${(b.checkNs - c0) / 1e9}%.1f s)")

      // Timed passes: at least `MinPasses`, then more until `seconds` would
      // be overrun by more than half a step as long as the last. A traced
      // run adds them in pairs of one untraced and one traced pass,
      // alternating which comes first (U T T U U T ...), so that each
      // traced pass has an untraced partner of the same warmth.
      val step = if (trace) 2 else 1
      def tracedAt(i: Int) = trace && (i % 4 == 1 || i % 4 == 2)
      val passes = mutable.ArrayBuffer.empty[PassRecord]
      val t0 = System.nanoTime()
      var lastS = 0.0
      while (passes.size < MinPasses * step || (System.nanoTime() - t0) / 1e9 + lastS / 2 <= seconds) {
        val p0 = System.nanoTime()
        val c0 = b.checkNs
        for (_ <- 1 to step) passes += runPass(traced = tracedAt(passes.size))
        lastS = (System.nanoTime() - p0) / 1e9
        Console.err.println(f"[perfbench] timed passes ${passes.size} took $lastS%.1f s " +
          f"(gate ${(b.checkNs - c0) / 1e9}%.1f s)")
      }

      val metrics = new Metrics(passes.toSeq, Seq(reference, warmUp), b, setupS, inputs.rows, inputBytes,
        Runtime.getRuntime.availableProcessors)
      val result = ListMap(
        "correct" -> metrics.correct,
        "attempted" -> metrics.attempted,
        "failed" -> metrics.failed,
        "metrics" -> ListMap((if (trace) metrics.perLayer else metrics.endToEnd).map { case (k, (v, u)) =>
          k -> ListMap("value" -> v, "unit" -> u)
        }: _*))
      val record = ListMap(
        "run" -> (runRecord(spark, w, sf, seed, seconds, trace) ++ versions),
        "result" -> result,
        "samples" -> metrics.samples,
        "mismatches" -> b.mismatches.toSeq,
        "passes" -> (Seq(reference, warmUp).map(passJson(_, timed = false)) ++
          passes.toSeq.map(passJson(_, timed = true))))
      (result, record)
    } finally inputs.release()
  }

  def runRecord(spark: SparkSession, w: Workload, sf: Double, seed: Long, seconds: Double,
                trace: Boolean): Map[String, Any] = {
    def conf(k: String) = spark.conf.getOption(k).getOrElse("unset")
    Map(
      "workload" -> w.name, "sf" -> sf, "ref_sf" -> w.refSf, "seed" -> seed,
      "heldout_seed" -> HeldOutSeed, "seconds" -> seconds, "trace" -> trace,
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "master" -> spark.sparkContext.master,
      "spark_version" -> spark.version,
      "jdk" -> s"${sys.props("java.vendor")} ${sys.props("java.version")}",
      "shuffle_partitions" -> conf("spark.sql.shuffle.partitions"),
      "aqe_enabled" -> conf("spark.sql.adaptive.enabled"),
      "aqe_skew_join_enabled" -> conf("spark.sql.adaptive.skewJoin.enabled"),
      "broadcast_threshold" -> conf("spark.sql.autoBroadcastJoinThreshold"),
      "setup_repeats" -> SetupRepeats, "op_timeout_ms" -> OpTimeoutMs,
      "load" -> "closed loop, one client, one operation in flight")
  }

  private def passJson(p: PassRecord, timed: Boolean): Map[String, Any] = Map(
    "timed" -> timed, "traced" -> p.traced, "total_s" -> p.totalNs / 1e9,
    "peak_cached_mb" -> p.peakCachedBytes / 1e6, "leaked_rdds" -> p.leakedRdds,
    "counts" -> p.counts.toMap,
    "ops" -> p.ops.map(o => Map(
      "query" -> o.query, "strategy" -> o.strategy, "ok" -> o.ok, "s" -> o.ns / 1e9,
      "error" -> o.error.orNull, "jobs" -> o.stats.jobs, "stages" -> o.stats.stages,
      "tasks" -> o.stats.tasks, "task_ms" -> o.stats.taskMs, "job_wall_ms" -> o.stats.jobWallMs,
      "shuffle_write_mb" -> o.stats.shuffleWriteBytes / 1e6)),
    "spans" -> p.spans.map(s => Map("id" -> s.id, "parent" -> s.parent, "op" -> s.op,
      "name" -> s.name, "start_ns" -> s.startNs, "end_ns" -> s.endNs)))
}

/** Metrics of one run, from its timed passes and its passes whose time is
  * not reported (the reference check and the warm-up pass).
  */
final class Metrics(passes: Seq[PassRecord], unreported: Seq[PassRecord], b: Bench,
                    setupS: Seq[Double], inputRows: Long, inputBytes: Long, nproc: Int) {
  import Strategy._
  import Metrics._

  private val allOps = (unreported ++ passes).flatMap(_.ops)
  val attempted: Int = allOps.size
  val failed: Int = allOps.count(!_.ok) + b.mismatches.size
  private val leaked = (unreported ++ passes).map(_.leakedRdds).max
  /** Every output was gated: no mismatch, and no operation of the gated
    * passes failed (a failed timed operation only counts as failed).
    */
  val correct: Boolean = b.mismatches.isEmpty && unreported.forall(_.ops.forall(_.ok)) && leaked == 0

  private def byStrategy(p: PassRecord, s: String) = p.ops.filter(_.strategy == s)
  private def timeS(p: PassRecord, s: String) = byStrategy(p, s).map(_.ns).sum / 1e9
  private def shuffleMb(p: PassRecord, s: String) = byStrategy(p, s).map(_.stats.shuffleWriteBytes).sum / 1e6
  private val reported = Seq(Standard, Shred, Unshred, StandardSkew, ShredSkew)
  private val untraced = passes.filterNot(_.traced)
  private val traced = passes.filter(_.traced)

  def endToEnd: Seq[(String, (Double, String))] =
    reported.flatMap { s =>
      val k = s.toLowerCase
      Seq(s"${k}_s" -> (median(untraced.map(timeS(_, s))), "s"),
        s"${k}_shuffle_mb" -> (median(untraced.map(shuffleMb(_, s))), "MB"))
    } ++ Seq(
      "cached_mb" -> (passes.map(_.peakCachedBytes).max / 1e6, "MB"),
      "ok_frac" -> ((attempted - failed).toDouble / attempted, "ratio"),
      "setup_s" -> (median(setupS), "s"))

  /** Sample count beside every timing; a percentile above the median needs
    * ten samples beyond it, which a run's passes do not reach.
    */
  def samples: Map[String, Any] = Map(
    "warm_up_passes" -> 1, "timed_passes" -> passes.size, "untraced_passes" -> untraced.size,
    "traced_passes" -> traced.size, "setup_repeats" -> setupS.size,
    "highest_supported_percentile" -> (if (untraced.size >= 20) 100 * (untraced.size - 10) / untraced.size else 50),
    "per_pass_s" -> reported.map(s => s -> untraced.map(timeS(_, s))).toMap,
    "setup_s" -> setupS)

  def perLayer: Seq[(String, (Double, String))] = {
    def med(f: PassRecord => Double) = median(traced.map(f))
    def self(p: PassRecord) = Tracer.selfNs(p.spans)
    // Traced minus untraced time of each (untraced, traced) pair of passes.
    val overheads = passes.grouped(2).collect { case Seq(x, y) =>
      (if (x.traced) x.totalNs - y.totalNs else y.totalNs - x.totalNs) / 1e9
    }.toSeq
    def selfMs(name: String)(p: PassRecord) = self(p).getOrElse(name, 0L) / 1e6
    def cnt(name: String)(p: PassRecord) = p.counts(name)
    def stat(f: GroupStats => Double)(p: PassRecord) = p.ops.map(o => f(o.stats)).sum
    def eager(p: PassRecord) = p.ops.map(o =>
      o.stats.jobsBySpan.collect { case (s, n) if EagerSpans(s) => n }.sum).sum.toDouble
    def taskSkew(p: PassRecord) = {
      val stages = p.ops.flatMap(_.stats.stageTaskMs.values).filter(_.nonEmpty)
      if (stages.isEmpty) 0.0
      else {
        val slowest = stages.maxBy(_.max)
        slowest.max / math.max(1.0, median(slowest.map(_.toDouble).toSeq))
      }
    }
    val layers = Seq(
      "data.gen_s" -> (median(setupS), "s"),
      "data.input_rows" -> (inputRows.toDouble, "count"),
      "data.input_cached_mb" -> (inputBytes / 1e6, "MB"),
      "shred.shred_ms" -> (med(selfMs("shred.shred")), "ms"),
      "shred.assignments" -> (med(cnt("shred.assignments")), "count"),
      "plan.unnest_ms" -> (med(selfMs("plan.unnest")), "ms"),
      "plan.optimize_ms" -> (med(selfMs("plan.optimize")), "ms"),
      "plan.ops" -> (med(cnt("plan.ops")), "count"),
      "exec.build_ms" -> (med(selfMs("exec.build")), "ms"),
      "exec.eager_jobs" -> (med(eager), "count"),
      "skew.sample_ms" -> (med(selfMs("skew.sample")), "ms"),
      "skew.joins" -> (med(cnt("skew.joins")), "count"),
      "skew.split_joins" -> (med(cnt("skew.split_joins")), "count"),
      "skew.split_ratio" -> (med(p => if (p.counts("skew.joins") == 0) 0.0
                                     else p.counts("skew.split_joins") / p.counts("skew.joins")), "ratio"),
      "skew.heavy_keys" -> (med(cnt("skew.heavy_keys")), "count"),
      "spark.plan_ms" -> (med(stat(_.planMs.toDouble)), "ms"),
      "spark.run_ms" -> (med(selfMs("spark.run")), "ms"),
      "spark.exec_ms" -> (med(stat(_.jobWallMs.toDouble)), "ms"),
      "spark.task_ms" -> (med(stat(_.taskMs.toDouble)), "ms"),
      "spark.gc_ms" -> (med(stat(_.gcMs.toDouble)), "ms"),
      "spark.shuffle_read_mb" -> (med(stat(_.shuffleReadBytes / 1e6)), "MB"),
      "spark.spill_mb" -> (med(stat(_.spillBytes / 1e6)), "MB"),
      "spark.task_skew" -> (med(taskSkew), "ratio"),
      "shred.materialize_ms" -> (med(selfMs("shred.materialize")), "ms"),
      "shred.dict_rows" -> (med(cnt("shred.dict_rows")), "count"),
      "shred.dict_cached_mb" -> (med(p => (p.peakCachedBytes - inputBytes) / 1e6), "MB"),
      "shred.unshred_build_ms" -> (med(selfMs("shred.unshred_build")), "ms"),
      "baseline.sparksql_s" -> (median(untraced.map(timeS(_, SparkSQL))), "s"),
      "baseline.sparksql_shuffle_mb" -> (median(untraced.map(shuffleMb(_, SparkSQL))), "MB"),
      "bench.check_s" -> (b.checkNs / 1e9, "s"),
      "bench.trace_overhead_s" -> (median(overheads), "s"),
      "bench.untraced_s" -> (median(untraced.map(_.totalNs / 1e9)), "s"),
      "bench.layer_self_s" -> (med(p => (self(p) - "op").values.sum / 1e9), "s"),
      "bench.unattributed_s" -> (med(p => self(p).getOrElse("op", 0L) / 1e9), "s"),
      "bench.leaked_rdds" -> (leaked.toDouble, "count"),
      "bench.failed_frac" -> (failed.toDouble / attempted, "ratio"))
    val perStrategy = Strategy.all.flatMap { s =>
      val k = s.toLowerCase
      def of(f: GroupStats => Double)(p: PassRecord) = byStrategy(p, s).map(o => f(o.stats)).sum
      Seq(s"spark.jobs.$k" -> (med(of(_.jobs.toDouble)), "count"),
        s"spark.stages.$k" -> (med(of(_.stages.toDouble)), "count"),
        s"spark.tasks.$k" -> (med(of(_.tasks.toDouble)), "count"),
        s"spark.busy_frac.$k" -> (median(untraced.map(p =>
          of(_.taskMs.toDouble)(p) / math.max(1.0, timeS(p, s) * 1000 * nproc))), "ratio"))
    }
    layers ++ perStrategy
  }
}

object Metrics {
  /** Spans that run before any action: jobs started inside them are eager. */
  val EagerSpans = Set("plan.unnest", "plan.optimize", "exec.build", "skew.sample",
    "shred.shred", "shred.unshred_build", "baseline.build")

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}

/** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
object Json {
  def apply(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float => apply(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case m: Map[_, _] => m.map { case (k, x) => quote(k.toString) + ":" + apply(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(apply).mkString("[", ",", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
    sb.toString
  }
}
