package repro.perfbench

import scala.collection.mutable
import scala.util.Try
import org.apache.spark.sql.{DataFrame, Observation, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{Coalesce, Expression, Or}
import org.apache.spark.sql.catalyst.plans.logical.{Filter, Union}
import repro.bench.Harness
import repro.core.{LocalEval, SparkValues}
import repro.core.NRC.Expr
import repro.core.exec.{Routes, SparkExecutor}
import repro.core.plan.Plan
import repro.shred.{ShredPipeline, Shredder, Unshredder}
import repro.skew.{SkewConfig, SkewOps}

/** A forced output, and the observation of its fingerprint on gated passes. */
final case class Forced(df: DataFrame, observation: Option[Observation])

/** A shredded output: the shredded query and the catalog extended with
  * every materialized assignment.
  */
final case class Shredded(query: Shredder.ShreddedQuery, catalog: Map[String, DataFrame])

/** One timed operation as recorded in a pass. */
final case class OpRecord(query: String, strategy: String, ok: Boolean, ns: Long,
                          stats: GroupStats, error: Option[String])

/** What one pass over a workload's query set recorded. */
final class PassRecord(val traced: Boolean) {
  val ops = mutable.ArrayBuffer.empty[OpRecord]
  val counts = mutable.Map.empty[String, Double].withDefaultValue(0.0)
  var spans: Seq[Span] = Nil
  var peakCachedBytes = 0L
  var leakedRdds = 0
  def totalNs: Long = ops.map(_.ns).sum
}

/** DataFrames cached inside one scope; `release` unpersists all of them. */
final class CacheScope {
  private val held = mutable.ArrayBuffer.empty[DataFrame]
  /** Rows materialized in this scope so far. */
  @volatile var rows = 0L

  /** Persist and materialize; returns the cached frame and its row count. */
  def materialize(df: DataFrame): (DataFrame, Long) = {
    val p = df.persist()
    held.synchronized { held += p }
    val n = p.count()
    rows += n
    (p, n)
  }

  def release(): Unit = held.synchronized {
    held.foreach(_.unpersist(blocking = true))
    held.clear()
  }
}

/** The benchmark's calls into the program's drivers, each wrapped in a
  * span, plus the output gate.
  *
  * The gate never runs inside a timed action. Materialized (shredded)
  * outputs are fingerprinted from the cache after every operation. Forced
  * outputs are fingerprinted only on gated passes, whose times are not
  * reported, by observing the forcing action (see [[Fingerprint]]). Each
  * strategy's fingerprint must equal the first one recorded for the same
  * query: the standard route's (which runs first) for nested outputs, the
  * plain shredded route's for each shredded assignment. On the reduced-size
  * instance the standard route's output is also collected and compared,
  * with `LocalEval.canon`, against the `LocalEval` interpreter. A mismatch
  * is a failed operation.
  */
final class Bench(val spark: SparkSession, runner: OpRunner, val tracer: Tracer) {
  import Bench._

  var pass = new PassRecord(traced = false)
  /** Set on the reduced-size instance, which is checked against `LocalEval`. */
  var localReference = false
  /** Set on passes whose times are not reported: their forced outputs are
    * fingerprinted by the forcing action.
    */
  var gating = false
  /** Strategies this pass runs; `op` skips the others. */
  var runs: String => Boolean = _ => true
  val mismatches = mutable.ArrayBuffer.empty[String]
  var checkNs = 0L
  private val fingerprints = mutable.Map.empty[String, Fingerprint]
  private val localCanon = mutable.Map.empty[String, String]
  private val localInputs = mutable.Map.empty[String, LocalEval.Bag]

  def span[T](name: String)(body: => T): T = tracer.span(name)(body)
  def count(name: String, n: Double): Unit = pass.counts.synchronized { pass.counts(name) += n }

  /** Time one operation; `None` when it failed, timed out or was skipped. */
  def op[T](query: String, strategy: String)(body: => T): Option[T] =
    if (!runs(strategy)) None
    else {
      val r = runner.run(s"$query/$strategy")(body)
      val err = r.value.failed.toOption.map(e => s"${e.getClass.getSimpleName}: ${e.getMessage}")
      pass.ops += OpRecord(query, strategy, r.ok, r.ns, r.stats, err)
      err.foreach(e => Console.err.println(s"[perfbench] FAILED $query/$strategy: ${e.take(300)}"))
      pass.peakCachedBytes = math.max(pass.peakCachedBytes, cachedBytes(spark))
      r.value.toOption
    }

  /** Run `body` with a cache scope that is released even when it throws. */
  def scoped[T](body: CacheScope => T): T = {
    val s = new CacheScope
    try body(s) finally s.release()
  }

  // ---------------------------------------------------------------- gate

  /** Forget every reference (a new instance of the workload's inputs). */
  def resetReferences(): Unit = { fingerprints.clear(); localCanon.clear(); localInputs.clear() }

  /** On the reduced-size instance, evaluate `q` with `LocalEval` over the
    * catalog's unshredded inputs: the standard route's output must match it.
    */
  def reference(query: String, q: Expr, catalog: Map[String, DataFrame]): Unit =
    if (localReference) timedCheck {
      val inputs = catalog.collect {
        case (n, df) if !n.contains("__") => n -> localInputs.getOrElseUpdate(n, SparkValues.toBag(df))
      }
      localCanon(query) = LocalEval.canon(LocalEval.evalBag(q, LocalEval.Env(Map.empty[String, Any], inputs)))
    }

  /** Gate one strategy's output: its fingerprint must equal the first one
    * recorded for the query, and on the reduced-size instance the standard
    * route's output must equal `LocalEval`'s.
    */
  def check(query: String, strategy: String, out: Option[Forced]): Unit =
    out.foreach { f =>
      timedCheck {
        val localOk = !(localReference && strategy == Strategy.Standard) ||
          localCanon.get(query).forall(_ == LocalEval.canon(SparkValues.toBag(f.df)))
        if (!localOk) mismatch(query, strategy, "differs from LocalEval")
        f.observation.foreach(obs => compare(query, strategy, Fingerprint.read(obs)))
      }
    }

  /** Gate a shredded output: each materialized assignment's fingerprint,
    * read from the cache, must equal the first one recorded for that
    * assignment of the query.
    */
  def checkShredded(query: String, strategy: String, out: Option[Shredded]): Unit =
    out.foreach(s => timedCheck {
      val names = s.query.assignments.map(_.name)
      names.zip(Fingerprint.of(names.map(s.catalog))).foreach { case (a, fp) =>
        compare(s"$query $a", strategy, fp)
      }
    })

  private def compare(key: String, strategy: String, got: Fingerprint): Unit = {
    val want = fingerprints.getOrElseUpdate(key, got)
    if (!got.matches(want)) mismatch(key, strategy, s"$got, reference $want")
  }

  private def mismatch(key: String, strategy: String, why: String): Unit = {
    mismatches += s"$key/$strategy"
    Console.err.println(s"[perfbench] MISMATCH $key/$strategy: $why")
  }

  private def timedCheck(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    try body finally checkNs += System.nanoTime() - t0
  }

  // ------------------------------------------------- calls into the layers

  /** Force every column of `df` with the program's own action
    * (`Harness.force`; a count would let Catalyst prune the nested columns
    * under test). On gated passes the action also observes the fingerprint.
    */
  def force(df: DataFrame): Forced = span("spark.run") {
    if (gating) {
      val (observed, obs) = Fingerprint.observe(df)
      Harness.force(observed)
      Forced(df, Some(obs))
    } else {
      Harness.force(df)
      Forced(df, None)
    }
  }

  /** `optimize`, wrapped to record the drivers' unnesting (everything a
    * driver does before it calls `optimize`) and the optimizer's time.
    */
  private def spanned(optimize: Plan => Plan): Plan => Plan = plan => {
    tracer.lead("plan.unnest")
    val opt = span("plan.optimize")(optimize(plan))
    count("plan.ops", opt.size)
    opt
  }

  /** The standard route, `Routes.standard`. The span's self time is the
    * DataFrame build (`SparkExecutor.execute`).
    */
  def standard(catalog: Map[String, DataFrame], q: Expr, optimize: Plan => Plan,
               join: SparkExecutor.JoinImpl): DataFrame =
    span("exec.build")(Routes.standard(q, catalog, spanned(optimize), join))

  /** The shredded route as the paper measures it (`Fig7.runShred`): shred,
    * then run each assignment with `ShredPipeline` and materialize it,
    * threading it into the catalog.
    */
  def shred(catalog: Map[String, DataFrame], name: String, q: Expr, optimize: Plan => Plan,
            join: SparkExecutor.JoinImpl, scope: CacheScope): Shredded = {
    val sq = span("shred.shred")(Shredder.shred(name, q))
    count("shred.assignments", sq.assignments.size)
    val pipe = new ShredPipeline(spanned(optimize), join)
    val cat = sq.assignments.foldLeft(catalog) { (cat, a) =>
      val df = span("exec.build")(pipe.run(sq.copy(assignments = Seq(a)), cat)(a.name))
      val (cached, rows) = span("shred.materialize")(scope.materialize(df))
      count("shred.dict_rows", rows)
      cat + (a.name -> cached)
    }
    Shredded(sq, cat)
  }

  def unshred(s: Shredded): DataFrame =
    span("shred.unshred_build")(Unshredder.unshred(s.query.name, s.query.outTpe, s.catalog))

  /** `SkewOps.skewJoin`, wrapped to time each call (its heavy-key sampling
    * runs eagerly, before any action) and to count the joins it split.
    */
  def skewJoin(cfg: SkewConfig = SkewConfig()): SparkExecutor.JoinImpl = {
    val inner = SkewOps.skewJoin(cfg)
    (l, r, lk, rk, outer) => {
      val out = span("skew.sample")(inner(l, r, lk, rk, outer))
      val heavy = heavyKeysOf(out)
      count("skew.joins", 1)
      if (heavy > 0) { count("skew.split_joins", 1); count("skew.heavy_keys", heavy) }
      out
    }
  }
}

object Bench {

  /** Heavy keys a skew-aware join split on, read off its plan: a split join
    * is a union whose heavy branch filters on one disjunct per heavy key.
    */
  def heavyKeysOf(df: DataFrame): Int = df.queryExecution.logical match {
    case u: Union =>
      u.children.last.collectFirst { case f: Filter => disjuncts(f.condition) }.getOrElse(0)
    case _ => 0
  }

  private def disjuncts(e: Expression): Int = e match {
    case Or(a, b)      => disjuncts(a) + disjuncts(b)
    case c: Coalesce   => disjuncts(c.children.head)
    case _             => 1
  }

  /** Bytes the block managers hold for cached data. */
  def cachedBytes(spark: SparkSession): Long =
    Try(spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum).getOrElse(0L)
}
