package repro.skew

import scala.collection.mutable
import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.exec.SparkExecutor

/** Skew-resilient processing (§5, Fig. 6).
  *
  * A relation is split by sampled *heavy keys* into a light component
  * (shuffled/partitioned as usual) and a heavy component (kept in place,
  * joined by broadcasting the matching tuples of the other side).
  */
final case class SkewConfig(
    /** Share of the sampled tuples a key must reach to be heavy (paper: 2.5%),
      * both within the partition that reports it and in the whole sample.
      * A partition reports at most `1 / threshold` keys (40 at 2.5%).
      */
    threshold: Double = 0.025,
    /** Bernoulli sampling fraction used for heavy-key detection (paper: 10%). */
    sampleFraction: Double = 0.1,
    /** Upper bound on the number of heavy keys returned, the most frequent first. */
    maxHeavyKeys: Int = 64,
    /** Seed of the sample. */
    seed: Long = 42)

/** A bag split by heavy keys: the paper's skew-triple. */
final case class SkewTriple(light: DataFrame, heavy: DataFrame, heavyKeys: Seq[Seq[Any]])

object SkewOps {

  /** Detect heavy key values of `keys` in `df` by sampling, in one map-only
    * Spark job. Each partition counts its own sampled keys and reports its
    * sample size with the keys that reach `threshold` of it; the driver sums
    * the reports and keeps the keys whose sum reaches `threshold` of the
    * whole sample. A key heavy in the whole sample is heavy in at least one
    * partition, but the sum counts only the partitions that reported it, so
    * the result is a subset of the keys an exact global count would find.
    * NULL keys come from outer-padding rows; they never match a join
    * partner (and `===` cannot select them), so they are never reported.
    */
  def heavyKeys(df: DataFrame, keys: Seq[String], cfg: SkewConfig = SkewConfig()): Seq[Seq[Any]] = {
    val threshold = cfg.threshold
    val reports = df.select(keys.map(col): _*)
      .sample(withReplacement = false, cfg.sampleFraction, cfg.seed)
      .rdd
      .mapPartitions(rows => Iterator.single(partitionCandidates(rows, threshold)))
      .collect()
    val cutoff = math.max(1L, (threshold * reports.map(_._1).sum).toLong)
    reports.toSeq.flatMap(_._2)
      .groupMapReduce(_._1)(_._2)(_ + _)
      .filter(_._2 >= cutoff)
      .toSeq.sortBy(-_._2)
      .take(cfg.maxHeavyKeys)
      .map(_._1)
  }

  /** A partition's sample size and the non-NULL keys that reach `threshold`
    * of it, with their counts.
    */
  private def partitionCandidates(rows: Iterator[Row], threshold: Double)
      : (Long, List[(Seq[Any], Long)]) = {
    val counts = mutable.HashMap.empty[Seq[Any], Long]
    var n = 0L
    rows.foreach { r =>
      n += 1
      if (!r.anyNull) {
        val k = r.toSeq
        counts.update(k, counts.getOrElse(k, 0L) + 1)
      }
    }
    (n, counts.iterator.filter(_._2 >= threshold * n).toList)
  }

  private def keyMatch(keys: Seq[String], hk: Seq[Seq[Any]]): Column =
    hk.map(t => keys.zip(t).map { case (k, v) => col(k) === lit(v) }.reduce(_ && _))
      .reduce(_ || _)

  /** Split a bag into its skew-triple given heavy keys. */
  def split(df: DataFrame, keys: Seq[String], hk: Seq[Seq[Any]]): SkewTriple =
    if (hk.isEmpty) SkewTriple(df, df.limit(0), Seq.empty)
    else {
      // coalesce: a NULL key compares as NULL — such rows belong to the
      // light component (outer padding must survive the split).
      val m = coalesce(keyMatch(keys, hk), lit(false))
      SkewTriple(df.filter(!m), df.filter(m), hk)
    }

  /** Skew-aware join (Fig. 6): the light components shuffle-join; the heavy
    * component of the (larger) left side stays in place and the matching
    * right tuples are broadcast to it.
    */
  def skewJoin(cfg: SkewConfig = SkewConfig()): SparkExecutor.JoinImpl =
    (l, r, lk, rk, leftOuter) => {
      if (lk.isEmpty) SparkExecutor.defaultJoin(l, r, lk, rk, leftOuter)
      else {
        val hk = heavyKeys(l, lk, cfg)
        if (hk.isEmpty) SparkExecutor.defaultJoin(l, r, lk, rk, leftOuter)
        else {
          val lt = split(l, lk, hk)
          val rt = split(r, rk, hk)
          val light = SparkExecutor.defaultJoin(lt.light, rt.light, lk, rk, leftOuter)
          val cond  = lk.zip(rk).map { case (a, b) => lt.heavy(a) === rt.heavy(b) }.reduce(_ && _)
          val heavy = lt.heavy.join(broadcast(rt.heavy), cond,
            if (leftOuter) "left_outer" else "inner")
          light.unionByName(heavy)
        }
      }
    }

  /** Skew-aware BagToDict (Fig. 6): repartition only the light labels; heavy
    * labels keep their current distribution.
    */
  def bagToDict(df: DataFrame, labelCol: String = repro.shred.ShredTypes.LabelCol,
                cfg: SkewConfig = SkewConfig()): SkewTriple = {
    val hk = heavyKeys(df, Seq(labelCol), cfg)
    val t  = split(df, Seq(labelCol), hk)
    t.copy(light = t.light.repartition(col(labelCol)))
  }
}
