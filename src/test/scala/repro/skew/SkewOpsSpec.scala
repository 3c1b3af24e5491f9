package repro.skew

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.functions.{col, lit, sum}
import org.apache.spark.sql.types.LongType
import repro.{SparkSpec, SynthData, TestData, TestUtil}
import repro.core.exec.SparkExecutor
import repro.core.plan.Unnester
import repro.data.NestedTpch
import repro.queries.TpchQueries

/** Skew-resilient processing tests: heavy-key detection on Zipf, uniform and
  * empty data, its cost in Spark jobs, and result-equivalence of the
  * skew-aware operators (Fig. 6).
  */
class SkewOpsSpec extends SparkSpec {

  private val cfg = SkewConfig(sampleFraction = 0.5)

  test("heavy keys found on Zipf-distributed data") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
    val hk = SkewOps.heavyKeys(df, Seq("k"), cfg)
    assert(hk.nonEmpty, "expected heavy keys under Zipf")
    assert(hk.map(_.head).contains(1L), "rank-1 key must be heavy")
    assert(hk.size <= cfg.maxHeavyKeys)
    // The exact global rule over the same sample: a key is heavy when its
    // count reaches the threshold of the whole sample.
    val counts = df.select("k").sample(withReplacement = false, cfg.sampleFraction, cfg.seed)
      .groupBy("k").count()
    val total = counts.agg(sum("count")).collect()(0).getLong(0)
    val cutoff = math.max(1L, (cfg.threshold * total).toLong)
    val exact = counts.filter(col("count") >= cutoff).collect().map(_.get(0)).toSet
    assert(hk.map(_.head).toSet.subsetOf(exact), s"$hk not within $exact")
  }

  test("no heavy keys on uniform data") {
    val df = SynthData.uniformKeys(spark, rows = 20000, nKeys = 1000)
    assert(SkewOps.heavyKeys(df, Seq("k"), cfg).isEmpty)
    // Small partitions cannot make ordinary keys heavy: ~156 sampled tuples
    // per partition put the per-partition cutoff at 4 occurrences, which
    // some keys reach, but none reaches 2.5% of the whole sample.
    assert(SkewOps.heavyKeys(df.repartition(64), Seq("k"), cfg).isEmpty)
  }

  test("heavy-key detection runs one Spark job and shuffles nothing") {
    val df = SynthData.zipfKeys(spark, rows = 20000, nKeys = 1000, alpha = 1.3)
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val shuffleBytes = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => shuffleBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten))
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val hk = SkewOps.heavyKeys(df, Seq("k"), cfg)
      ListenerBusDrain(sc)
      assert(hk.nonEmpty)
      assert(jobs.get == 1)
      assert(shuffleBytes.get == 0L)
    } finally sc.removeSparkListener(listener)
  }

  test("no heavy keys in an empty sample or an all-NULL key column") {
    val df = SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, alpha = 1.3)
    assert(SkewOps.heavyKeys(df.filter(lit(false)), Seq("k"), cfg).isEmpty)
    assert(SkewOps.heavyKeys(df.limit(3), Seq("k"), SkewConfig(sampleFraction = 0.01)).isEmpty)
    val nulls = df.select(lit(null).cast(LongType).as("k"), col("v"))
    assert(SkewOps.heavyKeys(nulls, Seq("k"), cfg).isEmpty)
  }

  test("skew-aware join with an empty left side equals the plain join") {
    val l = SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, alpha = 1.3).filter(lit(false))
    val r = SynthData.uniformKeys(spark, rows = 300, nKeys = 100, seed = 9)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    for (outer <- Seq(false, true))
      TestUtil.assertBagEq(
        SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), outer),
        SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), outer))
  }

  test("split partitions the bag exactly") {
    val df = SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, alpha = 1.3)
    val t  = SkewOps.split(df, Seq("k"), SkewOps.heavyKeys(df, Seq("k"), cfg))
    assert(t.light.count() + t.heavy.count() == df.count())
    assert(t.light.unionByName(t.heavy).count() == df.count())
    // Heavy component contains only heavy keys, light none of them.
    val hkSet = t.heavyKeys.map(_.head).toSet
    assert(t.heavy.select("k").distinct().collect().forall(r => hkSet(r.get(0))))
    assert(t.light.select("k").distinct().collect().forall(r => !hkSet(r.get(0))))
  }

  test("skew-aware inner join equals the plain join on skewed data") {
    val l = SynthData.zipfKeys(spark, rows = 5000, nKeys = 100, alpha = 1.3)
    val r = SynthData.uniformKeys(spark, rows = 300, nKeys = 100, seed = 9)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    val plain = SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), false)
    val skew  = SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), false)
    TestUtil.assertBagEq(skew, plain)
  }

  test("skew-aware left-outer join equals the plain join (padding preserved)") {
    val l = SynthData.zipfKeys(spark, rows = 5000, nKeys = 200, alpha = 1.3)
    // Right side covers only half the key space → outer padding on the rest.
    val r = SynthData.uniformKeys(spark, rows = 200, nKeys = 100, seed = 5)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    val plain = SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), true)
    val skew  = SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), true)
    TestUtil.assertBagEq(skew, plain)
  }

  test("skew-aware join on uniform data degrades to the plain join") {
    val l = SynthData.uniformKeys(spark, rows = 2000, nKeys = 500)
    val r = SynthData.uniformKeys(spark, rows = 100, nKeys = 500, seed = 7)
      .withColumnRenamed("k", "k2").withColumnRenamed("v", "w")
    TestUtil.assertBagEq(
      SkewOps.skewJoin(cfg)(l, r, Seq("k"), Seq("k2"), false),
      SparkExecutor.defaultJoin(l, r, Seq("k"), Seq("k2"), false))
  }

  test("bagToDict keeps heavy labels unshuffled and all tuples present") {
    val df = SynthData.zipfKeys(spark, rows = 5000, nKeys = 50, alpha = 1.4)
      .withColumnRenamed("k", "label")
    val t = SkewOps.bagToDict(df, cfg = cfg)
    assert(t.light.unionByName(t.heavy).count() == df.count())
    assert(t.heavyKeys.nonEmpty)
  }

  test("standard route with skew-aware joins preserves results end-to-end") {
    val t = TestData.tables(spark)
    val catalog = TestData.flatCatalog(t)
    val nested = NestedTpch.nestedInput(t, 2, wide = false)
    val cat = catalog + (NestedTpch.inputName(2, wide = false) -> nested)
    val q = TpchQueries.nestedToNested(2, wide = false)
    val plan = Unnester.compile(q)
    val base = new SparkExecutor(cat).execute(plan)
    val skew = new SparkExecutor(cat, SkewOps.skewJoin(SkewConfig(sampleFraction = 1.0)))
      .execute(plan)
    TestUtil.assertBagEq(skew, base)
  }

  test("shredded route with skew-aware joins preserves results end-to-end") {
    val t = TestData.tables(spark)
    val catalog = TestData.flatCatalog(t)
    val q = TpchQueries.nestedToFlat(2, wide = false)
    val sq = repro.shred.Shredder.shred("OUT", q)
    val shredded = NestedTpch.shreddedInput(t, 2, wide = false)
    val base = new repro.shred.ShredPipeline().run(sq, catalog ++ shredded)(sq.topAssignment.name)
    val skew = new repro.shred.ShredPipeline(
      joinImpl = SkewOps.skewJoin(SkewConfig(sampleFraction = 1.0)))
      .run(sq, catalog ++ shredded)(sq.topAssignment.name)
    TestUtil.assertBagEq(skew, base)
  }
}
