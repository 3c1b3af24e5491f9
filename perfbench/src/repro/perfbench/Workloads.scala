package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.baseline.SparkSQLBaseline
import repro.core.NRC.Expr
import repro.core.exec.SparkExecutor
import repro.core.plan.{Optimizer, Plan}
import repro.data.NestedTpch
import repro.data.NestedTpch.{inputName, Tables}
import repro.queries.TpchQueries

/** A workload: the nested-to-nested L2 narrow query (paper Fig. 7/8)
  * over nested TPC-H generated from a seed.
  *
  * @param skew     skew factor of Lineitem's keys (`SynthData.lineitemSkewed`)
  * @param dataWide whether the cached nested input keeps every attribute
  *                 (the Fig. 7 setup) or only the narrow ones (Fig. 8)
  */
final case class Workload(name: String, skew: Int, dataWide: Boolean) {
  /** Scale factor of the timed instance. */
  val sf = 0.01
  /** Scale factor of the reduced-size instance checked against LocalEval. */
  val refSf = 0.0002

  /** Generate the inputs at `sf` from `seed` and cache them in `scope`;
    * returns one pass over the query set.
    */
  def setup(b: Bench, sf: Double, seed: Long, scope: CacheScope): Bench => Unit = {
    val spark = b.spark
    val (input, part, cat) =
      Workloads.nestedToNestedInputs(Workloads.tpchTables(spark, sf, skew, seed), dataWide, scope)
    b => Workloads.queryCase(b, s"nested-to-nested L2 narrow skew $skew",
      TpchQueries.nestedToNested(2, wide = false), cat,
      () => SparkSQLBaseline.nestedToNested(spark, input, part, 2, wide = false))
  }
}

object Workloads {
  import Strategy._

  val all: Seq[Workload] = Seq(
    // Uniform data: the skew-aware routes find no heavy keys, so this is
    // the skew-free control for tpch-skew.
    Workload("tpch-nested", skew = 0, dataWide = true),
    Workload("tpch-skew", skew = 2, dataWide = false))

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))

  private val plainJoin = SparkExecutor.defaultJoin
  // Skew-aware routes run without aggregation pushing (paper §6, Fig. 8).
  private val skewAwareOpt: Plan => Plan = Optimizer.pushProjections

  /** Run one query with every strategy the pass runs, gating every output
    * against the others (see [[Bench]]).
    */
  def queryCase(b: Bench, query: String, q: Expr, cat: Map[String, DataFrame],
                sparkSql: () => DataFrame): Unit =
    b.scoped { scope =>
      b.reference(query, q, cat)
      b.check(query, Standard, b.op(query, Standard)(
        b.force(b.standard(cat, q, Optimizer.full, plainJoin))))
      b.check(query, SparkSQL, b.op(query, SparkSQL)(b.force(b.span("baseline.build")(sparkSql()))))
      b.check(query, StandardSkew, b.op(query, StandardSkew)(
        b.force(b.standard(cat, q, skewAwareOpt, b.skewJoin()))))
      val shredded = b.op(query, Shred)(b.shred(cat, "OUT", q, Optimizer.full, plainJoin, scope))
      b.checkShredded(query, Shred, shredded)
      for (o <- shredded)
        b.check(query, Unshred, b.op(query, Unshred)(b.force(b.unshred(o))))
      b.checkShredded(query, ShredSkew,
        b.op(query, ShredSkew)(b.shred(cat, "OUT", q, skewAwareOpt, b.skewJoin(), scope)))
    }

  // -------------------------------------------------------------- TPC-H

  /** `NestedTpch.tables`, with the workload seed passed to every
    * generator (distinct seed blocks keep the tables independent).
    * `NestedTpch.tables` itself takes no seed, so this repeats its
    * projections; keep the two in step.
    */
  def tpchTables(spark: SparkSession, sf: Double, skew: Int, seed: Long): Tables = {
    val s = seed * 1000
    val li = SynthData.lineitemSkewed(spark, sf, skew, seed = s)
      .select(col("l_orderkey"), col("l_partkey"), col("l_quantity"),
        col("l_extendedprice"), col("l_discount"), col("l_shipdate"))
    val cust = SynthData.customer(spark, sf, seed = s + 20)
      .withColumn("c_name", concat(lit("cust_"), col("c_custkey")))
    val part = SynthData.part(spark, sf, seed = s + 30)
      .withColumn("p_name", concat(lit("part_"), col("p_partkey") % 1000))
    Tables(li, SynthData.orders(spark, sf, seed = s + 10), cust,
      SynthData.nation(spark), SynthData.region(spark), part)
  }

  /** The cached inputs of the nested-to-nested query at level 2: the nested
    * input, its shredded form (registered under the narrow query's names;
    * the paper's nested-to-* setup reads the wide input for narrow queries
    * too) and Part. The flat tables they are built from are not cached.
    */
  def nestedToNestedInputs(t: Tables, dataWide: Boolean, scope: CacheScope)
      : (DataFrame, DataFrame, Map[String, DataFrame]) = {
    val level = 2
    val nested = scope.materialize(NestedTpch.nestedInput(t, level, dataWide))._1
    val part = scope.materialize(t.part)._1
    val shredded = NestedTpch.shreddedInput(t, level, dataWide).map { case (k, v) =>
      k.replace(inputName(level, dataWide), inputName(level, wide = false)) -> scope.materialize(v)._1
    }
    (nested, part, shredded + ("Part" -> part) + (inputName(level, wide = false) -> nested))
  }
}

/** Strategy names as reported (metric names use them lower-cased). */
object Strategy {
  val SparkSQL = "SparkSQL"
  val Standard = "Standard"
  val Shred = "Shred"
  val Unshred = "Unshred"
  val StandardSkew = "Standard_skew"
  val ShredSkew = "Shred_skew"
  val all: Seq[String] = Seq(SparkSQL, Standard, Shred, Unshred, StandardSkew, ShredSkew)
}
