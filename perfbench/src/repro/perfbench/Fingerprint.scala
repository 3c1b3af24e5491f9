package repro.perfbench

import scala.concurrent.Await
import scala.concurrent.duration._
import org.apache.spark.sql.{Column, DataFrame, Observation, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** An order-insensitive summary of a DataFrame's rows. It is computed
  * either by an aggregate over a cached DataFrame (`of`) or, on passes whose
  * time is not reported, by `Dataset.observe` during the action that forces
  * the DataFrame (`observe`), which costs no second execution.
  *
  * It follows `LocalEval.canon`: tuples digest their fields by name, bags
  * (arrays) are multisets — the sum of their elements' digests — and
  * integers of any width are equal. Reals depend on summation order, which
  * differs between strategies, so the digest keeps four significant digits
  * of each real and `mass`, the sum of every real in the output, is compared
  * with a relative tolerance.
  */
final case class Fingerprint(rows: Long, digest: Long, mass: Double) {
  def matches(o: Fingerprint): Boolean =
    rows == o.rows && digest == o.digest &&
      math.abs(mass - o.mass) <= Fingerprint.MassTolerance * math.max(1.0, math.abs(o.mass))
}

object Fingerprint {
  val MassTolerance = 1e-7
  private val Low32 = lit(0xFFFFFFFFL)

  private def isReal(t: DataType) = t match {
    case FloatType | DoubleType | _: DecimalType => true
    case _ => false
  }

  /** Four significant digits of a real, as (digits, decimal exponent). */
  private def significant(x: Column): Column = {
    val d = x.cast(DoubleType)
    val exp = when(d === 0, lit(0.0)).otherwise(floor(log10(abs(d))))
    xxhash64(round(d / pow(lit(10.0), exp - 3)), exp)
  }

  private def digest(c: Column, t: DataType): Column = t match {
    case s: StructType =>
      xxhash64(s.fields.sortBy(_.name).toSeq.flatMap(f => Seq(lit(f.name), digest(c.getField(f.name), f.dataType))): _*)
    case ArrayType(e, _) =>
      aggregate(transform(c, x => digest(x, e).bitwiseAND(Low32)), lit(0L), (acc, x) => acc + x)
    case r if isReal(r) => significant(c)
    case ByteType | ShortType | IntegerType | LongType => xxhash64(c.cast(LongType))
    case _ => xxhash64(c)
  }

  private def mass(c: Column, t: DataType): Column = t match {
    case s: StructType =>
      s.fields.toSeq.map(f => mass(c.getField(f.name), f.dataType)).foldLeft(lit(0.0))(_ + _)
    case ArrayType(e, _) =>
      coalesce(aggregate(transform(c, x => mass(x, e)), lit(0.0), (acc, x) => acc + x), lit(0.0))
    case r if isReal(r) => coalesce(c.cast(DoubleType), lit(0.0))
    case _ => lit(0.0)
  }

  private def aggregates(df: DataFrame): Seq[Column] = {
    val row = struct(df.columns.toSeq.map(df(_)): _*)
    Seq(count(lit(1)).as("rows"),
      coalesce(sum(digest(row, df.schema).bitwiseAND(Low32)), lit(0L)).as("digest"),
      coalesce(sum(mass(row, df.schema)), lit(0.0)).as("mass"))
  }

  private def fromRow(r: Row) =
    Fingerprint(r.getAs[Long]("rows"), r.getAs[Long]("digest"), r.getAs[Double]("mass"))

  /** `df` with its fingerprint observed by the action that forces it. */
  def observe(df: DataFrame): (DataFrame, Observation) = {
    val obs = Observation()
    val aggs = aggregates(df)
    (df.observe(obs, aggs.head, aggs.tail: _*), obs)
  }

  def read(obs: Observation): Fingerprint = fromRow(Await.result(obs.future, 60.seconds))

  /** The fingerprints of `dfs`, by one action of their own. */
  def of(dfs: Seq[DataFrame]): Seq[Fingerprint] = {
    val rows = dfs.zipWithIndex
      .map { case (df, i) => df.select(lit(i).as("i") +: aggregates(df): _*) }
      .reduce(_ union _).collect()
    rows.sortBy(_.getAs[Int]("i")).map(fromRow).toSeq
  }
}
