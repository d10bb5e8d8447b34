package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Evaluation
import repro.dblp.DblpSynth
import repro.util.Rng

/** One benchmark workload: a corpus size and how many of its newest
  * ambiguous-name papers are held out for incremental judging.
  *
  * @param baseInSetup the base `Iuad.run` + cluster profiles are set-up (the
  *                    incremental service's model build) and the window
  *                    judges; otherwise the window is the pipeline run
  */
final case class Workload(name: String, sf: Double, heldOut: Int, baseInSetup: Boolean)

object Workload {
  val BatchPapers = 8

  val all: Seq[Workload] = Seq(
    Workload("batch-uniform", sf = 0.005, heldOut = 4 * BatchPapers, baseInSetup = false),
    Workload("incremental", sf = 0.003, heldOut = 12 * BatchPapers, baseInSetup = true),
  )
}

/** A held-out batch as a client would send it: papers and co-author lists. */
final case class Batch(
    papers: Array[DblpSynth.Paper],
    auth: Array[DblpSynth.Authorship],
) {
  def occurrences: Array[(Long, String)] = auth.map(a => (a.pid, a.name)).distinct
}

/** Generated corpus split into a base part and held-out batches. Base frames
  * are locally checkpointed, so clearing Spark's cache between pipeline runs
  * never forces regeneration and no run reuses another run's cached plans.
  */
final case class Corpus(
    auth: DataFrame,
    evalNames: DataFrame,
    basePapers: DataFrame,
    baseAuth: DataFrame,
    baseOccurrences: Array[(Long, String)],
    batches: Array[Batch],
) {
  def nOccurrences: Long = baseOccurrences.length.toLong + batches.map(_.occurrences.length.toLong).sum
}

object Corpus {

  /** Generator seed of every corpus: 42, the ROADMAP bench seed, unless
    * PERFBENCH_CORPUS_SEED names another (the held-out seed, see README).
    */
  val generatorSeed: Long = sys.env.get("PERFBENCH_CORPUS_SEED").map(_.toLong).getOrElse(42L)

  /** Stride of the pid bijection; prime and above any pid count. */
  private val PidStride = 1000003L

  def config(w: Workload): DblpSynth.Config = DblpSynth.Config(sf = w.sf, seed = generatorSeed)

  /** Relabels a generated corpus for benchmark seed `seed`: pids go through
    * a bijection of [0, nPapers) and every name gets a seed-dependent
    * prefix. Structure and ground truth, and so the amount of work, stay the
    * generator's; labels change, and with them every order, partition and
    * hash the pipeline derives from labels.
    */
  def relabel(papers: DataFrame, auth: DataFrame, seed: Long, nPapers: Long): (DataFrame, DataFrame) = {
    require(nPapers < PidStride, s"pid bijection needs fewer than $PidStride papers")
    val offset = java.lang.Math.floorMod(Rng.mix(seed, 0x5EEDL), nPapers)
    val pid = pmod(col("pid") * lit(PidStride) + lit(offset), lit(nPapers))
    val name = concat(substring(sha2(concat(col("name"), lit(s"/$seed")), 256), 1, 6), lit("_"), col("name"))
    (papers.withColumn("pid", pid), auth.withColumn("pid", pid).withColumn("name", name))
  }

  def make(spark: SparkSession, w: Workload, seed: Long): Corpus = {
    import spark.implicits._
    val cfg = config(w)
    val (p, a) = relabel(DblpSynth.papers(spark, cfg), DblpSynth.authorships(spark, cfg), seed, cfg.nPapers)
    val papers = p.localCheckpoint()
    val auth = a.localCheckpoint()
    val evalNames = Evaluation.ambiguousNames(auth).localCheckpoint()

    // Newest papers touching a testing name, in (year, pid) descending order.
    val evalPids = auth.join(evalNames, Seq("name")).select("pid").distinct()
    val held = papers.join(evalPids, Seq("pid"))
      .orderBy(desc("year"), desc("pid"))
      .select("pid").as[Long]
      .take(w.heldOut)
    val heldSet = held.toSet
    val isHeld = col("pid").isInCollection(heldSet)
    val basePapers = papers.filter(!isHeld).localCheckpoint()
    val baseAuth = auth.filter(!isHeld).localCheckpoint()
    val baseOccurrences = baseAuth.select("pid", "name").distinct().as[(Long, String)].collect()

    val heldPapers = papers.filter(isHeld).as[DblpSynth.Paper].collect().map(r => r.pid -> r).toMap
    val heldAuth = auth.filter(isHeld).as[DblpSynth.Authorship].collect().groupBy(_.pid)
    val batches = held.grouped(Workload.BatchPapers).map { pids =>
      Batch(pids.map(heldPapers), pids.flatMap(pid => heldAuth.getOrElse(pid, Array.empty)))
    }.toArray
    Corpus(auth, evalNames, basePapers, baseAuth, baseOccurrences, batches)
  }
}
