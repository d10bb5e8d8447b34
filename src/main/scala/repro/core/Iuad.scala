package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import Model._

/** End-to-end IUAD pipeline (Algorithm 1).
  *
  * Stage I: [[ScnBuilder]] mines η-SCRs + triangles and builds the SCN.
  * Stage II: [[Profiles]] + [[Similarity]] produce candidate-pair similarity
  * vectors; [[Em]] learns the generative model on a 10 % sample augmented
  * with split-vertex matched pairs (§V-F.2); [[GcnBuilder]] scores all pairs
  * distributed and merges those with log-odds ≥ δ.
  */
object Iuad {

  /** δ = 25 was calibrated once on the synthetic corpus (δ-sweep in
    * DebugGcn): log-odds below ~20 admit singleton pairs whose only evidence
    * is one shared venue; the paper likewise tunes its pre-defined δ.
    */
  final case class Config(
      eta: Int = 3,
      wlIters: Int = 2,
      delta: Double = 25.0,
      sampleFrac: Double = 0.1,
      minTrainPairs: Int = 200,
      seed: Long = 7L,
      em: Em.Config = Em.Config(),
  )

  final case class Result(
      scn: Scn,
      profiles: Dataset[VertexProfile],
      stats: Similarity.GlobalStats,
      pairs: Dataset[PairGamma],
      model: Em.EmModel,
      scored: Dataset[ScoredPair],
      mapping: DataFrame,        // (vid, name, cluster)
      assignment: DataFrame,     // GCN:  (pid, name, cluster)
      scnAssignment: DataFrame,  // SCN-only: (pid, name, cluster=vid)
  )

  /** Split-vertex balancing uses at most 300 vertices with ≥ 6 papers. */
  val SplitMinPapers = 6
  val SplitMaxVertices = 300

  /** Matched training pairs from splitting prolific SCN vertices in two by
    * pid parity (balances the heavy unmatched majority, §V-F.2): one vector
    * per chosen vertex, in (abs(hash(vid, seed)), vid) order. Both halves go
    * through [[Profiles.fold]] and carry the vertex's lone-ego WL features;
    * a vertex with an empty half yields no pair.
    */
  def splitVertexPairs(
      spark: SparkSession,
      scn: Scn,
      papers: DataFrame,
      authorships: DataFrame,
      stats: Similarity.GlobalStats,
      cfg: Config,
  ): Array[Array[Double]] = {
    import spark.implicits._
    val order = abs(hash(col("vid"), lit(cfg.seed)))
    val chosen = scn.vertexPapers
      .groupBy("vid")
      .agg(countDistinct("pid").as("n"))
      .where(col("n") >= SplitMinPapers)
      .orderBy(order, col("vid"))
      .limit(SplitMaxVertices)
      .select("vid")
    val bStats = spark.sparkContext.broadcast(stats)
    Profiles
      .vertexRows(spark, scn.vertexPapers.join(chosen, "vid"), papers, authorships)
      .flatMapGroups { (vid, it) =>
        val (rows0, rows1) = it.toSeq.partition(r => java.lang.Math.floorMod(r.pid + cfg.seed, 2L) == 0L)
        if (rows0.isEmpty || rows1.isEmpty) Iterator.empty
        else {
          val wl = WlKernel.features(vid, Map.empty, cfg.wlIters)
          def half(rows: Seq[OccurrenceRow]) = Profiles.fold(vid, rows).copy(wl = wl)
          Iterator.single((vid, Similarity.gamma(half(rows0), half(rows1), bStats.value).toSeq))
        }
      }
      .toDF("vid", "g")
      .select(order, col("vid"), col("g"))
      .as[(Int, String, Seq[Double])]
      .collect()
      .sortBy { case (o, vid, _) => (o, vid) }
      .map(_._3.toArray)
  }

  def run(spark: SparkSession, papers: DataFrame, authorships: DataFrame, cfg: Config = Config()): Result = {
    import spark.implicits._

    // Stage I — SCN.
    val scn = ScnBuilder.build(spark, authorships, cfg.eta)
    val scnAssignment = scn.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster"))

    // Stage II — profiles, similarities.
    val stats = Similarity.globalStats(spark, papers)
    val profiles = Profiles.build(spark, scn, papers, authorships, cfg.wlIters).cache()
    val pairs = Similarity.candidatePairs(spark, profiles, stats).cache()

    // Training sample (10 %) + split-vertex matched pairs.
    val nPairs = pairs.count()
    val frac =
      if (nPairs == 0L) 0.0
      else math.min(1.0, math.max(cfg.sampleFrac, cfg.minTrainPairs.toDouble / nPairs))
    val sample = pairs.sample(withReplacement = false, frac, cfg.seed).map(_.g.toArray).collect()
    val known = splitVertexPairs(spark, scn, papers, authorships, stats, cfg)

    val model = Em.fit(sample, cfg.em, known)

    // Score all pairs distributed; merge accepted ones.
    val scored = GcnBuilder.scorePairs(spark, pairs, model)
    val mapping = GcnBuilder.clusterMapping(spark, scn.vertices, scored, cfg.delta)
    val assignment = GcnBuilder.assignment(scn.vertexPapers, mapping)

    Result(scn, profiles, stats, pairs, model, scored, mapping, assignment, scnAssignment)
  }
}
