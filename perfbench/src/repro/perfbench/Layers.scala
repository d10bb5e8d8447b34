package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.core.Model._

/** Calls into the pipeline's layers: once untraced through `Iuad.run`, once
  * layer by layer under a [[Tracer]], and the incremental judge.
  */
object Layers {

  type Row3 = (Long, String, String)

  /** Base model the incremental judge runs against. */
  final case class Base(
      result: Iuad.Result,
      assignment: Array[Row3],
      clusters: Dataset[VertexProfile],
      clusterIds: Set[String],
  )

  /** `Iuad.run` until the assignment is materialised on the driver. */
  def pipeline(spark: SparkSession, c: Corpus, cfg: Iuad.Config): (Iuad.Result, Array[Row3], Double) = {
    import spark.implicits._
    val t0 = System.nanoTime()
    val r = Iuad.run(spark, c.basePapers, c.baseAuth, cfg)
    val rows = r.assignment.as[Row3].collect()
    (r, rows, (System.nanoTime() - t0) / 1e9)
  }

  def clusters(spark: SparkSession, r: Iuad.Result): (Dataset[VertexProfile], Long) = {
    val cl = Incremental.clusterProfiles(spark, r.profiles, r.mapping).cache()
    (cl, cl.count())
  }

  def clusterIds(spark: SparkSession, cl: Dataset[VertexProfile]): Set[String] = {
    import spark.implicits._
    cl.select("vid").as[String].collect().toSet
  }

  /** Judges one batch: (pid, name, cluster, nanos) rows. */
  def judge(spark: SparkSession, base: Base, b: Batch, cfg: Iuad.Config): Array[(Long, String, String, Long)] = {
    import spark.implicits._
    val papers = b.papers.toSeq.toDF()
    val auth = b.auth.toSeq.toDF()
    val r = base.result
    Incremental
      .disambiguate(spark, base.clusters, papers, auth, r.model, r.stats, cfg.delta, cfg.wlIters)
      .select("pid", "name", "cluster", "nanos")
      .as[(Long, String, String, Long)]
      .collect()
  }

  def micro(spark: SparkSession, rows: Seq[Row3], truth: DataFrame, evalNames: DataFrame): Metrics = {
    import spark.implicits._
    Evaluation.pairwiseMicro(spark, rows.toDF("pid", "name", "cluster"), truth, Some(evalNames))
  }

  /** Counts derived from the traced pipeline that are not a layer's span. */
  final case class Derived(
      pairs: Long,
      maxVerticesPerName: Long,
      truncatedVertices: Long,
      acceptRatio: Double,
      trainRows: Long,
  )

  /** The steps of `Iuad.run`, one span per layer, each output materialised.
    * `scn.scr` mines SCRs on their own although `ScnBuilder.build` mines them
    * again, so that span is marked repeated.
    */
  def tracedPipeline(
      spark: SparkSession,
      c: Corpus,
      cfg: Iuad.Config,
      tr: Tracer,
      it: Int,
  ): (Iuad.Result, Array[Row3], Derived) = {
    import spark.implicits._
    val (papers, auth) = (c.basePapers, c.baseAuth)

    tr.span("scn.scr", it, parent = "scn", repeated = true) {
      val s = Scr.mine(auth, cfg.eta).cache()
      val n = s.count()
      s.unpersist()
      ((), n)
    }
    val scn = tr.span("scn", it) {
      val s = ScnBuilder.build(spark, auth, cfg.eta)
      (s, s.vertexPapers.count())
    }
    val stats = tr.span("stats", it) {
      val s = Similarity.globalStats(spark, papers)
      (s, (s.wordFreq.size + s.venueFreq.size).toLong)
    }
    val base = tr.span("profiles.base", it) {
      val b = Profiles.buildBase(spark, scn, papers, auth).cache()
      (b, b.count())
    }
    val profiles = tr.span("profiles.wl", it) {
      val p = Profiles.withWl(spark, base, scn, cfg.wlIters).cache()
      (p, p.count())
    }
    val pairs = tr.span("pairs", it) {
      val p = Similarity.candidatePairs(spark, profiles, stats).cache()
      (p, p.count())
    }
    val nPairs = pairs.count()
    val (sample, known) = tr.span("train", it) {
      val frac =
        if (nPairs == 0L) 0.0
        else math.min(1.0, math.max(cfg.sampleFrac, cfg.minTrainPairs.toDouble / nPairs))
      val s = pairs.sample(withReplacement = false, frac, cfg.seed).map(_.g.toArray).collect()
      val k = Iuad.splitVertexPairs(spark, scn, papers, auth, stats, cfg)
      ((s, k), (s.length + k.length).toLong)
    }
    val model = tr.span("em", it)((Em.fit(sample, cfg.em, known), 1L))
    val scored = tr.span("score", it) {
      val s = GcnBuilder.scorePairs(spark, pairs, model).cache()
      (s, s.count())
    }
    val mapping = tr.span("merge", it) {
      val m = GcnBuilder.clusterMapping(spark, scn.vertices, scored, cfg.delta).cache()
      (m, m.count())
    }
    val assignment = tr.span("assign", it) {
      val rows = GcnBuilder.assignment(scn.vertexPapers, mapping).as[Row3].collect()
      (rows, rows.length.toLong)
    }

    // Untraced: per-name vertex counts behind the silent 3000-vertex cap of
    // candidatePairs, and the share of scored pairs that clear δ.
    val perName = profiles.groupBy("name").count().select(col("count")).as[Long].collect()
    val accepted = scored.filter(col("score") >= cfg.delta).count()
    val derived = Derived(
      pairs = nPairs,
      maxVerticesPerName = if (perName.isEmpty) 0L else perName.max,
      truncatedVertices = perName.map(n => math.max(0L, n - 3000L)).sum,
      acceptRatio = if (nPairs == 0L) 0.0 else accepted.toDouble / nPairs,
      trainRows = (sample.length + known.length).toLong,
    )
    val scnAssignment = scn.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster"))
    val result = Iuad.Result(scn, profiles, stats, pairs, model, scored, mapping,
      assignment.toSeq.toDF("pid", "name", "cluster"), scnAssignment)
    (result, assignment, derived)
  }
}
