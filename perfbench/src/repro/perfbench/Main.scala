package repro.perfbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._

/** Benchmark entry point (see perfbench/README.md).
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --out <dir> --source-sha <hash> --git-commit <id>
  *
  * The last stdout line is the result object; the line before it records the
  * environment and the details behind each metric.
  */
object Main {

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Int,
      trace: Boolean,
      out: String,
      sourceSha: String,
      gitCommit: String,
  )

  val SetupReps = 3
  val ShufflePartitions = 4

  def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1",
      m.getOrElse("out", ".bench_build/results"), m.getOrElse("source-sha", "unknown"),
      m.getOrElse("git-commit", "unknown"))
  }

  def session(cores: Int, localDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      // Adaptive execution would coalesce shuffles, so the partition count
      // (which the output depends on) would no longer be the pinned one.
      .config("spark.sql.adaptive.enabled", false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .getOrCreate()

  /** Drops every cached and checkpointed dataset of the session. */
  def reset(spark: SparkSession): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
  }

  /** Drops what a pipeline run cached; the checkpointed corpus stays. Without
    * this a later run would find the previous run's cached plans.
    */
  def clearPipeline(spark: SparkSession): Unit = spark.catalog.clearCache()

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank percentile q (0 < q < 100). */
  def percentile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.max(0, math.ceil(q / 100 * s.length).toInt - 1))
  }

  /** Highest whole percentile with at least ten samples beyond it; the
    * median when there are fewer than twenty samples.
    */
  def tailPercentile(n: Int): Double = math.max(50, (100L * (n - 10) / math.max(n, 1)).toInt).toDouble

  /** Passes over the held-out batches that a run times: the incremental
    * window makes one pass per 7 s of `--seconds`, a batch workload two. The
    * count is fixed, not "as many as fit", so the tail percentile is the same
    * on every run and every commit.
    */
  def judgePasses(w: Workload, seconds: Int): Int = if (w.baseInSetup) math.max(1, seconds / 7) else 2

  /** Pipeline runs a batch workload times: one per 14 s of `--seconds`. Fixed
    * for the same reason, and so that `pipeline_s` is always the median of
    * the same mix of first (cold) and later (warmer) runs.
    */
  def pipelineRuns(seconds: Int): Int = math.max(1, seconds / 14)

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workload.all.find(_.name == a.workload).getOrElse(
      throw new IllegalArgumentException(s"unknown workload ${a.workload}; have ${Workload.all.map(_.name).mkString(", ")}"))
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val t0 = System.nanoTime()
    val spark = session(cores, Paths.get(a.out, "spark-local").toString)
    spark.sparkContext.setLogLevel("ERROR")
    val sessionS = (System.nanoTime() - t0) / 1e9

    val cfg = Iuad.Config()
    val run = new Run(spark, w, a, cfg)
    val (metrics, details) = if (a.trace) run.traced() else run.timed(sessionS)

    val env = Json.obj(
      "workload" -> Json.str(w.name),
      "seed" -> a.seed.toString,
      "trace" -> a.trace.toString,
      "seconds" -> a.seconds.toString,
      "spark_master" -> Json.str(spark.sparkContext.master),
      "cores" -> cores.toString,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "adaptive_execution" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "jvm_max_heap_bytes" -> Runtime.getRuntime.maxMemory.toString,
      "spark_version" -> Json.str(spark.version),
      "generator" -> Json.str(Corpus.config(w).toString),
      "held_out_papers" -> w.heldOut.toString,
      "batch_papers" -> Workload.BatchPapers.toString,
      "iuad_config" -> Json.str(cfg.toString),
      "source_sha256" -> Json.str(a.sourceSha),
      "git_commit" -> Json.str(a.gitCommit),
      "problems" -> run.ops.problems.map(Json.str).mkString("[", ", ", "]"),
    )
    spark.stop()

    val metricJson = metrics.map { case (k, (v, unit)) => k -> Json.obj("value" -> Json.num(v), "unit" -> Json.str(unit)) }
    val result = Json.obj(
      "correct" -> (run.ops.failed == 0L).toString,
      "attempted" -> run.ops.attempted.toString,
      "failed" -> run.ops.failed.toString,
      "metrics" -> Json.obj(metricJson: _*),
    )
    val detailLine = Json.obj("env" -> env, "details" -> Json.obj(details: _*))
    val outDir = Paths.get(a.out)
    Files.createDirectories(outDir)
    val stem = s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
    Files.writeString(outDir.resolve(s"$stem.json"), Json.obj("detail" -> detailLine, "result" -> result) + "\n")
    if (a.trace) Files.writeString(outDir.resolve(s"$stem-spans.json"), run.tracer.map(_.toJson).getOrElse("[]") + "\n")
    println(detailLine)
    println(result)
  }
}

/** One benchmark run of a workload; collects metrics in insertion order. */
final class Run(spark: SparkSession, w: Workload, a: Main.Args, cfg: Iuad.Config) {
  import Main._
  import Layers._

  val ops = new Ops
  var tracer: Option[Tracer] = None
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val details = mutable.ArrayBuffer.empty[(String, String)]

  private def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  private def checkedPipeline(c: Corpus, what: String): Option[(Iuad.Result, Array[Row3], Double)] =
    try {
      val out @ (_, rows, _) = pipeline(spark, c, cfg)
      ops.record(what, Checks.assignment(c.baseOccurrences, rows))
      Some(out)
    } catch { case e: Exception => ops.fail(what, e); None }

  private def makeBase(r: Iuad.Result, rows: Array[Row3]): Base = {
    val (cl, _) = clusters(spark, r)
    Base(r, rows, cl, clusterIds(spark, cl))
  }

  /** Judges batch `i`, checks it, returns (rows, wall ms). */
  private def judgeChecked(c: Corpus, base: Base, i: Int): Option[(Array[(Long, String, String, Long)], Double)] = {
    val b = c.batches(i)
    try {
      val t0 = System.nanoTime()
      val rows = judge(spark, base, b, cfg)
      val ms = (System.nanoTime() - t0) / 1e6
      ops.record(s"judge batch $i", Checks.judged(b.occurrences, rows.map(r => (r._1, r._2, r._3)), base.clusterIds))
      Some((rows, ms))
    } catch { case e: Exception => ops.fail(s"judge batch $i", e); None }
  }

  /** End-to-end run, tracing off. */
  def timed(sessionS: Double): (Seq[(String, (Double, String))], Seq[(String, String)]) = {
    // Set-up: corpus generation and checkpointing, repeated; the median
    // counts. The incremental service also builds its base model once.
    val corpusTimes = mutable.ArrayBuffer.empty[Double]
    val pipelineTimes = mutable.ArrayBuffer.empty[Double]
    var corpus: Corpus = null
    for (_ <- 1 to SetupReps) {
      reset(spark)
      val t0 = System.nanoTime()
      corpus = Corpus.make(spark, w, a.seed)
      corpusTimes += (System.nanoTime() - t0) / 1e9
    }
    val c = corpus
    var base: Option[Base] = None
    var baseBuildS = 0.0
    if (w.baseInSetup) {
      val t0 = System.nanoTime()
      base = checkedPipeline(c, "base pipeline").map { case (r, rows, secs) =>
        pipelineTimes += secs
        makeBase(r, rows)
      }
      baseBuildS = (System.nanoTime() - t0) / 1e9
    }
    val setupS = sessionS + median(corpusTimes.toSeq) + baseBuildS

    if (!w.baseInSetup) {
      // Batch: the window is a fixed number of pipeline runs.
      var last: Option[(Iuad.Result, Array[Row3], Double)] = None
      for (i <- 1 to pipelineRuns(a.seconds)) {
        clearPipeline(spark)
        last = checkedPipeline(c, s"pipeline $i")
        last.foreach { case (_, _, secs) => pipelineTimes += secs }
      }
      if (pipelineTimes.isEmpty) throw new IllegalStateException(ops.problems.mkString("; "))
      base = last.map { case (r, rows, _) => makeBase(r, rows) }
    }
    val b = base.getOrElse(throw new IllegalStateException(s"no base model: ${ops.problems.mkString("; ")}"))

    // Closed loop, one client: judge the held-out batches in order, a fixed
    // number of passes. Incremental: this is the window. Batch workloads
    // judge their few held-out batches after the window.
    val latencies = mutable.ArrayBuffer.empty[Double]
    var judgedOcc = 0L
    val firstJudgement = mutable.LinkedHashMap.empty[Int, Array[(Long, String, String, Long)]]
    for (_ <- 1 to judgePasses(w, a.seconds); i <- c.batches.indices)
      judgeChecked(c, b, i).foreach { case (rows, ms) =>
        latencies += ms
        judgedOcc += rows.length
        firstJudgement.getOrElseUpdate(i, rows)
      }

    // Quality on the testing names.
    import spark.implicits._
    val scnRows = b.result.scnAssignment.as[Row3].collect()
    val gcn = micro(spark, b.assignment.toSeq, c.baseAuth, c.evalNames)
    val scn = micro(spark, scnRows.toSeq, c.baseAuth, c.evalNames)
    val judged = firstJudgement.valuesIterator.flatten.map(r => (r._1, r._2, r._3)).toSeq
    val inc = micro(spark, b.assignment.toSeq ++ judged, c.auth, c.evalNames)

    if (latencies.isEmpty) throw new IllegalStateException(s"no batch judged: ${ops.problems.mkString("; ")}")
    val tailQ = tailPercentile(latencies.length)
    put("setup_s", setupS, "s")
    put("pipeline_s", median(pipelineTimes.toSeq), "s")
    put("gcn_micro_p", gcn.precision, "ratio")
    put("gcn_micro_r", gcn.recall, "ratio")
    put("gcn_micro_f", gcn.f1, "ratio")
    put("scn_micro_f", scn.f1, "ratio")
    put("inc_batch_ms_p50", percentile(latencies.toSeq, 50), "ms")
    put("inc_batch_ms_tail", percentile(latencies.toSeq, tailQ), "ms")
    put("inc_occ_per_s", judgedOcc / (latencies.sum / 1e3), "1/s")
    put("inc_micro_f", inc.f1, "ratio")
    put("success_rate", (ops.attempted - ops.failed).toDouble / ops.attempted, "ratio")

    details ++= Seq(
      "session_s" -> Json.num(sessionS),
      "corpus_s_samples" -> corpusTimes.map(Json.num).mkString("[", ", ", "]"),
      "base_build_s" -> Json.num(baseBuildS),
      "pipeline_s_samples" -> pipelineTimes.map(Json.num).mkString("[", ", ", "]"),
      "inc_batches_timed" -> latencies.length.toString,
      "inc_batch_ms_tail_percentile" -> Json.num(tailQ),
      "inc_batches_total" -> c.batches.length.toString,
      "inc_occurrences_judged_timed" -> judgedOcc.toString,
      "gcn_metrics" -> Json.str(gcn.toString),
      "scn_metrics" -> Json.str(scn.toString),
      "inc_metrics" -> Json.str(inc.toString),
      "corpus_occurrences" -> c.nOccurrences.toString,
    )
    (metrics.toSeq, details.toSeq)
  }

  /** Traced run: per-layer spans and counters, plus the checks that the
    * traced assignment equals the untraced one.
    */
  def traced(): (Seq[(String, (Double, String))], Seq[(String, String)]) = {
    val tr = new Tracer(spark.sparkContext)
    tracer = Some(tr)
    reset(spark)
    val c = tr.span("synth", 0, parent = "setup") {
      val c = Corpus.make(spark, w, a.seed)
      (c, c.nOccurrences)
    }
    val windowEnd = System.nanoTime() + (a.seconds * 1e9).toLong

    // Untraced reference (also the warm-up), then untraced/traced pairs; the
    // traced run goes second so its caches are live for the layers below.
    val untracedTimes = mutable.ArrayBuffer.empty[Double]
    val tracedTimes = mutable.ArrayBuffer.empty[Double]
    val derived = mutable.ArrayBuffer.empty[Derived]
    val reference = checkedPipeline(c, "reference pipeline")
      .getOrElse(throw new IllegalStateException("reference pipeline failed"))._2.sorted
    def sameAsReference(what: String, rows: Array[Row3]): Unit = {
      val same = rows.sorted.sameElements(reference)
      ops.record(what, Checks.assignment(c.baseOccurrences, rows) + (if (same) 0L else 1L))
      if (!same) ops.problems += s"$what: assignment differs from the reference Iuad.run"
    }
    var last: (Iuad.Result, Array[Row3]) = null
    var it = 0
    while (it == 0 || System.nanoTime() < windowEnd) {
      it += 1
      clearPipeline(spark)
      val (_, urows, secs) = pipeline(spark, c, cfg)
      untracedTimes += secs * 1e3
      sameAsReference(s"untraced pipeline $it", urows)
      clearPipeline(spark)
      val spansBefore = tr.spans.length
      val (r, rows, d) = tracedPipeline(spark, c, cfg, tr, it)
      tracedTimes += tr.spans.drop(spansBefore).filterNot(_.repeated).map(_.wallMs).sum
      derived += d
      last = (r, rows)
      sameAsReference(s"traced pipeline $it", rows)
    }
    // The last traced pipeline's caches are still live for the layers below.
    val (r, rows) = last
    tr.span("eval", it) {
      val gcn = micro(spark, rows.toSeq, c.baseAuth, c.evalNames)
      Evaluation.pairwiseMicro(spark, r.scnAssignment, c.baseAuth, Some(c.evalNames))
      ((), gcn.tp + gcn.fp + gcn.fn + gcn.tn)
    }
    val cl = tr.span("inc.clusters", it)(clusters(spark, r))
    val base = Base(r, rows, cl, clusterIds(spark, cl))
    val nClusters = base.clusterIds.size.toLong
    val clusterNames = base.clusterIds.toSeq.groupMapReduce(_.takeWhile(_ != '#'))(_ => 1L)(_ + _)
    var kernelNs = 0L
    var judgedOcc = 0L
    var needed = 0L
    val nBatches = math.min(c.batches.length, 8)
    for (i <- 0 until nBatches) {
      val b = c.batches(i)
      tr.span("inc.judge", it, parent = "inc") {
        val out = judgeChecked(c, base, i).map(_._1).getOrElse(Array.empty)
        kernelNs += out.map(_._4).sum
        judgedOcc += out.length
        (out, out.length.toLong)
      }
      needed += b.auth.map(_.name).distinct.map(n => clusterNames.getOrElse(n, 0L)).sum
    }

    // Per layer: medians over traced iterations (inc.judge: per batch).
    val layers = Seq("synth", "scn.scr", "scn", "stats", "profiles.base", "profiles.wl", "pairs", "train", "em",
      "score", "merge", "assign", "eval", "inc.clusters", "inc.judge")
    for (l <- layers) {
      val ss = tr.spans.filter(_.name == l).toSeq
      def med(f: Span => Double) = median(ss.map(f))
      put(s"$l.wall_ms", med(_.wallMs), "ms")
      put(s"$l.rows_out", med(_.rowsOut.toDouble), "count")
      put(s"$l.spark_jobs", med(_.jobs.toDouble), "count")
      put(s"$l.executor_cpu_ms", med(_.cpuNs / 1e6), "ms")
      put(s"$l.shuffle_write_bytes", med(_.shuffleWriteBytes.toDouble), "bytes")
      put(s"$l.driver_result_bytes", med(_.resultBytes.toDouble), "bytes")
    }
    val pairSpans = tr.spans.filter(_.name == "pairs").toSeq
    put("pairs.count", median(derived.map(_.pairs.toDouble).toSeq), "count")
    put("pairs.max_vertices_per_name", median(derived.map(_.maxVerticesPerName.toDouble).toSeq), "count")
    put("pairs.truncated_vertices", median(derived.map(_.truncatedVertices.toDouble).toSeq), "count")
    put("pairs.cpu_ns_per_pair", median(pairSpans.map(s => s.cpuNs.toDouble / math.max(1L, s.rowsOut))), "ns")
    put("score.accept_ratio", median(derived.map(_.acceptRatio).toSeq), "ratio")
    put("em.train_rows", median(derived.map(_.trainRows.toDouble).toSeq), "count")
    put("inc.judge.kernel_ms_per_occ", kernelNs / 1e6 / math.max(1L, judgedOcc), "ms")
    put("inc.judge.clusters_shuffled_per_needed", nClusters.toDouble * nBatches / math.max(1L, needed), "ratio")
    val tracedMs = median(tracedTimes.toSeq)
    val untracedMs = median(untracedTimes.toSeq)
    put("trace.pipeline_ms", tracedMs, "ms")
    put("trace.untraced_pipeline_ms", untracedMs, "ms")
    put("trace.overhead_ms", tracedMs - untracedMs, "ms")

    details ++= Seq(
      "traced_iterations" -> it.toString,
      "traced_pipeline_ms_samples" -> tracedTimes.map(Json.num).mkString("[", ", ", "]"),
      "untraced_pipeline_ms_samples" -> untracedTimes.map(Json.num).mkString("[", ", ", "]"),
      "repeated_spans" -> Json.str("scn.scr repeats the SCR mining inside scn; excluded from trace.pipeline_ms"),
      "inc_judge_batches" -> nBatches.toString,
    )
    (metrics.toSeq, details.toSeq)
  }
}
