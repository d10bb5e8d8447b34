package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.dblp.DblpSynth

class IncrementalSpec extends SparkSpec {
  import spark.implicits._

  // Hold out the 40 newest papers; build GCN on the rest; judge the held-out.
  private lazy val cfg = DblpSynth.Config(sf = 0.004, seed = 13L)
  private lazy val (papersAll, authAll) = {
    val (p, a) = DblpSynth.generate(spark, cfg)
    (p.cache(), a.cache())
  }
  private lazy val heldPids = papersAll.orderBy(desc("year"), desc("pid"))
    .limit(40).select("pid").as[Long].collect().toSet
  private lazy val papersOld = papersAll.filter(!col("pid").isInCollection(heldPids)).cache()
  private lazy val authOld = authAll.filter(!col("pid").isInCollection(heldPids)).cache()
  private lazy val papersNew = papersAll.filter(col("pid").isInCollection(heldPids)).cache()
  private lazy val authNew = authAll.filter(col("pid").isInCollection(heldPids)).cache()

  private lazy val result = Iuad.run(spark, papersOld, authOld, Iuad.Config(eta = 3, seed = 7L))
  private lazy val clusters =
    Incremental.clusterProfiles(spark, result.profiles, result.mapping).cache()
  private lazy val incremental = Incremental.disambiguate(
    spark, clusters, papersNew, authNew, result.model, result.stats, delta = 25.0).cache()

  test("every new occurrence gets judged exactly once") {
    val expected = authNew.select("pid", "name").distinct().count()
    assert(incremental.count() === expected)
    val dup = incremental.groupBy("pid", "name").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("cluster profiles merge all member vertices") {
    val nClusters = result.mapping.select("cluster").distinct().count()
    // only clusters that own papers have profiles
    assert(clusters.count() <= nClusters)
    assert(clusters.count() > 0L)
  }

  test("assigned clusters either exist in the GCN or are fresh isolated ids") {
    val gcnClusters = result.mapping.select("cluster").distinct().as[String].collect().toSet
    incremental.select("pid", "name", "cluster").as[(Long, String, String)].collect().foreach {
      case (pid, name, c) =>
        assert(gcnClusters.contains(c) || c == s"$name#new$pid", s"unknown cluster $c")
    }
  }

  test("scores below delta open new clusters") {
    val strict = Incremental.disambiguate(
      spark, clusters, papersNew, authNew, result.model, result.stats, delta = 1e9)
    val fresh = strict.filter(col("cluster").contains("#new")).count()
    assert(fresh === strict.count())
  }

  test("names unseen in the GCN stay isolated with NaN score") {
    val exotic = Seq((999999L, Seq("t0_w1"), "v0", 2010)).toDF("pid", "title", "venue", "year")
    val exoticAuth = Seq((999999L, 424242L, "NeverSeenName")).toDF("pid", "authorId", "name")
    val out = Incremental.disambiguate(
      spark, clusters, exotic, exoticAuth, result.model, result.stats, delta = 0.0)
      .collect()
    assert(out.length === 1)
    assert(out(0).getString(2) === "NeverSeenName#new999999")
    assert(out(0).getDouble(3).isNaN)
  }

  test("incremental judging is reasonably accurate on held-out papers") {
    // Combined evaluation: old assignment ∪ incremental assignment.
    val combined = result.assignment
      .unionByName(incremental.select("pid", "name", "cluster"))
    val evalNames = Evaluation.ambiguousNames(authAll)
    val mAll = Evaluation.pairwiseMicro(spark, combined, authAll, Some(evalNames))
    val mOld = Evaluation.pairwiseMicro(spark, result.assignment, authOld, Some(evalNames))
    info(s"old-only: $mOld")
    info(s"with incremental: $mAll")
    // Table VI shape: incremental loses only a little vs. batch metrics.
    assert(mAll.f1 > mOld.f1 - 0.12, s"incremental degraded too much: $mOld -> $mAll")
  }

  test("per-occurrence judging time is small (Table VI shape: < 50ms scale)") {
    val avgNanos = incremental.agg(avg(col("nanos"))).collect()(0).getDouble(0)
    info(f"avg per-occurrence judge time: ${avgNanos / 1e6}%.3f ms")
    // generous bound: the paper reports < 50 ms/paper on full DBLP
    assert(avgNanos < 500e6, s"incremental judging too slow: ${avgNanos / 1e6} ms")
  }

  test("incremental respects argmax: assigned cluster has the best score") {
    // Re-compute scores for a few judged occurrences and verify argmax.
    val clusterArr = clusters.collect()
    val byName = clusterArr.groupBy(_.name)
    val judged = incremental.limit(20).collect()
    val newOcc = Incremental.newProfiles(spark, papersNew, authNew, wlIters = 2)
      .collect().map(p => (p.pids.head, p.name) -> p).toMap
    judged.foreach { row =>
      val pid = row.getLong(0); val name = row.getString(1); val cluster = row.getString(2)
      byName.get(name).foreach { cands =>
        val np = newOcc((pid, name))
        val scores = cands.map(c => c.vid -> result.model.score(Similarity.gamma(np, c, result.stats).toSeq)).toMap
        if (!cluster.contains("#new")) {
          val best = scores.values.max
          assert(math.abs(scores(cluster) - best) < 1e-9, s"$pid/$name not argmax")
        }
      }
    }
  }

  test("a new occurrence's profile is the batch fold of its singleton vertex") {
    // The held-out corpus alone with an unreachable eta: every occurrence is a
    // `name#p<pid>` singleton vertex with its batch profile.
    val singletons = ScnBuilder.build(spark, authNew, eta = Int.MaxValue)
    val batch = Profiles.build(spark, singletons, papersNew, authNew, wlIters = 2)
      .collect().map(p => (p.pids, p.name) -> p.copy(vid = "")).toMap
    val judged = Incremental.newProfiles(spark, papersNew, authNew, wlIters = 2).collect()
    assert(judged.length.toLong === authNew.select("pid", "name").distinct().count())
    judged.foreach { p =>
      assert(p.vid === s"${p.name}#new${p.pids.head}")
      assert(p.copy(vid = "") === batch((p.pids, p.name)), p.vid)
    }
  }
}
