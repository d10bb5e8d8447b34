package repro.core

import org.scalacheck.Gen
import repro.{PropChecks, SparkSpec}
import repro.util.UnionFind
import Model._

class GcnSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  private val model = Em.EmModel(
    p = 0.2,
    matched = Seq(ExpFamily.Gaussian(0.8, 0.01), ExpFamily.Exponential(1.0),
      ExpFamily.Gaussian(0.8, 0.01), ExpFamily.Exponential(1.0),
      ExpFamily.Exponential(1.0), ExpFamily.Exponential(1.0)),
    unmatched = Seq(ExpFamily.Gaussian(0.1, 0.01), ExpFamily.Exponential(20.0),
      ExpFamily.Gaussian(0.1, 0.01), ExpFamily.Exponential(20.0),
      ExpFamily.Exponential(20.0), ExpFamily.Exponential(20.0)),
  )

  private val hiG = Seq(0.8, 0.5, 0.8, 0.5, 0.5, 0.5)
  private val loG = Seq(0.1, 0.0, 0.1, 0.0, 0.0, 0.0)

  test("scorePairs computes the broadcast model's log-odds per partition") {
    val pairs = Seq(
      PairGamma("a", "a#c0", "a#c1", hiG),
      PairGamma("a", "a#c0", "a#p5", loG),
    ).toDS()
    val scored = GcnBuilder.scorePairs(spark, pairs, model).collect()
    val hi = scored.find(_.vj == "a#c1").get.score
    val lo = scored.find(_.vj == "a#p5").get.score
    assert(hi > 0.0)
    assert(lo < 0.0)
    assert(math.abs(hi - model.score(hiG)) < 1e-9)
  }

  test("clusterMapping merges accepted pairs transitively") {
    val vertices = Seq(
      ("a#c0", "a"), ("a#c1", "a"), ("a#c2", "a"), ("a#p9", "a"),
    ).toDF("vid", "name")
    val scored = Seq(
      ScoredPair("a", "a#c0", "a#c1", 5.0),
      ScoredPair("a", "a#c1", "a#c2", 5.0),
      ScoredPair("a", "a#c2", "a#p9", -3.0),
    ).toDS()
    val rows = GcnBuilder.clusterMapping(spark, vertices, scored, delta = 0.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    assert(rows("a#c0") === rows("a#c1"))
    assert(rows("a#c1") === rows("a#c2"))
    assert(rows("a#p9") !== rows("a#c0"))
    // canonical id is the min member
    assert(rows("a#c0") === "a#c0")
  }

  test("delta gates the merge") {
    val vertices = Seq(("a#c0", "a"), ("a#c1", "a")).toDF("vid", "name")
    val scored = Seq(ScoredPair("a", "a#c0", "a#c1", 1.0)).toDS()
    val loose = GcnBuilder.clusterMapping(spark, vertices, scored, delta = 0.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    val strict = GcnBuilder.clusterMapping(spark, vertices, scored, delta = 2.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    assert(loose("a#c0") === loose("a#c1"))
    assert(strict("a#c0") !== strict("a#c1"))
  }

  test("unmentioned vertices map to themselves") {
    val vertices = Seq(("b#p1", "b")).toDF("vid", "name")
    val scored = spark.emptyDataset[ScoredPair]
    val m = GcnBuilder.clusterMapping(spark, vertices, scored, 0.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    assert(m("b#p1") === "b#p1")
  }

  test("assignment joins vertexPapers through the mapping") {
    val vp = Seq(("a#c0", "a", 1L), ("a#c1", "a", 2L)).toDF("vid", "name", "pid")
    val mapping = Seq(("a#c0", "a", "a#c0"), ("a#c1", "a", "a#c0")).toDF("vid", "name", "cluster")
    val assign = GcnBuilder.assignment(vp, mapping)
      .orderBy("pid").as[(Long, String, String)].collect()
    assert(assign.toSeq === Seq((1L, "a", "a#c0"), (2L, "a", "a#c0")))
  }

  test("property: clusterMapping equals a driver-side union-find over accepted pairs") {
    val names = Seq("a", "b", "c#x")
    val vertices = for (n <- names; i <- 0 to 6) yield (s"$n#v$i", n)
    // v6 of each name is in no pair; pairs never cross names.
    val pairGen = for {
      name <- Gen.oneOf(names)
      i <- Gen.choose(0, 5)
      k <- Gen.choose(0, 4)
      score <- Gen.oneOf(Gen.choose(-5.0, 5.0), Gen.const(0.0))
    } yield {
      val j = if (k >= i) k + 1 else k
      ScoredPair(name, s"$name#v${math.min(i, j)}", s"$name#v${math.max(i, j)}", score)
    }
    def oracle(pairs: Seq[ScoredPair], delta: Double): Map[String, String] = {
      val uf = new UnionFind[String]
      pairs.filter(_.score >= delta).foreach(p => uf.union(p.vi, p.vj))
      val root = uf.groups().flatMap(g => g.map(_ -> g.min)).toMap
      vertices.map { case (vid, _) => vid -> root.getOrElse(vid, vid) }.toMap
    }
    val vertexDf = vertices.toDF("vid", "name")
    val saved = spark.conf.get("spark.sql.shuffle.partitions")
    try {
      for (parts <- Seq(1, 8)) {
        spark.conf.set("spark.sql.shuffle.partitions", parts.toLong)
        forAll(Gen.listOf(pairGen), samples = 8) { pairs =>
          for (delta <- Seq(Double.NegativeInfinity, 0.0, Double.PositiveInfinity)) {
            val rows = GcnBuilder.clusterMapping(spark, vertexDf, pairs.toDS(), delta)
              .as[(String, String, String)].collect()
            assert(rows.length === vertices.size)
            assert(rows.map(r => r._1 -> r._3).toMap === oracle(pairs, delta), s"δ=$delta, $parts partitions")
            rows.groupBy(_._3).foreach { case (c, rs) =>
              assert(rs.map(_._2).distinct.length === 1, s"cluster $c spans names")
            }
          }
        }
      }
    } finally spark.conf.set("spark.sql.shuffle.partitions", saved)
  }
}
