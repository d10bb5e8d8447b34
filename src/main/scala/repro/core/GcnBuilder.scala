package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.util.UnionFind
import Model._

/** Stage II of IUAD: score candidate pairs with the learned generative model
  * and merge accepted pairs into global-collaboration-network clusters.
  *
  * Scoring is distributed (broadcast model, posterior per partition); merging
  * is a per-name union-find on the *accepted* pairs, also on the executors.
  */
object GcnBuilder {

  /** Score every candidate pair with sc_j = log(P(M|γ)/P(U|γ)) (Eq. 11). */
  def scorePairs(spark: SparkSession, pairs: Dataset[PairGamma], model: Em.EmModel): Dataset[ScoredPair] = {
    import spark.implicits._
    val bModel = spark.sparkContext.broadcast(model)
    pairs.mapPartitions { it =>
      val m = bModel.value
      it.map(p => ScoredPair(p.name, p.vi, p.vj, m.score(p.g)))
    }
  }

  /** Cluster mapping: vid → gcnId (canonical min member vid) from accepted
    * pairs (score ≥ δ), one union-find per name (pairs never cross names).
    * Vertices in no accepted pair map to themselves.
    */
  def clusterMapping(
      spark: SparkSession,
      vertices: DataFrame,
      scored: Dataset[ScoredPair],
      delta: Double,
  ): DataFrame = {
    import spark.implicits._
    val merged = scored
      .filter(_.score >= delta)
      .groupByKey(_.name)
      .flatMapGroups { (_, it) =>
        val uf = new UnionFind[String]
        it.foreach(sp => uf.union(sp.vi, sp.vj))
        uf.groups().iterator.flatMap { g => val c = g.min; g.map(_ -> c) }
      }
      .toDF("vid", "cluster")
    vertices
      .join(merged, Seq("vid"), "left")
      .select(col("vid"), col("name"), coalesce(col("cluster"), col("vid")).as("cluster"))
  }

  /** Paper-occurrence level assignment: (pid, name, cluster). */
  def assignment(vertexPapers: DataFrame, mapping: DataFrame): DataFrame =
    vertexPapers
      .join(mapping.select("vid", "cluster"), Seq("vid"))
      .select("pid", "name", "cluster")
}
