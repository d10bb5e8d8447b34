package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model.OccurrenceRow
import repro.core.Profiles

/** Common plumbing for the comparison baselines (§VI-A.3).
  *
  * Every unsupervised baseline is a per-name clusterer: it sees the papers
  * carrying one (target) name — the classic ego-network view the paper
  * criticises — and groups them into author clusters. The Spark runner
  * distributes names across partitions and folds each group on the driver
  * side of `flatMapGroups` (groups are small: ≤ a few hundred papers).
  */
object Baselines {

  /** One paper as seen from a target name's ego-network. */
  final case class PaperRec(
      pid: Long,
      coNames: Seq[String], // co-author names, target excluded, sorted
      title: Seq[String],
      venue: String,
      year: Int,
  )

  /** A per-name clustering algorithm. */
  trait NameClusterer extends Serializable {
    def id: String

    /** Cluster labels (dense 0-based), one per input paper. */
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int]
  }

  /** Run a clusterer over the papers of every name (restricted to
    * `onlyNames` when given).
    *
    * @return (pid, name, cluster, nanosPerName) — `cluster` is globally
    *         unique across names; `nanos` is the per-name wall time, repeated
    *         on each of the name's rows (used for Table V).
    */
  def run(
      spark: SparkSession,
      papers: DataFrame,
      authorships: DataFrame,
      clusterer: NameClusterer,
      onlyNames: Option[DataFrame] = None,
  ): DataFrame = {
    import spark.implicits._
    val occ = Profiles.occurrences(papers, authorships)
    onlyNames.fold(occ)(names => occ.join(names, Seq("name")))
      .as[OccurrenceRow]
      .groupByKey(_.name)
      .flatMapGroups { (name, it) =>
        val recs = it.map(o => PaperRec(o.pid, o.coNames, o.title, o.venue, o.year)).toIndexedSeq.sortBy(_.pid)
        val t0 = System.nanoTime()
        val labels = clusterer.clusterName(recs)
        val nanos = System.nanoTime() - t0
        recs.indices.map(i => (recs(i).pid, name, s"$name::${labels(i)}", nanos))
      }
      .toDF("pid", "name", "cluster", "nanos")
  }
}
