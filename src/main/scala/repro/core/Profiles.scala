package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, KeyValueGroupedDataset, SparkSession}
import org.apache.spark.sql.functions._
import Model._

/** Builds one [[Model.VertexProfile]] per SCN vertex that owns papers.
  *
  * Relational parts (paper attributes, co-author lists) are DataFrame joins;
  * the per-vertex fold is a `groupByKey(vid).mapGroups`. WL features need the
  * instance-level SCN adjacency, which is SCR-derived and therefore small —
  * it is collected once and broadcast.
  */
object Profiles {

  /** Separator inside encoded clique strings ("yz", y < z). */
  val CliqueSep = '\u0001'

  def encodeClique(y: String, z: String): String =
    if (y < z) s"$y$CliqueSep$z" else s"$z$CliqueSep$y"

  /** The occurrence table: one [[Model.OccurrenceRow]] per distinct
    * (pid, name) of a paper in `papers`. Duplicate occurrences collapse, and
    * `coNames` is the paper's other names, sorted. SCN profiles, the
    * incremental judge and the baselines all read occurrences from here.
    */
  def occurrences(papers: DataFrame, authorships: DataFrame): DataFrame = {
    val occ = authorships.select("pid", "name").distinct()
    val names = occ.groupBy("pid").agg(collect_list("name").as("names"))
    occ
      .join(papers.select("pid", "title", "venue", "year"), Seq("pid"))
      .join(names, Seq("pid"))
      .select(
        col("pid"), col("name"), col("title"), col("venue"), col("year"),
        array_sort(array_remove(col("names"), col("name"))).as("coNames"),
      )
  }

  /** The profile fold: a vertex's occurrence rows become its profile (wl left
    * empty). Rows are taken in pid order, so `wordYears` — whose order feeds
    * γ3's floating-point mean — does not depend on shuffle order.
    */
  def fold(vid: String, rows: Seq[OccurrenceRow]): VertexProfile = {
    val byPid = rows.sortBy(_.pid)
    VertexProfile(
      vid = vid,
      name = byPid.head.name,
      pids = byPid.map(_.pid),
      wordYears = byPid.flatMap(r => r.title.map(w => (w, r.year))),
      venues = byPid.map(_.venue).sorted,
      cliques = byPid.flatMap { r =>
        val cs = r.coNames
        for (i <- cs.indices; j <- (i + 1) until cs.size) yield encodeClique(cs(i), cs(j))
      }.distinct.sorted,
      wl = Map.empty,
    )
  }

  /** Each vertex's occurrence rows, grouped by vid: what [[fold]] reads.
    * `vertexPapers` holds (vid, name, pid) rows, as in [[Model.Scn]].
    */
  def vertexRows(spark: SparkSession, vertexPapers: DataFrame, papers: DataFrame, authorships: DataFrame)
      : KeyValueGroupedDataset[String, OccurrenceRow] = {
    import spark.implicits._
    val occ = occurrences(papers, authorships)
    vertexPapers
      .join(occ, Seq("pid", "name"))
      .select(col("vid"), struct(occ.columns.map(col).toIndexedSeq: _*))
      .as[(String, OccurrenceRow)]
      .groupByKey(_._1)
      .mapValues(_._2)
  }

  /** Profiles without WL features (wl left empty). */
  def buildBase(spark: SparkSession, scn: Scn, papers: DataFrame, authorships: DataFrame): Dataset[VertexProfile] = {
    import spark.implicits._
    vertexRows(spark, scn.vertexPapers, papers, authorships).mapGroups((vid, it) => fold(vid, it.toSeq))
  }

  /** Attach WL features using the broadcast SCN adjacency. */
  def withWl(
      spark: SparkSession,
      base: Dataset[VertexProfile],
      scn: Scn,
      wlIters: Int,
  ): Dataset[VertexProfile] = {
    import spark.implicits._
    val edgeRows = scn.edges.select("src", "dst").as[(String, String)].collect()
    val adj: Map[String, Array[String]] = {
      val m = scala.collection.mutable.HashMap.empty[String, scala.collection.mutable.ArrayBuffer[String]]
      edgeRows.foreach { case (s, d) =>
        m.getOrElseUpdate(s, scala.collection.mutable.ArrayBuffer.empty) += d
        m.getOrElseUpdate(d, scala.collection.mutable.ArrayBuffer.empty) += s
      }
      m.map { case (k, v) => k -> v.distinct.sorted.toArray }.toMap
    }
    val bAdj = spark.sparkContext.broadcast(adj)
    base.map { p =>
      p.copy(wl = WlKernel.features(p.vid, bAdj.value, wlIters))
    }
  }

  /** Full profile build: relational fold + WL attachment. */
  def build(
      spark: SparkSession,
      scn: Scn,
      papers: DataFrame,
      authorships: DataFrame,
      wlIters: Int = 2,
  ): Dataset[VertexProfile] =
    withWl(spark, buildBase(spark, scn, papers, authorships), scn, wlIters)

  /** Merge several profiles into one (used when GCN clusters vertices and in
    * the incremental judge). WL maps are summed — an approximation of the
    * merged vertex's ego features, adequate because γ1 is normalised.
    * Members are taken in vid order, so the result does not depend on the
    * order they arrive in (`wordYears` order feeds γ3's floating-point mean).
    */
  def merge(vid: String, members: Seq[VertexProfile]): VertexProfile = {
    require(members.nonEmpty, "merge of zero profiles")
    val ps = members.sortBy(_.vid)
    val wl = ps.foldLeft(Map.empty[String, Int]) { (acc, p) =>
      p.wl.foldLeft(acc) { case (a, (k, c)) => a.updated(k, a.getOrElse(k, 0) + c) }
    }
    VertexProfile(
      vid = vid,
      name = ps.head.name,
      pids = ps.flatMap(_.pids).distinct.sorted,
      wordYears = ps.flatMap(_.wordYears),
      venues = ps.flatMap(_.venues).sorted,
      cliques = ps.flatMap(_.cliques).distinct.sorted,
      wl = wl,
    )
  }
}
