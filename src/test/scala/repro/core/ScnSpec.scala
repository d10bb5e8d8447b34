package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec

class ScnSpec extends SparkSpec {
  import spark.implicits._

  /** The running example of Fig. 4: 2-SCRs (a,b),(a,c),(a,d),(b,e),(c,d),(b,c).
    * Expected: one instance of a connected to {b,c,d}; b has a second
    * instance paired with e.
    */
  private def fig4Authorships = {
    // Build co-author lists that produce exactly those 2-SCRs.
    val lists = Seq(
      Seq("a", "b"), Seq("a", "b"),
      Seq("a", "c"), Seq("a", "c"),
      Seq("a", "d"), Seq("a", "d"),
      Seq("b", "e"), Seq("b", "e"),
      Seq("c", "d"), Seq("c", "d"),
      Seq("b", "c"), Seq("b", "c"),
      Seq("f", "g"), // below threshold: appears once
    )
    lists.zipWithIndex.flatMap { case (names, pid) => names.map(n => (pid.toLong, n)) }
      .toDF("pid", "name")
  }

  test("Fig 4: neighbour components follow the triangle rule") {
    val scrs = Scr.mine(fig4Authorships, 2)
    val nc = ScnBuilder.neighborComponents(spark, scrs).collect()
    // For name a: neighbours b, c, d. Triangles (a,b,c) and (a,c,d) connect
    // them all into a single component.
    val aComps = nc.filter(_.name == "a").map(_.comp).distinct
    assert(aComps.length === 1)
    // For name b: neighbours a, c, e. (a,c) is an SCR => {a,c} one component;
    // e is separate.
    val bComps = nc.filter(_.name == "b")
    assert(bComps.map(_.comp).distinct.length === 2)
    val eComp = bComps.find(_.nbr == "e").get.comp
    val aComp = bComps.find(_.nbr == "a").get.comp
    val cComp = bComps.find(_.nbr == "c").get.comp
    assert(aComp === cComp)
    assert(eComp !== aComp)
  }

  test("Fig 4: name b gets two SCN vertices, name a gets one") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val verts = scn.vertices.as[(String, String)].collect()
    val aScr = verts.filter { case (vid, name) => name == "a" && vid.contains("#c") }
    val bScr = verts.filter { case (vid, name) => name == "b" && vid.contains("#c") }
    assert(aScr.length === 1)
    assert(bScr.length === 2)
  }

  test("Fig 4: below-threshold names become singletons") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val fVerts = scn.vertices.filter(col("name") === "f").as[(String, String)].collect()
    assert(fVerts.length === 1)
    assert(fVerts.head._1.contains("#p"))
  }

  test("Fig 4: instance edges connect the right components") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val edges = scn.edges.as[(String, String)].collect().toSet
    // 6 SCRs → 6 instance edges.
    assert(edges.size === 6)
    // b's instance adjacent to e differs from b's instance adjacent to a.
    val bToE = edges.collect { case (s, d) if s.startsWith("b#") && d.startsWith("e#") => s }
      .headOption.orElse(edges.collect { case (s, d) if d.startsWith("b#") && s.startsWith("e#") => d }.headOption)
    val bToA = edges.collect { case (s, d) if s.startsWith("a#") && d.startsWith("b#") => d }
      .headOption.orElse(edges.collect { case (s, d) if d.startsWith("a#") && s.startsWith("b#") => s }.headOption)
    assert(bToE.isDefined && bToA.isDefined)
    assert(bToE.get !== bToA.get)
  }

  test("papers containing an SCR pair attach to SCR instances") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val vp = scn.vertexPapers.as[(String, String, Long)].collect()
    // Papers 0,1 are (a,b): both occurrences must attach to #c vertices.
    val p0 = vp.filter(_._3 == 0L)
    assert(p0.length === 2)
    assert(p0.forall(_._1.contains("#c")), s"got ${p0.mkString(",")}")
  }

  test("every (pid, name) occurrence is assigned exactly once") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val occCount = fig4Authorships.distinct().count()
    assert(scn.vertexPapers.count() === occCount)
    val dup = scn.vertexPapers.groupBy("pid", "name").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("a name containing '#' in an SCR yields one vertex row per vid") {
    val lists = Seq(Seq("C#x", "y"), Seq("C#x", "y"), Seq("C#x", "z"))
    val a = lists.zipWithIndex
      .flatMap { case (names, pid) => names.map(n => (pid.toLong, n)) }
      .toDF("pid", "name")
    val scn = ScnBuilder.build(spark, a, 2)
    val verts = scn.vertices.as[(String, String)].collect()
    assert(verts.map(_._1).distinct.length === verts.length, verts.mkString(","))
    assert(verts.collect { case (vid, name) if vid.startsWith("C#x#") => name }.toSet === Set("C#x"))
    val noMerges = GcnBuilder.clusterMapping(spark, scn.vertices, spark.emptyDataset[Model.ScoredPair], 0.0)
    val assigned = GcnBuilder.assignment(scn.vertexPapers, noMerges).as[(Long, String, String)].collect()
    assert(assigned.length === a.count())
    assert(assigned.map(r => (r._1, r._2)).distinct.length === assigned.length)
  }

  test("assignment prefers the strongest SCR partner") {
    // name x co-authors with y (3 papers) and z (2 papers); y and z are not
    // SCR-connected, so x has two components. A paper with both y and z must
    // go to the y-component (higher cnt).
    val lists = Seq(
      Seq("x", "y"), Seq("x", "y"), Seq("x", "y"),
      Seq("x", "z"), Seq("x", "z"),
      Seq("x", "y", "z"),
    )
    val a = lists.zipWithIndex
      .flatMap { case (names, pid) => names.map(n => (pid.toLong, n)) }
      .toDF("pid", "name")
    val scn = ScnBuilder.build(spark, a, 2)
    val nc = scn.neighborComp.as[(String, String, Int)].collect()
    val yComp = nc.find(r => r._1 == "x" && r._2 == "y").get._3
    val vp = scn.vertexPapers.as[(String, String, Long)].collect()
    val mixed = vp.find(r => r._3 == 5L && r._2 == "x").get
    assert(mixed._1 === s"x#c$yComp")
  }

  test("SCN on synthetic corpus: occurrences preserved and vertices typed") {
    val (_, auth) = repro.dblp.DblpSynth.generate(spark, repro.dblp.DblpSynth.Config(sf = 0.002, seed = 3L))
    val scn = ScnBuilder.build(spark, auth, 3)
    assert(scn.vertexPapers.count() === auth.select("pid", "name").distinct().count())
    val vids = scn.vertices.select("vid").as[String].collect()
    assert(vids.forall(v => v.contains("#c") || v.contains("#p")))
  }

  test("SCN stage alone is high precision on the synthetic corpus") {
    val (_, auth) = repro.dblp.DblpSynth.generate(spark, repro.dblp.DblpSynth.Config(sf = 0.004, seed = 42L))
    val scn = ScnBuilder.build(spark, auth, 3)
    val assignment = scn.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster"))
    val evalNames = Evaluation.ambiguousNames(auth)
    val m = Evaluation.pairwiseMicro(spark, assignment, auth, Some(evalNames))
    assert(m.precision > 0.8, s"SCN precision too low: $m")
    assert(m.recall < m.precision, s"SCN should favour precision: $m")
  }
}
