package repro.perfbench

import java.nio.file.Paths
import repro.core.Iuad

/** The benchmark's own test: its output checks must count a faulty output
  * as a failed operation, not pass it. Runs a real pipeline and judge on a
  * small corpus, then injects one fault at a time.
  *
  *   SelfTest --out <dir>     (exit code 0 iff every case holds)
  */
object SelfTest {

  def main(argv: Array[String]): Unit = {
    val out = argv.sliding(2).collectFirst { case Array("--out", d) => d }.getOrElse(".bench_build/results")
    val spark = Main.session(2, Paths.get(out, "spark-local").toString)
    spark.sparkContext.setLogLevel("ERROR")
    val cfg = Iuad.Config()
    val w = Workload("self-test", sf = 0.002, heldOut = 16, baseInSetup = true)
    val c = Corpus.make(spark, w, 42L)
    val (r, rows, _) = Layers.pipeline(spark, c, cfg)
    val (cl, _) = Layers.clusters(spark, r)
    val base = Layers.Base(r, rows, cl, Layers.clusterIds(spark, cl))
    val batch = c.batches.head
    val judged = Layers.judge(spark, base, batch, cfg).map(j => (j._1, j._2, j._3))
    spark.stop()

    def failedOps(violations: Long): Long = { val o = new Ops; o.record("case", violations); o.failed }
    val other = rows.find(_._2 == judged.head._2).map(_._3)
    val cases = Seq(
      "intact assignment passes" -> (failedOps(Checks.assignment(c.baseOccurrences, rows)) == 0L),
      "one dropped assignment row fails" -> (failedOps(Checks.assignment(c.baseOccurrences, rows.tail)) == 1L),
      "one duplicated assignment row fails" -> (failedOps(Checks.assignment(c.baseOccurrences, rows :+ rows.head)) == 1L),
      "intact judgement passes" -> (failedOps(Checks.judged(batch.occurrences, judged, base.clusterIds)) == 0L),
      "one dropped judgement fails" -> (failedOps(Checks.judged(batch.occurrences, judged.tail, base.clusterIds)) == 1L),
      "judgement into an unknown cluster fails" -> (failedOps(Checks.judged(batch.occurrences,
        judged.updated(0, judged.head.copy(_3 = "nobody#c0")), base.clusterIds)) == 1L),
      "judgement into another name's cluster fails" -> (failedOps(Checks.judged(batch.occurrences,
        judged.updated(0, judged.head.copy(_3 = rows.find(_._2 != judged.head._2).get._3)), base.clusterIds)) == 1L),
      "judgement into a known same-name cluster passes" -> other.forall(o =>
        failedOps(Checks.judged(batch.occurrences, judged.updated(0, judged.head.copy(_3 = o)), base.clusterIds)) == 0L),
    )
    cases.foreach { case (name, ok) => println(s"${if (ok) "ok  " else "FAIL"} $name") }
    if (cases.exists(!_._2)) sys.exit(1)
  }
}
