package repro.perfbench

/** Output checks. Each returns the number of violations it found; an
  * operation with any violation counts as failed.
  */
object Checks {

  /** Every input (pid, name) occurrence appears exactly once among the
    * output keys, and no output key is outside the input: one violation per
    * missing, duplicated or foreign occurrence.
    */
  def exactlyOnce(occurrences: Iterable[(Long, String)], outputKeys: Iterable[(Long, String)]): Long = {
    val seen = outputKeys.groupMapReduce(identity)(_ => 1L)(_ + _)
    val occ = occurrences.toSet
    val missingOrDup = occ.iterator.map(k => seen.getOrElse(k, 0L)).count(_ != 1L).toLong
    val foreign = seen.keysIterator.count(k => !occ.contains(k)).toLong
    missingOrDup + foreign
  }

  /** Batch assignment: every occurrence assigned exactly once. */
  def assignment(occurrences: Iterable[(Long, String)], rows: Iterable[(Long, String, String)]): Long =
    exactlyOnce(occurrences, rows.map(r => (r._1, r._2)))

  /** Incremental judgement: every new occurrence judged exactly once, into
    * an existing cluster of the same name or a fresh `name#new<pid>` one.
    */
  def judged(
      occurrences: Iterable[(Long, String)],
      rows: Iterable[(Long, String, String)],
      clusterIds: String => Boolean,
  ): Long = {
    val badCluster = rows.count { case (pid, name, cluster) =>
      cluster != s"$name#new$pid" && !(cluster.startsWith(s"$name#") && clusterIds(cluster))
    }
    exactlyOnce(occurrences, rows.map(r => (r._1, r._2))) + badCluster
  }
}

/** Attempted / failed operation counts behind `attempted`, `failed` and
  * `success_rate`. An operation is one pipeline run or one judged batch.
  */
final class Ops {
  var attempted = 0L
  var failed = 0L
  val problems = scala.collection.mutable.ArrayBuffer.empty[String]

  def record(what: String, violations: Long): Unit = {
    attempted += 1
    if (violations != 0L) {
      failed += 1
      problems += s"$what: $violations violation(s)"
    }
  }

  def fail(what: String, e: Throwable): Unit = {
    attempted += 1
    failed += 1
    problems += s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}"
  }
}
