package repro.perfbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** Per-layer Spark counters, attributed through job groups.
  *
  * The benchmark sets a job group around each call into a layer; this
  * listener maps every job (and its stages) to the group's layer and sums the
  * task metrics of those stages. Only public Spark API is used, so nothing
  * inside the pipeline has to change to be traced.
  */
final class LayerListener extends SparkListener {
  /** Local property under which `SparkContext.setJobGroup` stores the id. */
  private val JobGroupProperty = "spark.jobGroup.id"

  final class Counters {
    var jobs = 0L
    var cpuNs = 0L
    var shuffleWriteBytes = 0L
    var resultBytes = 0L
  }

  private val stageGroup = mutable.HashMap.empty[Int, String]
  private val endedJobs = mutable.HashSet.empty[Int]
  private val byGroup = mutable.HashMap.empty[String, Counters]

  private def counters(group: String): Counters = byGroup.getOrElseUpdate(group, new Counters)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(JobGroupProperty))).foreach { g =>
      counters(g).jobs += 1
      e.stageIds.foreach(s => stageGroup(s) = g)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = counters(g)
      c.cpuNs += m.executorCpuTime
      c.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      c.resultBytes += m.resultSize
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { endedJobs += e.jobId }

  /** Blocks until the listener has seen the end of every given job: events
    * arrive asynchronously, and a job's task-end events precede its job-end.
    */
  def await(jobIds: Seq[Int], timeoutMs: Long = 60000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!synchronized(jobIds.forall(endedJobs.contains))) {
      if (System.currentTimeMillis() > deadline)
        throw new IllegalStateException(s"listener missed job ends among $jobIds")
      Thread.sleep(2)
    }
  }

  def snapshot(group: String): Counters = synchronized(counters(group))
}

/** One traced layer call.
  *
  * @param repeated the call repeats work the untraced pipeline does once
  *                 (e.g. SCR mining timed on its own to split the SCN layer)
  */
final case class Span(
    name: String,
    parent: String,
    iteration: Int,
    startNs: Long,
    endNs: Long,
    repeated: Boolean,
    rowsOut: Long,
    jobs: Long,
    cpuNs: Long,
    shuffleWriteBytes: Long,
    resultBytes: Long,
) {
  def wallMs: Double = (endNs - startNs) / 1e6
}

/** Records spans around layer calls; one job group per span. */
final class Tracer(sc: SparkContext) {
  val listener = new LayerListener
  sc.addSparkListener(listener)

  val spans = mutable.ArrayBuffer.empty[Span]
  private var seq = 0

  /** Runs `body` as layer `name`; `body` must materialise its output and
    * return it together with its row count.
    */
  def span[T](name: String, iteration: Int, parent: String = "pipeline", repeated: Boolean = false)(
      body: => (T, Long)
  ): T = {
    seq += 1
    val group = s"perfbench-$seq-$name"
    sc.setJobGroup(group, name, interruptOnCancel = false)
    val t0 = System.nanoTime()
    val (out, rows) =
      try body
      finally sc.clearJobGroup()
    val t1 = System.nanoTime()
    listener.await(sc.statusTracker.getJobIdsForGroup(group).toSeq)
    val c = listener.snapshot(group)
    spans += Span(name, parent, iteration, t0, t1, repeated, rows, c.jobs, c.cpuNs, c.shuffleWriteBytes, c.resultBytes)
    out
  }

  def toJson: String =
    spans.map { s =>
      Json.obj(
        "name" -> Json.str(s.name), "parent" -> Json.str(s.parent), "iteration" -> s.iteration.toString,
        "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString, "repeated" -> s.repeated.toString,
        "rows_out" -> s.rowsOut.toString, "spark_jobs" -> s.jobs.toString, "executor_cpu_ns" -> s.cpuNs.toString,
        "shuffle_write_bytes" -> s.shuffleWriteBytes.toString, "driver_result_bytes" -> s.resultBytes.toString,
      )
    }.mkString("[\n", ",\n", "\n]")
}
