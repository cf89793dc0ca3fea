package rwbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.Experiments
import repro.graph.{CSRGraph, GraphGen}
import repro.memsim.{MemConfig, MemSim, SimStats}

/** Command-line options; see `rwbench/run.py`, which builds and launches this.
  *
  * `seed` picks the queries: it offsets the repository's default sources
  * seed (5) and walker seed (2021), so seed 0 runs the repository's own
  * configuration. The graph keeps the repository's seed, 42.
  */
final case class Opts(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    launchEpochNs: Long, // wall clock at process launch, for the JVM start time
    resultPath: String,
    recordPath: String,
    workDir: String,
)

object Main {
  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def arg(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(arg("workload"), arg("seed").toLong, arg("seconds").toInt, arg("trace") == "1",
      arg("launch-ns").toLong, arg("result"), arg("record"), arg("work"))
    require(o.seconds >= 1, "--seconds must be at least 1")
    new Bench(Workloads.byName(o.workload), o).run()
  }

  def epochNs(): Long = {
    val t = java.time.Instant.now()
    t.getEpochSecond * 1000000000L + t.getNano
  }

  def writeFile(path: String, text: String): Unit = {
    val p = Paths.get(path)
    Option(p.getParent).foreach(Files.createDirectories(_))
    Files.write(p, text.getBytes(StandardCharsets.UTF_8))
  }
}

/** One benchmark run of one workload.
  *
  * Phases: a cold set-up (Spark session + graph build); a single-worker
  * reference run that gives the simulated metrics and the expected outputs;
  * warm-up repetitions; `Windows` measuring windows that share `seconds`,
  * each after the first preceded by a warm set-up; the remaining warm
  * set-ups; with tracing, extra per-layer probes. Every repetition's output is checked against the
  * reference run.
  */
final class Bench(w: Workload, o: Opts) {
  import Bench._

  private val startEpochNs = Main.epochNs()
  private val tracer = new Tracer(o.trace)
  private val cfg = MemConfig()
  private val nproc = Runtime.getRuntime.availableProcessors
  private val cores = math.min(SparkCores, nproc)
  private val graphSeed = 42L // the dataset: fixed, as the paper's graphs are
  private val sourcesSeed = 5L + o.seed
  private val walkerSeed = 2021L + o.seed
  private val n = w.queries

  private var attempted = 0
  private var failed = 0
  private val failures = ArrayBuffer.empty[String]

  /** Record a failed check; returns `ok`. */
  private def check(ok: Boolean, what: => String): Boolean = {
    if (!ok && failures.size < 20) failures += what
    ok
  }

  private def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("rwbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", o.workDir + "/spark-local")
      .config("spark.sql.warehouse.dir", o.workDir + "/spark-warehouse")
      // Keep Spark's job/SQL history small so the driver heap after a full
      // GC does not grow with the number of repetitions a run fits in.
      .config("spark.ui.retainedJobs", "4")
      .config("spark.ui.retainedStages", "4")
      .config("spark.ui.retainedTasks", "64")
      .config("spark.sql.ui.retainedExecutions", "4")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def run(): Unit = {
    val jvmStartS = (startEpochNs - o.launchEpochNs) / 1e9

    // ---- set-up: Spark session + graph build. It runs `Setups` times: once
    // cold here, once before each later measuring window, and the rest after
    // the measured phase.
    var spark: SparkSession = null
    var g: CSRGraph = null
    val setupS = ArrayBuffer.empty[Double]
    def setUp(): Unit = {
      if (spark != null) spark.stop()
      System.gc()
      val t0 = System.nanoTime()
      tracer.span("setup") {
        spark = tracer.span("spark.session")(session())
        g = tracer.span("graph.build")(GraphGen.build(spark, w.dataset, graphSeed))
      }
      setupS += (System.nanoTime() - t0) / 1e9
    }
    setUp()

    val app = Experiments.makeApp(w.app, g)
    val sources = Experiments.sources(w.app, g, n, sourcesSeed)
    val hub = Experiments.hubVertex(g)
    val (tables, _) = ThunderRW.preprocess(g, app, w.sampling, cfg, charge = false)
    def walkers(ids: Seq[Int]) = ThunderRW.makeWalkers(ids, sources, walkerSeed)

    // ---- single-worker reference run: simulated metrics and expected outputs.
    // Traced runs hand the engine the bench's own MemSim to read its
    // counters; ThunderRW.runLocal builds the same engine on a fresh MemSim.
    val sim = new MemSim(cfg)
    val e0 = System.nanoTime()
    val ref = tracer.span("engine") {
      if (o.trace) ownEngine(g, app, tables, sim, walkers(0 until n))
      else ThunderRW.runLocal(g, app, w.sampling, w.kind, tables, walkers(0 until n), cfg, TaskRing)
    }
    val engineS = (System.nanoTime() - e0) / 1e9
    val refHash = walkHash(ref.walks.indices.iterator.map(i => (i.toLong, ref.walks(i))))

    // ---- once per process: the reference walks are walks of the graph, and
    // walks depend only on the walker id, not on the engine or on which
    // walkers share a ring.
    attempted += 1
    val refOk = check(ref.walks.indices.forall(i => ref.walks(i)(0) == sources(i) && hopsAreEdges(g, ref.walks(i))),
      "reference run: a walk leaves its source or takes a hop that is not a CSR edge")
    val sample = (0 until EquivSample).map(i => (i.toLong * n / EquivSample).toInt).distinct
    val seqW = ThunderRW.runLocal(g, app, w.sampling, EngineKind.Sequential, tables, walkers(sample), cfg, TaskRing).walks
    val intW = ThunderRW.runLocal(g, app, w.sampling, EngineKind.Interleaved, tables, walkers(sample), cfg, TaskRing).walks
    val equivOk = sample.indices.forall { j =>
      val id = sample(j)
      check(java.util.Arrays.equals(seqW(j), intW(j)), s"walker $id: sequential and interleaved walks differ") &
        check(java.util.Arrays.equals(seqW(j), ref.walks(id)), s"walker $id: sample walk differs from the reference run")
    }
    if (!(refOk && equivOk)) failed += 1

    // ---- how ThunderRW.run's repartition spreads the walkers on this host.
    val defaultParallelism = spark.sparkContext.defaultParallelism
    val perPartition = {
      val sp = spark
      import sp.implicits._
      sp.range(n).repartition(Threads).mapPartitions(it => Iterator(it.size)).collect().toSeq.sorted
    }

    // ---- repetitions: warm-up, then measured for `seconds`. Traced runs
    // alternate traced and untraced repetitions to measure tracing overhead.
    val untracedS = ArrayBuffer.empty[Double]
    val gcS = ArrayBuffer.empty[Double]
    val unmeasuredS = ArrayBuffer.empty[Double]
    val tracedS = ArrayBuffer.empty[Double]
    var lastSkew = 0.0
    var lastRows = 0L
    def repetition(measured: Boolean, traced: Boolean): Unit = {
      System.gc()
      tracer.enabled = traced
      val gc0 = gcSeconds()
      val t0 = System.nanoTime()
      var rows = 0L
      val sum = tracer.span("rep") {
        val s = tracer.span("fanout")(ThunderRW.run(spark, g, app, w.sampling, w.kind, n, sources,
          threads = Threads, cfg = cfg, taskRing = TaskRing, seed = walkerSeed, keepWalks = w.keepWalks))
        rows = tracer.span("output")(if (w.keepWalks) ThunderRW.walksToSteps(spark, s.walks).count() else 0L)
        s
      }
      val secs = (System.nanoTime() - t0) / 1e9
      tracer.enabled = o.trace
      if (measured) gcS += gcSeconds() - gc0
      attempted += 1
      val rep = attempted - 1
      var ok = check(sum.steps == ref.steps, s"rep $rep: ${sum.steps} steps, single-worker run took ${ref.steps}")
      if (w.keepWalks) {
        val walks = sum.walks.sortBy(_.id)
        ok &= check(walks.size == n, s"rep $rep: ${walks.size} walks for $n queries")
        ok &= check(rows == sum.steps + walks.size, s"rep $rep: $rows step rows, expected steps + walks")
        ok &= check(walks.forall(r => r.source == hub && r.path.head == hub), s"rep $rep: a walk does not start at the hub")
        ok &= check(walks.forall(r => hopsAreEdges(g, r.path)), s"rep $rep: a hop is not a CSR edge")
        ok &= check(walkHash(walks.iterator.map(r => (r.id, r.path.toArray))) == refHash,
          s"rep $rep: walks differ from the single-worker run")
      }
      if (!ok) failed += 1
      (if (!measured) unmeasuredS else if (traced) tracedS else untracedS) += secs
      val partCycles = sum.parts.map(_.stats.cycles)
      lastSkew = partCycles.max / (partCycles.sum / partCycles.size)
      lastRows = rows
    }
    // Measuring is split into `Windows` windows with a set-up between them,
    // so a transient slowdown of the host hits fewer repetitions. A new
    // session gets one unmeasured repetition first.
    (1 to Warmups).foreach(_ => repetition(measured = false, traced = false))
    var i = 0
    for (window <- 0 until Windows) {
      if (window > 0) { setUp(); repetition(measured = false, traced = false) }
      val deadline = System.nanoTime() + o.seconds * 1000000000L / Windows
      var k = 0
      while (k < MinRepsPerWindow || (System.nanoTime() < deadline && k < MaxReps)) {
        repetition(measured = true, traced = o.trace && i % 2 == 0)
        i += 1
        k += 1
      }
    }
    val measuredS = (untracedS ++ tracedS).toSeq
    val stepsPerS = Stats.median(measuredS.map(ref.steps / _))
    val heapTrail = (1 to HeapGcs).map { _ => System.gc(); Thread.sleep(200); usedHeapMb() }
    val heapMb = heapTrail.last
    while (setupS.size < Setups) setUp()

    val stats = ref.stats
    val cyclesPerStep = stats.cycles / ref.steps
    val instrPerStep = stats.instructions.toDouble / ref.steps
    val memBound = stats.tmam.memory

    val endToEnd = Json.obj(
      "steps_per_s" -> metric(stepsPerS, "steps/s"),
      "setup_s" -> metric(Stats.median(setupS.toSeq), "s"),
      "heap_mb" -> metric(heapMb, "MB"),
      "sim_cycles_per_step" -> metric(cyclesPerStep, "cycles/step"),
      "sim_mem_bound" -> metric(memBound, "ratio"),
    )

    val perLayer: Map[String, Any] = if (!o.trace) Map.empty else {
      val setupSessionS = tracer.named("spark.session").map(_.seconds)
      val setupBuildS = tracer.named("graph.build").map(_.seconds)
      val tablesS = (1 to TableProbes).map { _ =>
        val t0 = System.nanoTime()
        tracer.span("sampling.tables")(ThunderRW.preprocess(g, app, w.sampling, cfg))
        (System.nanoTime() - t0) / 1e9
      }
      val tablesMedS = Stats.median(tablesS)
      val (readNs, pairNs) = tracer.span("memsim.replay")(memsimReplay(g))
      val fanoutS = Stats.median(tracer.named("fanout").map(_.seconds))
      val steps = ref.steps.toDouble
      Json.obj(
        "spark.session_s" -> metric(Stats.median(setupSessionS), "s"),
        "graph.build_s" -> metric(Stats.median(setupBuildS), "s"),
        "graph.edges" -> metric(g.numEdges.toDouble, "count"),
        "sampling.tables_s" -> metric(tablesMedS, "s"),
        "sampling.tables_bytes" -> metric(if (tables == null) 0.0 else tables.memoryBytes.toDouble, "B"),
        "engine.ns_per_step" -> metric(engineS * 1e9 / steps, "ns/step"),
        "engine.steps" -> metric(steps, "count"),
        "engine.sim_instr_per_step" -> metric(instrPerStep, "instr/step"),
        "fanout.run_s" -> metric(fanoutS, "s"),
        "fanout.overhead_s" -> metric(fanoutS - tablesMedS - engineS / math.min(cores, Threads), "s"),
        "fanout.sim_skew" -> metric(lastSkew, "ratio"),
        "output.steps_df_s" -> metric(Stats.median(tracer.named("output").map(_.seconds)), "s"),
        "output.rows" -> metric(lastRows.toDouble, "count"),
        "memsim.l1_accesses_per_step" -> metric((sim.l1.hits + sim.l1.misses) / steps, "accesses/step"),
        "memsim.l1_hit_rate" -> metric(sim.l1.hits.toDouble / math.max(1L, sim.l1.hits + sim.l1.misses), "ratio"),
        "memsim.dram_bytes_per_step" -> metric(stats.dramBytes / steps, "B/step"),
        "memsim.demand_stall_per_step" -> metric(sim.dbgDemandStall / steps, "cycles/step"),
        "memsim.prefetch_residual_stall_per_step" -> metric(sim.dbgResidualStall / steps, "cycles/step"),
        "memsim.evict_refetch_per_step" -> metric(sim.dbgEvictRefetch / steps, "refetches/step"),
        "memsim.read_ns" -> metric(readNs, "ns"),
        "memsim.prefetch_read_ns" -> metric(pairNs, "ns"),
        "trace.overhead_pct" -> metric(
          (Stats.median(tracedS.toSeq) / Stats.median(untracedS.toSeq) - 1) * 100, "%"),
      )
    }
    spark.stop()

    val correct = failed == 0
    val paper = w.paper.map { p =>
      Json.obj(
        "source" -> p.source,
        "cycles_per_step" -> p.cyclesPerStep, "cycles_ratio" -> cyclesPerStep / p.cyclesPerStep,
        "instr_per_step" -> p.instrPerStep, "instr_ratio" -> instrPerStep / p.instrPerStep,
        "mem_bound_range" -> Seq(p.memBoundLo, p.memBoundHi),
        "mem_bound_in_range" -> (memBound >= p.memBoundLo && memBound <= p.memBoundHi))
    }.getOrElse(Json.obj("status" -> "unvalidated: the paper reports no figure for this cell"))

    val record = Json.obj(
      "workload" -> w.name, "why" -> w.why,
      "seeds" -> Json.obj("offset" -> o.seed, "graph" -> graphSeed, "sources" -> sourcesSeed, "walkers" -> walkerSeed),
      "config" -> Json.obj(
        "dataset" -> w.dataset, "app" -> w.app, "sampling" -> w.sampling.toString, "engine" -> w.kind.toString,
        "queries" -> n, "keep_walks" -> w.keepWalks, "simulated_workers" -> Threads, "task_ring" -> TaskRing),
      "host" -> Json.obj(
        "nproc" -> nproc, "spark_master" -> s"local[$cores]",
        "default_parallelism" -> defaultParallelism,
        "walkers_per_partition" -> perPartition,
        "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1e6,
        "java" -> System.getProperty("java.version")),
      "checks" -> Json.obj("correct" -> correct, "attempted" -> attempted, "failed" -> failed,
        "failures" -> failures.toSeq),
      "single_worker" -> Json.obj("steps" -> ref.steps, "walk_hash" -> refHash,
        "host_seconds" -> engineS, "sim_stats" -> simStatsJson(stats)),
      "paper" -> paper,
      "timings" -> Json.obj("jvm_start_s" -> jvmStartS, "setup_s" -> setupS.toSeq, "warmups" -> Warmups, "unmeasured_rep_s" -> unmeasuredS.toSeq,
        "measured_rep_s" -> untracedS.toSeq, "traced_rep_s" -> tracedS.toSeq, "gc_in_rep_s" -> gcS.toSeq, "heap_mb_after_gcs" -> heapTrail),
      "end_to_end" -> endToEnd,
      "per_layer" -> perLayer,
      "spans" -> tracer.summary.map { case (name, count, med, self) =>
        Json.obj("name" -> name, "count" -> count, "median_s" -> med, "median_self_s" -> self) },
    )
    Main.writeFile(o.recordPath, Json.write(record) + "\n")
    Console.err.println(s"[rwbench] ${w.name} seed=${o.seed} trace=${o.trace} nproc=$nproc master=local[$cores] " +
      s"defaultParallelism=$defaultParallelism walkersPerPartition=${perPartition.mkString(",")} " +
      f"steps/s=$stepsPerS%.0f simCycles/step=$cyclesPerStep%.3f simMemBound=$memBound%.4f " +
      s"walkHash=$refHash checks=$attempted/$failed${if (correct) "" else " FAILED: " + failures.mkString("; ")}")
    Main.writeFile(o.resultPath, Json.write(Json.obj(
      "correct" -> correct, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> (if (o.trace) perLayer else endToEnd))) + "\n")
  }

  /** The engine ThunderRW.runLocal would build, on a caller-supplied MemSim. */
  private def ownEngine(g: CSRGraph, app: RandomWalkApp, tables: repro.sampling.StaticTables,
                        sim: MemSim, ws: Array[Walker]): EngineResult = w.kind match {
    case EngineKind.Sequential => new SequentialEngine(g, app, w.sampling, tables, sim).run(ws)
    case _ => new RingEngine(g, app, w.sampling, tables, sim, TaskRing, TaskRing / 2).run(ws)
  }

  /** Host ns per public MemSim call on a random stream over the neighbor
    * region: plain `read`s, and `prefetch` + `read` pairs in rings of 64.
    */
  private def memsimReplay(g: CSRGraph): (Double, Double) = {
    val rng = new java.util.SplittableRandom(sourcesSeed)
    val addrs = Array.fill(ReplayCalls)(g.addrNeighbor(rng.nextInt(g.numEdges)))
    def reads(): Double = {
      val s = new MemSim(cfg)
      val t0 = System.nanoTime()
      var i = 0
      while (i < addrs.length) { s.read(addrs(i)); i += 1 }
      (System.nanoTime() - t0).toDouble / addrs.length
    }
    def pairs(): Double = {
      val s = new MemSim(cfg)
      val t0 = System.nanoTime()
      var b = 0
      while (b + ReplayRing <= addrs.length) {
        var i = b
        while (i < b + ReplayRing) { s.prefetch(addrs(i)); i += 1 }
        i = b
        while (i < b + ReplayRing) { s.read(addrs(i)); i += 1 }
        b += ReplayRing
      }
      (System.nanoTime() - t0).toDouble / addrs.length
    }
    (Stats.median((1 to ReplayPasses).map(_ => reads())), Stats.median((1 to ReplayPasses).map(_ => pairs())))
  }
}

object Bench {
  val SparkCores = 2     // local[N]: fixed so partition membership does not follow the host
  val Threads = 10       // simulated workers, ThunderRW.run's default (paper testbed)
  val TaskRing = 64
  val Setups = 5
  val Windows = 3
  val Warmups = 2
  val HeapGcs = 3
  val MinRepsPerWindow = 2
  val MaxReps = 400
  val EquivSample = 256
  val TableProbes = 3
  val ReplayCalls = 1 << 17
  val ReplayRing = 64
  val ReplayPasses = 3

  def gcSeconds(): Double = {
    import scala.jdk.CollectionConverters._
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3
  }

  def usedHeapMb(): Double = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6

  def metric(v: Double, unit: String) = Json.obj("value" -> v, "unit" -> unit)

  /** 64-bit FNV-1a over (id, length, vertices) of each walk, in the given order. */
  def walkHash(walks: Iterator[(Long, Array[Int])]): String = {
    var h = 0xcbf29ce484222325L
    def mix(x: Long): Unit = { h ^= x; h *= 0x100000001b3L }
    walks.foreach { case (id, p) => mix(id); mix(p.length); p.foreach(v => mix(v)) }
    f"$h%016x"
  }

  /** Is every consecutive pair of `path` an edge of `g`? Neighbor lists are sorted. */
  def hopsAreEdges(g: CSRGraph, path: Iterable[Int]): Boolean = {
    val it = path.iterator
    var u = if (it.hasNext) it.next() else return true
    while (it.hasNext) {
      val v = it.next()
      if (java.util.Arrays.binarySearch(g.neighbors, g.offsets(u), g.offsets(u + 1), v) < 0) return false
      u = v
    }
    true
  }

  def simStatsJson(s: SimStats) = Json.obj(
    "cycles" -> s.cycles, "instructions" -> s.instructions, "compute_cycles" -> s.computeCycles,
    "mem_stall_cycles" -> s.memStallCycles, "core_stall_cycles" -> s.coreStallCycles,
    "bad_spec_cycles" -> s.badSpecCycles, "dram_lines" -> s.dramLines,
    "tmam" -> Json.obj("front_end" -> s.tmam.frontEnd, "bad_spec" -> s.tmam.badSpec,
      "core" -> s.tmam.core, "memory" -> s.tmam.memory, "retiring" -> s.tmam.retiring))
}
