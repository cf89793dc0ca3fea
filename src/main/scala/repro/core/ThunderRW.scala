package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.graph.CSRGraph
import repro.memsim.{MemConfig, MemSim, PrefetchHint, SimStats}
import repro.sampling.{SamplingMethod, StaticTables, WalkerType}

/** Engine flavours. */
object EngineKind extends Enumeration {
  val Sequential, Interleaved, Amac = Value
}

/** One emitted walk: query id, source, steps taken, vertex sequence. */
final case class WalkRow(id: Long, source: Int, len: Int, path: Seq[Int])

/** Per-partition engine output shipped back to the driver. */
final case class PartResult(stats: SimStats, steps: Long, walks: Seq[WalkRow])

/** Driver-side summary of one run. */
final case class RunSummary(
    walks: Seq[WalkRow],
    parts: Seq[PartResult],
    preprocSeconds: Double,
) {
  def steps: Long = parts.map(_.steps).sum
  def stats: SimStats = parts.map(_.stats).foldLeft(SimStats.zero)(_ + _)
  /** Parallel makespan: slowest simulated worker, plus preprocessing. */
  def execSeconds: Double = if (parts.isEmpty) 0.0 else parts.map(_.stats.seconds).max
  def totalSeconds: Double = execSeconds + preprocSeconds
}

/** ThunderRW's top level: partitions the query set over simulated workers
  * (the paper's static scheduling, §4.2) and runs one engine per Spark
  * partition via the Dataset API; results come back as Datasets of walks
  * plus per-worker simulator statistics.
  */
object ThunderRW {

  /** Does (app, sampling) need the static preprocessing pass (Alg. 3)? */
  def needsTables(app: RandomWalkApp, sampling: SamplingMethod.Value): Boolean =
    app.walkerType != WalkerType.Dynamic &&
      (sampling == SamplingMethod.ITS || sampling == SamplingMethod.ALIAS ||
        sampling == SamplingMethod.REJ)

  /** Build static tables, charging preprocessing cost to a fresh sim.
    * Returns (tables-or-null, preprocessing cycles).
    */
  def preprocess(g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
                 cfg: MemConfig, charge: Boolean = true): (StaticTables, Double) = {
    if (!needsTables(app, sampling)) (null, 0.0)
    else {
      val sim = if (charge) new MemSim(cfg) else null
      val t = StaticTables.build(g, sampling, uniform = app.walkerType == WalkerType.Unbiased, sim)
      (t, if (sim == null) 0.0 else sim.cycles)
    }
  }

  /** Construct walkers for ids `[0, n)` with the given source mapping. */
  def makeWalkers(ids: Seq[Int], sources: Array[Int], seed: Long): Array[Walker] =
    ids.map(i => new Walker(i, sources(i), seed)).toArray

  /** Run a batch of walkers on one simulated worker (no Spark) — the unit
    * the Spark driver distributes, also used directly by unit tests.
    */
  def runLocal(g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
               kind: EngineKind.Value, tables: StaticTables, walkers: Array[Walker],
               cfg: MemConfig = MemConfig(), taskRing: Int = 64,
               hint: PrefetchHint.Value = PrefetchHint.T0,
               overhead: Overhead = Overhead()): EngineResult = {
    new StageEngine(g, app, sampling, tables, new MemSim(cfg), taskRing, taskRing / 2, hint,
      kind, overhead).run(walkers)
  }

  /** Distributed run: `nQueries` walkers, `sources(i)` the start vertex of
    * walker i, split over `threads` simulated workers (Spark partitions).
    */
  def run(spark: SparkSession, g: CSRGraph, app: RandomWalkApp,
          sampling: SamplingMethod.Value, kind: EngineKind.Value,
          nQueries: Int, sources: Array[Int], threads: Int = 10,
          cfg: MemConfig = MemConfig(), taskRing: Int = 64,
          hint: PrefetchHint.Value = PrefetchHint.T0,
          overhead: Overhead = Overhead(), seed: Long = 2021L,
          keepWalks: Boolean = true): RunSummary = {
    import spark.implicits._
    require(sources.length >= nQueries, "need a source per query")

    val (tables, preprocCycles) = preprocess(g, app, sampling, cfg)
    // Preprocessing is embarrassingly parallel over vertices; the paper's
    // systems run it on all threads.
    val preprocSeconds = preprocCycles / (cfg.freqGhz * 1e9) / threads

    val bg = spark.sparkContext.broadcast(g)
    val bt = spark.sparkContext.broadcast(tables)
    val bs = spark.sparkContext.broadcast(sources)

    val parts = spark.range(nQueries).repartition(threads)
      .mapPartitions { it =>
        val ids = it.map(_.toInt).toArray
        if (ids.isEmpty) Iterator.empty
        else {
          val walkers = makeWalkers(ids.toSeq, bs.value, seed)
          val res = runLocal(bg.value, app, sampling, kind, bt.value, walkers,
            cfg, taskRing, hint, overhead)
          val walks =
            if (keepWalks)
              walkers.map(w => WalkRow(w.id.toLong, w.source, w.length, w.path.toSeq)).toSeq
            else Seq.empty[WalkRow]
          Iterator.single(PartResult(res.stats, res.steps, walks))
        }
      }.collect().toSeq

    bg.destroy(); bt.destroy(); bs.destroy()
    RunSummary(parts.flatMap(_.walks), parts, preprocSeconds)
  }

  /** Walk output as a DataFrame-friendly Dataset for downstream analysis
    * (and DuckDB oracle checks) — one row per (walk, position).
    */
  def walksToSteps(spark: SparkSession, walks: Seq[WalkRow]): Dataset[(Long, Int, Int)] = {
    import spark.implicits._
    walks.flatMap(w => w.path.zipWithIndex.map { case (v, pos) => (w.id, pos, v) }).toDS()
      .withColumnRenamed("_1", "walk_id").withColumnRenamed("_2", "pos")
      .withColumnRenamed("_3", "vertex").as[(Long, Int, Int)]
  }
}
