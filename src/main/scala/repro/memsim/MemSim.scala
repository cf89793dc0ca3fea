package repro.memsim

import scala.collection.mutable

/** Configuration of the simulated memory hierarchy and pipeline cost model.
  *
  * Capacities are scaled down from the paper's Xeon W-2155 (32 KB / 1 MB /
  * 13.75 MB) by the same factor as the dataset analogues are scaled from
  * the real graphs, so the working-set : LLC ratio — the quantity that
  * drives all of the paper's locality effects — is preserved.
  *
  * Latencies are in core cycles and close to Skylake: L1 ~4, L2 ~14,
  * L3 ~50, DRAM ~220. Sequential (hardware-prefetched) streams pay an
  * amortised per-line cost instead of the full DRAM latency.
  */
final case class MemConfig(
    l1Bytes: Int = 8 * 1024,
    l1Ways: Int = 8,
    l2Bytes: Int = 32 * 1024,
    l2Ways: Int = 8,
    l3Bytes: Int = 512 * 1024,
    l3Ways: Int = 8,
    lineBytes: Int = 64,
    latL2: Int = 12,
    latL3: Int = 44,
    latDram: Int = 200,
    streamStall: Int = 24,
    ipc: Double = 2.0,
    pipelineWidth: Int = 4,
    // Outstanding-fill window: L1 has 10 line-fill buffers, but the L2
    // superqueue sustains more in-flight misses; 20 models the per-core
    // end-to-end MLP that step interleaving exploits.
    mshrs: Int = 20,
    mispredictPenalty: Int = 15,
    switchInstr: Int = 4,
    freqGhz: Double = 2.5,
)

/** Software prefetch target, mirroring `_mm_prefetch` hints (Table 10). */
object PrefetchHint extends Enumeration {
  val T0, T1, T2, NTA = Value
}

/** Cost-accounting memory simulator for one worker thread.
  *
  * Engines drive it with the logical operations their C++ counterparts
  * would execute: `compute(n)` for n retired instructions, `read` for a
  * dependent random access, `streamRead`/`streamWrite` for sequential
  * scans, `prefetch` + later `read` for software-prefetched accesses,
  * and `mispredict` for expected branch-misprediction penalties.
  *
  * Prefetches complete `latency` cycles after issue, bounded by the MSHR
  * window: at most `mshrs` fills are in flight, extra issues queue behind
  * the earliest completion. A demand `read` of a prefetched line pays only
  * the residual latency — this is exactly the mechanism step interleaving
  * exploits.
  */
final class MemSim(val cfg: MemConfig = MemConfig()) {
  val l1 = new CacheSim(cfg.l1Bytes, cfg.l1Ways, cfg.lineBytes)
  val l2 = new CacheSim(cfg.l2Bytes, cfg.l2Ways, cfg.lineBytes)
  val l3 = new CacheSim(cfg.l3Bytes, cfg.l3Ways, cfg.lineBytes)

  var cycles: Double = 0.0
  var instructions: Long = 0L
  var computeCycles: Double = 0.0
  var memStallCycles: Double = 0.0
  var coreStallCycles: Double = 0.0
  var badSpecCycles: Double = 0.0
  var dramLines: Long = 0L

  // line -> (completion cycle, extra demand-use cost) of a prefetch
  private val prefetchReady = new mutable.LongMap[(Double, Int)]()

  // Diagnostic tallies (not part of the cost model).
  var dbgResidualStall: Double = 0.0
  var dbgDemandStall: Double = 0.0
  var dbgEvictRefetch: Long = 0L
  // completion cycles of in-flight fills (MSHR occupancy model)
  private val inflight = mutable.ArrayBuffer.empty[Double]

  @inline private def line(addr: Long): Long = addr / cfg.lineBytes

  /** Retire `n` instructions of straight-line computation. */
  @inline def compute(n: Int): Unit = {
    instructions += n
    val c = n / cfg.ipc
    computeCycles += c
    cycles += c
  }

  /** Long-latency ALU work (divides, RNG advance): stalls execution ports. */
  @inline def coreStall(c: Double): Unit = { coreStallCycles += c; cycles += c }

  /** Expected branch-misprediction cost; `p` is the misprediction rate. */
  @inline def mispredict(p: Double): Unit = {
    val c = p * cfg.mispredictPenalty
    badSpecCycles += c
    cycles += c
  }

  private def purgeInflight(): Unit = {
    var i = 0
    while (i < inflight.length) {
      if (inflight(i) <= cycles) { inflight.remove(i) } else i += 1
    }
  }

  /** Miss latency of `addr` given current cache contents (no state change). */
  private def missLatency(addr: Long): Int =
    if (l1.contains(addr)) 0
    else if (l2.contains(addr)) cfg.latL2
    else if (l3.contains(addr)) cfg.latL3
    else cfg.latDram

  private def fillAll(addr: Long): Unit = { l3.fill(addr); l2.fill(addr); l1.fill(addr) }

  /** Issue a software prefetch (1 instruction, non-blocking). */
  def prefetch(addr: Long, hint: PrefetchHint.Value = PrefetchHint.T0): Unit = {
    compute(1)
    val ln = line(addr)
    if (l1.contains(addr)) return // already resident, nothing to do
    val lat = missLatency(addr)
    if (lat == cfg.latDram) dramLines += 1
    purgeInflight()
    var start = cycles
    if (inflight.length >= cfg.mshrs) {
      // wait for enough in-flight fills to drain
      val sorted = inflight.sorted
      start = math.max(start, sorted(inflight.length - cfg.mshrs))
    }
    val ready = start + lat
    inflight += ready
    // The extra demand cost models where the line lands: T0 puts it in L1
    // (free on use), T1/T2 leave it in L2/L3 (a small, partially OOO-hidden
    // hit on use), NTA lands in L1 but bypasses L2/L3 so evicted lines must
    // be refetched from DRAM on reuse.
    val extra = hint match {
      case PrefetchHint.T0  => 0
      case PrefetchHint.T1  => 2 // L2 hit on use, mostly OOO-hidden
      case PrefetchHint.T2  => 6 // L3 hit on use, partly hidden
      case PrefetchHint.NTA => 0
    }
    prefetchReady(ln) = (ready, extra)
    hint match {
      case PrefetchHint.T0 | PrefetchHint.T1 | PrefetchHint.T2 => fillAll(addr)
      case PrefetchHint.NTA                                    => l1.fill(addr)
    }
  }

  /** Dependent (pointer-chasing) read: pays full miss latency, or the
    * residual latency of an earlier prefetch of the same line.
    */
  def read(addr: Long): Unit = {
    compute(1)
    val ln = line(addr)
    prefetchReady.get(ln) match {
      case Some((ready, extra)) =>
        prefetchReady -= ln
        var stall = math.max(0.0, ready - cycles) + extra
        dbgResidualStall += stall
        // A prefetched line evicted from L1 before use (ring too large for
        // the L1 working set, §5.4) pays the refetch from wherever it
        // still lives — the mechanism that bounds the optimal ring size.
        if (!l1.contains(addr)) {
          val lat = missLatency(addr)
          if (lat == cfg.latDram) dramLines += 1
          stall += lat
          dbgEvictRefetch += 1
          fillAll(addr)
        }
        if (stall > 0) { memStallCycles += stall; cycles += stall }
        l1.access(addr)
        ()
      case None =>
        val lat = missLatency(addr)
        if (!l1.access(addr)) {
          if (lat == cfg.latDram) dramLines += 1
          fillAll(addr)
          memStallCycles += lat
          cycles += lat
          dbgDemandStall += lat
        }
    }
  }

  /** Independent read inside a tight loop with no inter-iteration
    * dependency (BFS visited checks, SSSP distance reads): the OOO window
    * overlaps ~`mlp` such misses, so each pays only latency/mlp. This is
    * the natural memory-level parallelism conventional graph workloads
    * enjoy and random walks lack (§3).
    */
  def readOverlapped(addr: Long, mlp: Int = 6): Unit = {
    compute(1)
    val lat = missLatency(addr)
    if (!l1.access(addr)) {
      if (lat == cfg.latDram) dramLines += 1
      fillAll(addr)
      val c = lat.toDouble / mlp
      memStallCycles += c
      cycles += c
    }
  }

  /** Sequential scan read: the hardware stride prefetcher hides most of the
    * DRAM latency; a missing line costs the amortised stream stall.
    */
  def streamRead(addr: Long): Unit = {
    compute(1)
    val lat = missLatency(addr) // probe before access() fills the line
    if (!l1.access(addr)) {
      if (lat == cfg.latDram) {
        dramLines += 1
        memStallCycles += cfg.streamStall
        cycles += cfg.streamStall
      } else if (lat > 0) {
        val c = math.min(lat, cfg.streamStall).toDouble
        memStallCycles += c
        cycles += c
      }
      fillAll(addr)
    }
  }

  /** Sequential write (e.g. appending to the walk output buffer): stores
    * retire through the store buffer and almost never stall the pipeline;
    * charge the instruction and the DRAM traffic (write-allocate) only.
    */
  def streamWrite(addr: Long): Unit = {
    compute(1)
    val lat = missLatency(addr)
    if (!l1.access(addr)) {
      if (lat == cfg.latDram) dramLines += 1
      fillAll(addr)
    }
  }

  def seconds: Double = cycles / (cfg.freqGhz * 1e9)

  def snapshot(): SimStats = SimStats(
    cycles, instructions, computeCycles, memStallCycles, coreStallCycles,
    badSpecCycles, dramLines, cfg.pipelineWidth, cfg.freqGhz, cfg.lineBytes)

  def reset(): Unit = {
    l1.reset(); l2.reset(); l3.reset()
    cycles = 0; instructions = 0; computeCycles = 0
    memStallCycles = 0; coreStallCycles = 0; badSpecCycles = 0
    dramLines = 0
    dbgResidualStall = 0; dbgDemandStall = 0; dbgEvictRefetch = 0
    prefetchReady.clear(); inflight.clear()
  }
}

/** Immutable counter snapshot; differences of snapshots give phase costs. */
final case class SimStats(
    cycles: Double,
    instructions: Long,
    computeCycles: Double,
    memStallCycles: Double,
    coreStallCycles: Double,
    badSpecCycles: Double,
    dramLines: Long,
    pipelineWidth: Int,
    freqGhz: Double,
    lineBytes: Int,
) {
  def -(o: SimStats): SimStats = SimStats(
    cycles - o.cycles, instructions - o.instructions,
    computeCycles - o.computeCycles, memStallCycles - o.memStallCycles,
    coreStallCycles - o.coreStallCycles, badSpecCycles - o.badSpecCycles,
    dramLines - o.dramLines, pipelineWidth, freqGhz, lineBytes)

  def +(o: SimStats): SimStats = SimStats(
    cycles + o.cycles, instructions + o.instructions,
    computeCycles + o.computeCycles, memStallCycles + o.memStallCycles,
    coreStallCycles + o.coreStallCycles, badSpecCycles + o.badSpecCycles,
    dramLines + o.dramLines, pipelineWidth, freqGhz, lineBytes)

  def seconds: Double = cycles / (freqGhz * 1e9)

  /** Total DRAM traffic in bytes (read + write, as in the paper's tables). */
  def dramBytes: Long = dramLines * lineBytes

  /** Bandwidth in GB/s for `threads` concurrent workers with this profile. */
  def bandwidthGBs(threads: Int): Double =
    if (cycles <= 0) 0.0 else dramBytes.toDouble * threads / (seconds * 1e9)

  def tmam: Tmam = Tmam.from(this)
}

object SimStats {
  def zero: SimStats = SimStats(0, 0, 0, 0, 0, 0, 0, 4, 2.5, 64)
}
