package repro.core

import repro.graph.CSRGraph
import repro.memsim.{MemSim, PrefetchHint}
import repro.sampling.{SamplingMethod, StaticTables, WalkerType}

/** The Gather–Move–Update engine as one SDG stage machine (§5, Table 4).
  *
  * Every sampler's Move logic is written once, as stages. A ring of `k`
  * slots holds in-flight walkers; each visit to a slot executes exactly
  * one stage, then control moves to the next slot. `kind` picks one of
  * three schedules of the same stages:
  *
  *  - `Sequential` (Algorithm 2, wo/si): a ring of 1, no software
  *    prefetches and no switch cost, so each walker runs to completion
  *    before the next starts.
  *  - `Interleaved` (Algorithm 4/5, w/si): each stage issues the software
  *    prefetch for the next stage's load, so by the time the slot is
  *    revisited the demand read pays only the residual latency. Stages
  *    inside SDG cycles (the ITS binary search and the REJ/O-REJ retry
  *    loops) are processed decoupled, with per-slot state; their switch
  *    cost is higher than the coupled non-cycle stages.
  *  - `Amac`: the same, but every stage pays the full AMAC state-machine
  *    cost (§C.5), modelling Kocberber et al.'s generic chaining.
  *
  * Walks are bitwise identical under all three schedules: interleaving
  * reorders walkers, never a walker's own draws, and every walker owns its
  * RNG. The Table 2 phase timers wrap the same operations under every
  * schedule; whatever they leave out (degree reads, O-REJ's accept test,
  * output, Update, slot switches) is reported as `other`.
  *
  * `searchRing` is accepted for the paper's decoupled search ring (§5.2)
  * but not read: cycle stages share the task ring.
  */
class StageEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim, taskRing: Int, searchRing: Int,
    hint: PrefetchHint.Value, kind: EngineKind.Value, overhead: Overhead,
) {
  private val ctx = new SimCtx(sim, g)
  private val dynamic: Boolean = app.walkerType == WalkerType.Dynamic
  private val uniform: Boolean = app.walkerType == WalkerType.Unbiased
  // O-REJ never gathers; NAIVE is only legal for unbiased walks. Samplers
  // that gather search and reject over the slot's gather buffer.
  private val needsGather: Boolean =
    dynamic && sampling != SamplingMethod.OREJ && sampling != SamplingMethod.NAIVE

  require(!(sampling == SamplingMethod.NAIVE && !uniform),
    "NAIVE sampling only supports unbiased random walk (§2.3)")
  require(dynamic || sampling == SamplingMethod.NAIVE ||
    sampling == SamplingMethod.OREJ || tables != null,
    s"static/unbiased $sampling requires preprocessed tables")
  require(!(sampling == SamplingMethod.OREJ && app.walkerType == WalkerType.Static) ||
    app.maxWeight(g) >= g.maxEdgeWeight,
    s"O-REJ bound ${app.maxWeight(g)} of ${app.name} is below the graph's maximum edge " +
      s"weight ${g.maxEdgeWeight}: rejection would sample a biased distribution")

  // ---- schedule ------------------------------------------------------------
  private val interleaved = kind != EngineKind.Sequential
  private val ringSize = if (interleaved) math.max(1, taskRing) else 1

  @inline private def prefetch(addr: Long): Unit = if (interleaved) sim.prefetch(addr, hint)

  // ---- stages --------------------------------------------------------------
  private final val S_PF_OFF = 0
  private final val S_DEG = 1
  private final val S_ALIAS_PICK = 2
  private final val S_FIN = 3 // read the chosen edge's neighbor, then Update
  private final val S_ITS_TOTAL = 4
  private final val S_ITS_SEARCH = 5 // cycle
  private final val S_REJ_PSTAR = 6
  private final val S_REJ_TRY = 7 // cycle
  private final val S_OREJ_TRY = 8 // cycle

  // Without prefetches there is nothing to issue ahead of the degree read.
  private val S_START = if (interleaved) S_PF_OFF else S_DEG

  @inline private def isCycleStage(s: Int): Boolean =
    s == S_ITS_SEARCH || s == S_REJ_TRY || s == S_OREJ_TRY

  /** Switch cost: coupled non-cycle stages are cheap; decoupled cycle
    * stages carry ring-state maintenance; AMAC pays the full state machine
    * on every stage (Table 13's instruction-count gap).
    */
  @inline private def switchCost(s: Int): Int =
    if (kind == EngineKind.Amac) sim.cfg.switchInstr + 6
    else if (isCycleStage(s)) sim.cfg.switchInstr + 4
    else sim.cfg.switchInstr

  private final class Slot {
    var w: Walker = _
    var stage: Int = S_START
    var d = 0
    var base = 0
    var x = 0
    var y = 0.0
    var r = 0.0
    var lo = 0
    var hi = 0
    var mx = 0.0
    var chosen = -1
    var buf: Array[Double] = _ // gather buffer, allocated on the slot's first Gather
    var gatherId = -1 // index of that buffer in the simulated address space
  }

  // ---- phase timers (Table 2) ----------------------------------------------
  private var tComputeP = 0.0
  private var tInit = 0.0
  private var tGen = 0.0

  def run(walkers: Array[Walker]): EngineResult = {
    val t0 = sim.snapshot()
    val k = math.min(ringSize, walkers.length)
    val slots = Array.tabulate(k) { i => val s = new Slot; s.w = walkers(i); s }
    var next = k
    var live = k
    var idx = 0
    while (live > 0) {
      val s = slots(idx)
      if (s.w != null) {
        advance(s)
        if (s.w.done) {
          if (next < walkers.length) {
            s.w = walkers(next); next += 1; s.stage = S_START
          } else { s.w = null; live -= 1 }
        }
      }
      idx += 1
      if (idx == k) idx = 0
    }
    val stats = sim.snapshot() - t0
    val steps = walkers.map(_.length.toLong).sum
    val other = math.max(0.0, stats.cycles - tComputeP - tInit - tGen)
    EngineResult(walkers.map(_.path.toArray), stats, steps,
      PhaseBreakdown(tComputeP, tInit, tGen, other))
  }

  /** Execute one stage of one slot. */
  private def advance(s: Slot): Unit = {
    if (interleaved) sim.compute(switchCost(s.stage))
    val w = s.w
    (s.stage: @annotation.switch) match {
      case S_PF_OFF =>
        sim.prefetch(g.addrOffset(w.cur), hint)
        sim.prefetch(g.addrOffset(w.cur + 1), hint) // same line 15/16 of the time
        s.stage = S_DEG

      case S_DEG =>
        val v = w.cur
        sim.read(g.addrOffset(v)); sim.read(g.addrOffset(v + 1)); sim.compute(2)
        s.d = g.degree(v); s.base = g.edgeBegin(v)
        if (s.d == 0) w.done = true
        else if (needsGather) gatherAndInit(s)
        else if (sampling == SamplingMethod.OREJ) {
          s.mx = app.maxWeight(g); sim.compute(2)
          val c0 = sim.cycles
          orejDraw(s)
          s.stage = S_OREJ_TRY
          tGen += sim.cycles - c0
        } else {
          val c0 = sim.cycles
          sampling match {
            case SamplingMethod.NAIVE =>
              val x = w.rng.nextInt(s.d); sim.compute(8)
              choose(s, s.base + x)
            case SamplingMethod.ALIAS =>
              s.x = w.rng.nextInt(s.d); sim.compute(8)
              s.y = w.rng.nextDouble(); sim.compute(8)
              prefetch(g.addrAliasPair(s.base + s.x))
              s.stage = S_ALIAS_PICK
            case SamplingMethod.ITS =>
              prefetch(g.addrCdf(s.base + s.d - 1))
              s.stage = S_ITS_TOTAL
            case SamplingMethod.REJ =>
              prefetch(g.addrRejMax(v))
              s.stage = S_REJ_PSTAR
          }
          tGen += sim.cycles - c0
        }

      case S_ALIAS_PICK =>
        val c0 = sim.cycles
        val t = s.base + s.x
        sim.read(g.addrAliasPair(t)); sim.compute(4)
        val e =
          if (s.y < tables.aliasProb(t) || tables.aliasSecond(t) < 0) tables.aliasFirst(t)
          else tables.aliasSecond(t)
        tGen += sim.cycles - c0
        finish(s, e)

      case S_FIN =>
        val c0 = sim.cycles
        sim.read(g.addrNeighbor(s.chosen))
        tGen += sim.cycles - c0
        finish(s, s.chosen)

      case S_ITS_TOTAL =>
        val c0 = sim.cycles
        sim.read(g.addrCdf(s.base + s.d - 1))
        s.r = w.rng.nextDouble() * tables.cdf(s.base + s.d - 1); sim.compute(10)
        startSearch(s)
        tGen += sim.cycles - c0

      case S_ITS_SEARCH =>
        val c0 = sim.cycles
        val mid = (s.lo + s.hi) >>> 1
        sim.read(searchAddr(s, mid))
        val cdfVal = if (needsGather) s.buf(mid) else tables.cdf(s.base + mid)
        sim.compute(4); sim.mispredict(0.5)
        if (s.r < cdfVal) s.hi = mid else s.lo = mid + 1
        if (s.lo >= s.hi) choose(s, s.base + s.lo)
        else prefetch(searchAddr(s, (s.lo + s.hi) >>> 1))
        tGen += sim.cycles - c0

      case S_REJ_PSTAR =>
        val c0 = sim.cycles
        sim.read(g.addrRejMax(w.cur))
        s.mx = tables.rejMax(w.cur).toDouble
        rejDraw(s)
        s.stage = S_REJ_TRY
        tGen += sim.cycles - c0

      case S_REJ_TRY =>
        val c0 = sim.cycles
        sim.read(rejAddr(s)); sim.compute(3)
        // dynamic REJ: probabilities live in the gather buffer
        val p =
          if (needsGather) s.buf(s.x)
          else if (uniform) 1.0
          else g.weight(s.base + s.x).toDouble
        if (s.y < p) choose(s, s.base + s.x)
        else { sim.mispredict(0.7); rejDraw(s) }
        tGen += sim.cycles - c0

      case S_OREJ_TRY =>
        val e = s.base + s.x
        val c0 = sim.cycles
        sim.read(g.addrNeighbor(e))
        val c1 = sim.cycles
        tGen += c1 - c0
        val p = app.weight(ctx, g, w, e)
        tComputeP += sim.cycles - c1
        sim.compute(2)
        if (s.y < p) finish(s, e)
        else {
          sim.mispredict(0.7)
          val c2 = sim.cycles
          orejDraw(s)
          tGen += sim.cycles - c2
        }
    }
  }

  /** Edge `e` is sampled: prefetch its neighbor for the final stage. */
  @inline private def choose(s: Slot, e: Int): Unit = {
    s.chosen = e
    prefetch(g.addrNeighbor(e))
    s.stage = S_FIN
  }

  /** ITS over [0, d): the single-edge case needs no search. */
  private def startSearch(s: Slot): Unit = {
    s.lo = 0; s.hi = s.d - 1
    if (s.lo >= s.hi) choose(s, s.base)
    else {
      prefetch(searchAddr(s, (s.lo + s.hi) >>> 1))
      s.stage = S_ITS_SEARCH
    }
  }

  @inline private def searchAddr(s: Slot, mid: Int): Long =
    if (needsGather) gatherAddr(s.gatherId, mid) else g.addrCdf(s.base + mid)

  @inline private def rejAddr(s: Slot): Long =
    if (needsGather) gatherAddr(s.gatherId, s.x) else g.addrWeight(s.base + s.x)

  @inline private def rejDraw(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    prefetch(rejAddr(s))
  }

  @inline private def orejDraw(s: Slot): Unit = {
    s.x = s.w.rng.nextInt(s.d); sim.compute(8)
    s.y = s.w.rng.nextDouble() * s.mx; sim.compute(8)
    prefetch(g.addrNeighbor(s.base + s.x))
    prefetch(g.addrWeight(s.base + s.x))
  }

  /** Dynamic RW: gather + init run synchronously inside the slot visit
    * (Alg. 4 lines 5-7); only Move is interleaved.
    */
  private def gatherAndInit(s: Slot): Unit = {
    val w = s.w
    if (s.buf == null) {
      s.buf = new Array[Double](maxDegree + 1)
      s.gatherId = gatherBuffers; gatherBuffers += 1
    }
    val c0 = sim.cycles
    val sum = gather(s.gatherId, w, s.base, s.d, s.buf)
    val i0 = sim.cycles
    tComputeP += i0 - c0
    if (sum <= 0.0) { w.done = true; return }
    sampling match {
      case SamplingMethod.ITS =>
        val total = initCdfLocal(s.d, s.buf)
        val g0 = sim.cycles
        tInit += g0 - i0
        s.r = w.rng.nextDouble() * total; sim.compute(10)
        startSearch(s)
        tGen += sim.cycles - g0
      case SamplingMethod.ALIAS =>
        val (h, first, second) =
          StaticTables.buildAlias(java.util.Arrays.copyOf(s.buf, s.d), sum, sim)
        val g0 = sim.cycles
        tInit += g0 - i0
        val x = w.rng.nextInt(s.d); sim.compute(8)
        val y = w.rng.nextDouble(); sim.compute(8)
        sim.read(gatherAddr(s.gatherId, x)); sim.compute(4)
        choose(s, s.base + (if (y < h(x) || second(x) < 0) first(x) else second(x)))
        tGen += sim.cycles - g0
      case SamplingMethod.REJ =>
        s.mx = initMaxLocal(s.d, s.buf)
        val g0 = sim.cycles
        tInit += g0 - i0
        rejDraw(s)
        s.stage = S_REJ_TRY
        tGen += sim.cycles - g0
      case other => sys.error(s"gather not defined for $other")
    }
  }

  // ---- Gather, Init and Update helpers ---------------------------------------
  private val maxDegree = g.maxDegree

  // Gather buffers are numbered in the order slots first gather: a slot
  // whose first walker dies at a degree-0 source gathers after its
  // neighbours, so this is not always its ring position.
  private var gatherBuffers = 0
  private val gatherStride: Long = {
    val bytes = 8L * (maxDegree + 1)
    ((bytes + 63) / 64) * 64
  }
  @inline private def gatherAddr(slot: Int, i: Int): Long =
    CSRGraph.GatherBase + slot.toLong * gatherStride + 8L * i

  private val FrameworkBase = 12L << 40
  private val FrameworkBytes = 64L * 1024 * 1024
  private var overheadCounter = 0L

  /** Charge the per-step framework overhead (GW/KK emulation). */
  private def chargeOverhead(): Unit = {
    if (overhead.isZero) return
    sim.compute(overhead.instr)
    var i = 0
    while (i < overhead.reads) {
      overheadCounter += 1
      val addr = FrameworkBase + ((overheadCounter * 0x9E3779B97F4A7C15L) & (FrameworkBytes - 1)) / 64 * 64
      sim.read(addr)
      i += 1
    }
  }

  private val outStride = 4L * 4096
  @inline private def outAddr(w: Walker): Long =
    CSRGraph.OutputBase + w.id.toLong * outStride + 4L * w.length

  /** Move the slot's walker along edge `e`, write output, run Update. */
  private def finish(s: Slot, e: Int): Unit = {
    val w = s.w
    w.move(g.neighbor(e))
    sim.streamWrite(outAddr(w))
    sim.compute(4)
    if (app.update(ctx, g, w, e)) w.done = true
    chargeOverhead()
    s.stage = S_START
  }

  /** Gather (Alg. 2 lines 9-12): stream E_v applying Weight, filling the
    * slot-local buffer; returns the total mass. Charged as streaming —
    * this is why dynamic RW shows low memory-bound in Table 1.
    */
  private def gather(slot: Int, w: Walker, base: Int, d: Int, buf: Array[Double]): Double = {
    ctx.streaming = true
    var sum = 0.0
    var i = 0
    while (i < d) {
      val e = base + i
      sim.streamRead(g.addrNeighbor(e))
      val p = app.weight(ctx, g, w, e)
      buf(i) = p
      sim.streamWrite(gatherAddr(slot, i))
      sim.compute(2)
      sum += p
      i += 1
    }
    ctx.streaming = false
    sum
  }

  /** Dynamic ITS init: in-place prefix sum over the gather buffer. */
  private def initCdfLocal(d: Int, buf: Array[Double]): Double = {
    var acc = 0.0
    var i = 0
    while (i < d) { acc += buf(i); buf(i) = acc; sim.compute(2); i += 1 }
    acc
  }

  /** Dynamic REJ init: max scan over the gather buffer. */
  private def initMaxLocal(d: Int, buf: Array[Double]): Double = {
    var mx = 0.0
    var i = 0
    while (i < d) { if (buf(i) > mx) mx = buf(i); sim.compute(2); i += 1 }
    mx
  }
}
