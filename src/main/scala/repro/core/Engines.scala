package repro.core

import repro.graph.CSRGraph
import repro.memsim.{MemSim, PrefetchHint, SimStats}
import repro.sampling.{SamplingMethod, StaticTables}

/** Per-step framework overhead used to emulate GraphWalker / KnightKing
  * execution paradigms (§C.4): `instr` straight-line instructions plus
  * `reads` random touches into a framework-managed region (walk pools,
  * message queues) that is far larger than the LLC.
  */
final case class Overhead(instr: Int = 0, reads: Int = 0) {
  def isZero: Boolean = instr == 0 && reads == 0
}

/** Cycle split of the per-step work (Table 2 columns). */
final case class PhaseBreakdown(computeP: Double, init: Double, gen: Double, other: Double)

/** Result of running a set of walkers on one simulated worker. */
final case class EngineResult(
    walks: Array[Array[Int]],
    stats: SimStats,
    steps: Long,
    phases: PhaseBreakdown,
)

/** Algorithm 2 without step interleaving: the stage machine on a ring of
  * one (used for the BL / HG / GW / KK systems and all wo/si profiling rows).
  */
final class SequentialEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim, overhead: Overhead = Overhead(),
) extends StageEngine(g, app, sampling, tables, sim, 1, 1, PrefetchHint.T0,
  EngineKind.Sequential, overhead)

/** Step interleaving (Algorithm 4/5) over a task ring of `taskRing` slots. */
final class RingEngine(
    g: CSRGraph, app: RandomWalkApp, sampling: SamplingMethod.Value,
    tables: StaticTables, sim: MemSim, taskRing: Int = 64, searchRing: Int = 32,
) extends StageEngine(g, app, sampling, tables, sim, taskRing, searchRing, PrefetchHint.T0,
  EngineKind.Interleaved, Overhead())
