package rwbench

import repro.core.EngineKind
import repro.sampling.SamplingMethod

/** The paper's figure for a workload's simulated metrics, where one exists.
  * Memory-bound is a range: Tables 11-12 report it per dataset.
  */
final case class PaperRef(source: String, cyclesPerStep: Double, instrPerStep: Double,
                          memBoundLo: Double, memBoundHi: Double)

/** One benchmark workload: an app/sampler/engine cell of the reproduction
  * on one dataset analogue, run through ThunderRW's public entry points.
  * `why` is the reason the workload is in the benchmark.
  */
final case class Workload(
    name: String,
    dataset: String,
    app: String,
    sampling: SamplingMethod.Value,
    kind: EngineKind.Value,
    queries: Int,
    keepWalks: Boolean,
    paper: Option[PaperRef],
    why: String,
)

object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("deepwalk-alias-si-lj", "lj", "DeepWalk", SamplingMethod.ALIAS,
      EngineKind.Interleaved, queries = 16384, keepWalks = false,
      Some(PaperRef("Table 13 ALIAS w/si; Tables 11-12 memory-bound", 139.1, 139.2, 0.07, 0.27)),
      "Table 13 w/si row: alias tables rebuilt every run, ring engine and the " +
        "MemSim prefetch path carry the work"),
    Workload("node2vec-orej-seq-lj", "lj", "Node2Vec", SamplingMethod.OREJ,
      EngineKind.Sequential, queries = 16384, keepWalks = false, None,
      "no tables and no prefetches: the app UDF and MemSim's demand-read path " +
        "carry the work (bypass case for prefetch and table changes)"),
    Workload("ppr-naive-walks-am", "am", "PPR", SamplingMethod.NAIVE,
      EngineKind.Interleaved, queries = 61440, keepWalks = true, None,
      "walks kept and exploded by walksToSteps on a cache-resident graph: " +
        "Spark collect and the driver output path carry the work"),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name' (have ${all.map(_.name).mkString(", ")})"))
}
