package repro.core

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import repro.{GraphFixtures, SparkSpec}
import repro.graph.{CSRGraph, GraphBuilder}
import repro.memsim.{MemConfig, PrefetchHint}
import repro.sampling.SamplingMethod
import repro.systems.Systems

/** Golden values for the engines' simulated output.
  *
  * Each row runs one (app × sampler × schedule) configuration on a fixed
  * fixture graph and pins every [[repro.memsim.SimStats]] field, the step
  * count, a hash of the walks and the [[PhaseBreakdown]]. The expected
  * rows live in `src/test/resources/repro/core/engine-golden.tsv`; on a
  * mismatch the actual rows are written to `target/engine-golden.actual.tsv`
  * for inspection (copy that file over the resource only when a change of
  * the cost model is intended).
  *
  * Stats, steps and walk hashes must match exactly. Phases are sums of
  * per-operation cycle deltas, so a change that regroups those sums may
  * move them by rounding: they match within 1e-9 relative. For ring
  * schedules only `computeP`, `init` and `gen + other` are pinned — how
  * the rest of a ring run's cycles are split between Gen and the
  * interleaving overhead is labelling, not cost.
  */
class EngineGoldenSpec extends SparkSpec with GraphFixtures {

  private val cfg = MemConfig()
  private val n = 60
  private val ring = 16

  // 150 connected vertices plus two isolated ones (150, 151).
  private lazy val g: CSRGraph =
    GraphBuilder.fromEdges(tinyEdges(n = 150, e = 900, seed = 21L), 152, "golden", undirect = true)

  private lazy val sources: Array[Int] = {
    val rng = new java.util.SplittableRandom(4L)
    Array.fill(n)(rng.nextInt(150))
  }

  // Degree-0 sources in the first ring fill (slots 1 and 5).
  private lazy val sourcesWithIsolated: Array[Int] = {
    val s = sources.clone()
    s(1) = 150; s(5) = 151
    s
  }

  private val configs: Seq[(String, () => RandomWalkApp, SamplingMethod.Value)] = Seq(
    ("PPR/NAIVE", () => new Apps.PPR(0.2), SamplingMethod.NAIVE),
    ("PPR/OREJ", () => new Apps.PPR(0.2), SamplingMethod.OREJ),
    ("unbiased/ITS", () => new Apps.DeepWalkUnbiased(15), SamplingMethod.ITS),
    ("unbiased/ALIAS", () => new Apps.DeepWalkUnbiased(15), SamplingMethod.ALIAS),
    ("unbiased/REJ", () => new Apps.DeepWalkUnbiased(15), SamplingMethod.REJ),
    ("DeepWalk/ALIAS", () => new Apps.DeepWalk(15), SamplingMethod.ALIAS),
    ("DeepWalk/ITS", () => new Apps.DeepWalk(15), SamplingMethod.ITS),
    ("DeepWalk/REJ", () => new Apps.DeepWalk(15), SamplingMethod.REJ),
    ("DeepWalk/OREJ", () => new Apps.DeepWalk(15), SamplingMethod.OREJ),
    ("Node2Vec/OREJ", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.OREJ),
    ("Node2Vec/ALIAS-dyn", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.ALIAS),
    ("Node2Vec/ITS-dyn", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.ITS),
    ("Node2Vec/REJ-dyn", () => new Apps.Node2Vec(2.0, 0.5, 12), SamplingMethod.REJ),
    ("MetaPath/ITS-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 12), SamplingMethod.ITS),
    ("MetaPath/ALIAS-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 12), SamplingMethod.ALIAS),
    ("MetaPath/REJ-dyn", () => new Apps.MetaPath(Array(0, 2, 1, 4, 3), 12), SamplingMethod.REJ),
  )
  private def config(name: String) = configs.find(_._1 == name).get

  private final case class Case(
      key: String, cfgName: String, kind: EngineKind.Value,
      hint: PrefetchHint.Value = PrefetchHint.T0,
      overhead: Overhead = Overhead(),
      src: () => Array[Int] = () => sources,
  )

  private val cases: Seq[Case] =
    (for {
      (name, _, _) <- configs
      kind <- Seq(EngineKind.Sequential, EngineKind.Interleaved, EngineKind.Amac)
    } yield Case(s"$name/$kind", name, kind)) ++ Seq(
      Case("PPR/NAIVE/Sequential+GW", "PPR/NAIVE", EngineKind.Sequential, overhead = Systems.GW.overhead),
      Case("DeepWalk/OREJ/Sequential+KK", "DeepWalk/OREJ", EngineKind.Sequential, overhead = Systems.KK.overhead),
      Case("Node2Vec/OREJ/Sequential+KK", "Node2Vec/OREJ", EngineKind.Sequential, overhead = Systems.KK.overhead),
      Case("DeepWalk/ALIAS/Interleaved+T1", "DeepWalk/ALIAS", EngineKind.Interleaved, hint = PrefetchHint.T1),
      Case("DeepWalk/REJ/Interleaved+NTA", "DeepWalk/REJ", EngineKind.Interleaved, hint = PrefetchHint.NTA),
      Case("Node2Vec/ALIAS-dyn/Interleaved+isolated", "Node2Vec/ALIAS-dyn", EngineKind.Interleaved,
        src = () => sourcesWithIsolated),
      Case("MetaPath/ITS-dyn/Amac+isolated", "MetaPath/ITS-dyn", EngineKind.Amac,
        src = () => sourcesWithIsolated),
      Case("DeepWalk/ALIAS/Interleaved+isolated", "DeepWalk/ALIAS", EngineKind.Interleaved,
        src = () => sourcesWithIsolated),
    )

  /** FNV-1a over (walk count, then each walk's length and vertices). */
  private def walkHash(walks: Array[Array[Int]]): Long = {
    var h = 0xcbf29ce484222325L
    def mix(x: Int): Unit = { h ^= x.toLong & 0xffffffffL; h *= 0x100000001b3L }
    mix(walks.length)
    walks.foreach { w => mix(w.length); w.foreach(mix) }
    h
  }

  private def run(c: Case): Seq[String] = {
    val (_, mk, m) = config(c.cfgName)
    val app = mk()
    val (tables, _) = ThunderRW.preprocess(g, app, m, cfg, charge = false)
    val walkers = ThunderRW.makeWalkers(0 until n, c.src(), seed = 77L)
    val res = ThunderRW.runLocal(g, app, m, c.kind, tables, walkers, cfg, ring, c.hint, c.overhead)
    val s = res.stats
    val p = res.phases
    Seq(c.key, c.kind.toString,
      s.cycles, s.instructions, s.computeCycles, s.memStallCycles, s.coreStallCycles,
      s.badSpecCycles, s.dramLines, s.pipelineWidth, s.freqGhz, s.lineBytes,
      res.steps, walkHash(res.walks),
      p.computeP, p.init, p.gen, p.other).map(_.toString)
  }

  private val Header = Seq("key", "kind",
    "cycles", "instructions", "computeCycles", "memStallCycles", "coreStallCycles",
    "badSpecCycles", "dramLines", "pipelineWidth", "freqGhz", "lineBytes",
    "steps", "walkHash", "computeP", "init", "gen", "other")
  private val ExactCols = 2 until 14
  private val PhaseCol = 14

  private def close(a: Double, b: Double): Boolean =
    a == b || math.abs(a - b) <= 1e-9 * math.max(math.abs(a), math.abs(b))

  /** Mismatch description, or None when `act` reproduces `exp`. */
  private def diff(exp: Seq[String], act: Seq[String]): Option[String] = {
    val bad = ExactCols.filter(i => exp(i) != act(i)).map(i => s"${Header(i)} ${exp(i)} -> ${act(i)}")
    val ph = (PhaseCol until PhaseCol + 4).map(i => (exp(i).toDouble, act(i).toDouble))
    val phaseOk =
      if (act(1) == EngineKind.Sequential.toString) ph.forall { case (a, b) => close(a, b) }
      else close(ph(0)._1, ph(0)._2) && close(ph(1)._1, ph(1)._2) &&
        close(ph(2)._1 + ph(3)._1, ph(2)._2 + ph(3)._2)
    val all = bad ++ (if (phaseOk) Nil else Seq(s"phases ${exp.drop(PhaseCol)} -> ${act.drop(PhaseCol)}"))
    if (all.isEmpty) None else Some(all.mkString("; "))
  }

  private lazy val expected: Map[String, Seq[String]] = {
    val in = getClass.getResourceAsStream("/repro/core/engine-golden.tsv")
    if (in == null) Map.empty
    else try {
      scala.io.Source.fromInputStream(in, "UTF-8").getLines()
        .filter(l => l.nonEmpty && !l.startsWith("key\t"))
        .map(_.split('\t').toSeq).map(r => r.head -> r).toMap
    } finally in.close()
  }

  private lazy val actual: Seq[Seq[String]] = cases.map(run)

  test("golden file covers every case") {
    assert(expected.keySet == cases.map(_.key).toSet)
  }

  for ((c, i) <- cases.zipWithIndex) {
    test(s"golden: ${c.key}") {
      val act = actual(i)
      val res = expected.get(c.key) match {
        case None      => Some("no golden row")
        case Some(exp) => diff(exp, act)
      }
      if (res.nonEmpty) {
        val out = Paths.get("target", "engine-golden.actual.tsv")
        Files.createDirectories(out.getParent)
        Files.write(out, ((Header +: actual).map(_.mkString("\t")).mkString("\n") + "\n")
          .getBytes(StandardCharsets.UTF_8))
      }
      assert(res.isEmpty, res.getOrElse(""))
    }
  }
}
