package rwbench

import scala.collection.mutable.ArrayBuffer

/** One timed interval around a call into a layer of the program. */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder, written out when the benchmark ends.
  *
  * Spans nest: a span opened while another is open records it as its
  * parent. With `enabled = false` a span only runs its body, which is how
  * the end-to-end metrics are measured; a traced run compares both modes
  * to report the tracing overhead.
  */
final class Tracer(var enabled: Boolean) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[(Int, Long)] = Nil // (id, startNs), innermost first
  private var nextId = 0

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.fold(-1)(_._1)
      open = (id, System.nanoTime()) :: open
      try body
      finally {
        val start = open.head._2
        open = open.tail
        done += Span(id, name, parent, start, System.nanoTime())
      }
    }

  def named(name: String): Seq[Span] = done.filter(_.name == name).toSeq

  /** A span's duration minus the part of it its direct children cover. */
  def selfSeconds(s: Span): Double =
    s.seconds - done.iterator.filter(_.parent == s.id).map(_.seconds).sum

  /** Per span name: count, median duration and median self time. */
  def summary: Seq[(String, Int, Double, Double)] =
    done.map(_.name).distinct.toSeq.map { n =>
      val ss = named(n)
      (n, ss.size, Stats.median(ss.map(_.seconds)), Stats.median(ss.map(selfSeconds)))
    }
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val m = s.size / 2
      if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
    }
}
