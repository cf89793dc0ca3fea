package rwbench

/** Minimal JSON writer for the benchmark's result and record files:
  * maps, sequences, strings, numbers and booleans.
  */
object Json {
  def write(v: Any): String = v match {
    case null                 => "null"
    case s: String            => quote(s)
    case b: Boolean           => b.toString
    case d: Double            =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case n: Int               => n.toString
    case n: Long              => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + write(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]      => xs.map(write).mkString("[", ",", "]")
    case other                => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }

  /** Ordered map literal: keeps keys in the order written. */
  def obj(kv: (String, Any)*): scala.collection.immutable.ListMap[String, Any] =
    scala.collection.immutable.ListMap(kv: _*)
}
