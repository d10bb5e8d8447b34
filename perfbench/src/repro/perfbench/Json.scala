package repro.perfbench

/** Minimal JSON rendering; values passed to [[obj]] are already rendered. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"'            => "\\\""
      case '\\'           => "\\\\"
      case c if c < ' '   => f"\\u${c.toInt}%04x"
      case c              => c.toString
    }.mkString("\"", "", "\"")

  /** Full-precision number; NaN and infinities are not JSON, so they fail. */
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"non-finite metric value $d")
    d.toString
  }

  def obj(fields: (String, String)*): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
