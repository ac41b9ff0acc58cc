package repro.core

/** The set-based VIEW-PRESENTATION question builder that
  * [[Presenter.questions]] replaced: every round it rebuilds each
  * interface's splits from `Set[String]` operations over the live ids and
  * restricts every contradiction to the live set. Kept as the reference
  * the bitset version is checked against, on the states of
  * [[StepReference]]. Its one change from the code it was: SummaryQ breaks
  * a tie between two schemas with one label (`(k|v, w)` and `(k, v, w)`
  * both read `k|v|w`) by schema order, where hash-map iteration order used
  * to pick.
  */
object QuestionsReference {

  /** A question with its views as ids: each option prunes the views
    * `prune`, and `accepts` names the view a "yes" ends the session with.
    */
  final case class Question(iface: Interface, label: String, options: Vector[QOption])
  final case class QOption(label: String, prune: Set[String], accepts: Option[String] = None)

  /** The contradiction restricted to surviving views; None once fewer than
    * two sides remain (the signal can no longer discriminate).
    */
  def restrictTo(c: Contradiction, live: Set[String]): Option[Contradiction] = {
    val kept = c.sides.map(_.intersect(live)).filter(_.nonEmpty)
    if (kept.size >= 2) Some(c.copy(sides = kept)) else None
  }

  def apply(views: Vector[MatView], report: DistillReport)(state: StepReference.State): Vector[Question] = {
    val byId: Map[String, MatView] = views.map(v => v.id -> v).toMap
    val s = state.live
    def shown(i: Interface, label: String): Boolean = state.shown((i, label))
    Interface.all.flatMap {
      case Interface.DatasetQ =>
        state.ranking.find(!shown(Interface.DatasetQ, _)).map { id =>
          Question(Interface.DatasetQ, id, Vector(
            QOption("yes", Set.empty, accepts = Some(id)),
            QOption("no", Set(id))))
        }
      case Interface.AttributeQ =>
        // The split whose larger side is largest.
        val attrs = s.toVector.flatMap(id => byId(id).schema).distinct
          .filterNot(shown(Interface.AttributeQ, _))
        val splits = attrs.map { a =>
          val withA = s.filter(id => byId(id).schema.contains(a))
          (a, withA, s -- withA)
        }.filter { case (_, w, wo) => w.nonEmpty && wo.nonEmpty }
        if (splits.isEmpty) None
        else {
          val (a, withA, withoutA) = splits.maxBy { case (a0, w, wo) => (math.max(w.size, wo.size), a0) }
          Some(Question(Interface.AttributeQ, a, Vector(
            QOption("include", withoutA), QOption("exclude", withA))))
        }
      case Interface.SummaryQ =>
        // In schema order, so that blocks whose labels collide tie the same
        // way whatever the order of the views.
        val fresh = s.groupBy(id => byId(id).schema).toVector.sortBy(_._1)(MatView.rowOrdering)
          .filter { case (schema, block) => block.size < s.size && !shown(Interface.SummaryQ, schema.mkString("|")) }
        if (fresh.isEmpty) None
        else {
          val (schema, block) = fresh.maxBy { case (sc, b) => (math.max(b.size, s.size - b.size), sc.mkString("|")) }
          Some(Question(Interface.SummaryQ, schema.mkString("|"), Vector(
            QOption("relevant", s -- block), QOption("irrelevant", block))))
        }
      case Interface.PairQ =>
        val cs = report.contradictions.flatMap(restrictTo(_, s))
          .filter(c => !shown(Interface.PairQ, s"${c.key}=${c.keyValue}"))
        if (cs.nonEmpty) {
          val c = cs.maxBy(c0 => (c0.discrimination, c0.key, c0.keyValue))
          val views = c.sides.flatten.toSet
          val opts = c.sides.zipWithIndex.map { case (side, i) =>
            QOption(s"side$i", views -- side, accepts = Some(side.toVector.min))
          }
          Some(Question(Interface.PairQ, s"${c.key}=${c.keyValue}", opts))
        } else {
          // Fallback: pick between the two top-ranked views.
          val top = state.ranking.take(2)
          if (top.size < 2) None
          else Some(Question(Interface.PairQ, s"${top(0)} vs ${top(1)}", Vector(
            QOption(top(0), Set(top(1)), accepts = Some(top(0))),
            QOption(top(1), Set(top(0)), accepts = Some(top(1))))))
        }
    }
  }
}
