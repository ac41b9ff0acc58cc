package repro.core

/** The session state and `step` that [[Presenter.State]] and
  * [[Presenter.step]] replaced, over view ids: the live views are the keys
  * of a `Map[String, Double]` of utilities, and the ranking sorts them by
  * (−utility, id). Kept as the reference the view-number version is checked
  * against, with [[QuestionsReference]] building its questions.
  */
object StepReference {

  final case class State(utility: Map[String, Double], asked: Map[Interface, Int], answered: Map[Interface, Int],
                         shown: Set[(Interface, String)], interactions: Int, skipStreak: Int) {
    def live: Set[String] = utility.keySet
    lazy val ranking: Vector[String] = utility.toVector.sortBy { case (id, u) => (-u, id) }.map(_._1)
    /** r(I): the Laplace-smoothed answer rate. */
    def rate(i: Interface): Double = (answered(i) + 0.5) / (asked(i) + 1.0)
  }

  /** Every view live at its initial score; nothing asked yet. */
  def initial(views: Vector[MatView], initialScores: Map[String, Double]): State =
    State(views.map(v => v.id -> initialScores.getOrElse(v.id, 0.0)).toMap,
      Interface.all.map(_ -> 0).toMap, Interface.all.map(_ -> 0).toMap, Set.empty, 0, 0)

  def step(state: State, question: QuestionsReference.Question, answer: Option[Int]): Either[Session, State] = {
    val i = question.iface
    val asked = state.copy(asked = state.asked.updated(i, state.asked(i) + 1),
      shown = state.shown + (i -> question.label), interactions = state.interactions + 1)
    answer match {
      case None =>
        if (state.skipStreak + 1 >= Presenter.GiveUpAfter)
          Left(Session(found = false, asked.interactions, state.live.size))
        else Right(asked.copy(skipStreak = state.skipStreak + 1))
      case Some(k) =>
        val next = asked.copy(answered = state.answered.updated(i, state.answered(i) + 1), skipStreak = 0)
        val opt = question.options(k)
        if (i == Interface.DatasetQ && opt.accepts.nonEmpty)
          Left(Session(found = true, next.interactions, state.live.size))
        else {
          val keep = state.utility -- opt.prune
          val r = next.rate(i)
          val capture = math.max(1, keep.size)
          Right(next.copy(utility = keep.transform((_, u) => u + r / capture)))
        }
    }
  }
}
