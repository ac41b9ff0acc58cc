package repro.core

import scala.annotation.tailrec
import scala.util.Random

/** A question interface (§IV Question Interface): each is an arm of the
  * bandit.
  */
sealed abstract class Interface(val name: String) { override def toString: String = name }
object Interface {
  case object DatasetQ   extends Interface("dataset")
  case object AttributeQ extends Interface("attribute")
  case object PairQ      extends Interface("pair")
  case object SummaryQ   extends Interface("summary")
  val all: Vector[Interface] = Vector(DatasetQ, AttributeQ, PairQ, SummaryQ)
}

/** One selectable answer of a question: choosing it prunes `prune` from the
  * candidate set; `accepts` marks a dataset-question "yes" that ends the
  * session with that view.
  */
final case class QOption(label: String, prune: Set[String], accepts: Option[String] = None)

/** A question shown on some interface. Its information gain is the maximum
  * number of views pruned over the possible answers (§IV-A Question's
  * reward).
  */
final case class Question(iface: Interface, label: String, options: Vector[QOption]) {
  require(options.nonEmpty)
  def gain: Int = options.map(_.prune.size).max
}

/** A simulated study participant: answers a question truthfully w.p.
  * `answerProb(interface)` and skips otherwise; browses ranked lists with a
  * bounded `patience` (views examined before giving up). "Truthfully" means
  * by [[Presenter.satisfies]].
  */
final case class SimUser(name: String, answerProb: Map[Interface, Double], patience: Int, seed: Long) {

  /** Index of the truthful option, or None to skip (unknown or unlucky). */
  def answer(q: Question, target: MatView, views: Map[String, MatView], rng: Random): Option[Int] = {
    if (rng.nextDouble() >= answerProb.getOrElse(q.iface, 0.0)) return None
    def satisfies(id: String): Boolean = Presenter.satisfies(views(id), target)
    q.iface match {
      case Interface.DatasetQ =>
        // "Does this view satisfy your requirements?"
        val shown = q.options.head.accepts.orElse(q.options.head.prune.headOption).getOrElse(return None)
        Some(if (satisfies(shown)) 0 else 1)
      case Interface.AttributeQ =>
        // options: yes = views WITH the attribute survive.
        val attr = q.label
        Some(if (target.schema.contains(attr)) 0 else 1)
      case Interface.SummaryQ => // option 1, irrelevant, prunes the asked schema's block
        Some(if (views(q.options(1).prune.head).schema == target.schema) 0 else 1)
      case Interface.PairQ =>
        // Options are sides of a contradiction (or a top-2 pick): the
        // truthful choice is the unique option that does NOT prune a view
        // satisfying the target. A user whose target is uninvolved has no
        // basis to answer and skips.
        val pruningTarget = q.options.indices.filter(i => q.options(i).prune.exists(satisfies))
        val safe = q.options.indices.filterNot(pruningTarget.contains)
        if (pruningTarget.nonEmpty && safe.size == 1) Some(safe.head) else None
    }
  }
}

/** Outcome of one presentation session. */
final case class Session(found: Boolean, interactions: Int, finalSize: Int)

/** VIEW-PRESENTATION (Algorithm 2): an Exp3-style bandit chooses which
  * question interface to use each round — `p(I) = (1−γ)·w(I)/Σw + γ/|I|`
  * with `w(I) = r(I)·χ(I)` — bootstrapped round-robin for ⌈log₂|I|⌉ rounds
  * per interface. Questions never prune a view unless the user's answer
  * rules it out, and a truthful user's target is never pruned. A session is
  * a [[Presenter.State]]: each round `run` builds the [[questions]], draws
  * one from [[Presenter.probabilities]] and applies the answer with
  * [[Presenter.step]].
  */
final class Presenter(views: Vector[MatView], report: DistillReport, initialScores: Map[String, Double]) {
  import Presenter._
  private val byId: Map[String, MatView] = views.map(v => v.id -> v).toMap

  /** Every view live at its initial score; nothing asked yet. */
  val initial: State = State(views.map(v => v.id -> initialScores.getOrElse(v.id, 0.0)).toMap,
    Interface.all.map(_ -> 0).toMap, Interface.all.map(_ -> 0).toMap, Set.empty, 0, 0)

  /** Each interface's best question not shown yet, in [[Interface.all]]
    * order; an interface with nothing left to ask has none.
    */
  def questions(state: State): Vector[Question] = {
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
        val fresh = s.groupBy(id => byId(id).schema)
          .filter { case (schema, block) => block.size < s.size && !shown(Interface.SummaryQ, schema.mkString("|")) }
        if (fresh.isEmpty) None
        else {
          val (schema, block) = fresh.maxBy { case (sc, b) => (math.max(b.size, s.size - b.size), sc.mkString("|")) }
          Some(Question(Interface.SummaryQ, schema.mkString("|"), Vector(
            QOption("relevant", s -- block), QOption("irrelevant", block))))
        }
      case Interface.PairQ =>
        val cs = report.contradictions.flatMap(_.restrictTo(s))
          .filter(c => !shown(Interface.PairQ, s"${c.key}=${c.keyValue}"))
        if (cs.nonEmpty) {
          val c = cs.maxBy(c0 => (c0.discrimination, c0.key, c0.keyValue))
          val opts = c.sides.zipWithIndex.map { case (side, i) =>
            QOption(s"side$i", c.views -- side, accepts = Some(side.toVector.min))
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

  def run(user: SimUser, target: MatView): Session = {
    val rng = new Random(user.seed)
    def satisfies(id: String): Boolean = Presenter.satisfies(byId(id), target)
    def scan(s: State) = Session(s.ranking.take(user.patience).exists(satisfies), s.interactions, s.live.size)
    @tailrec def loop(s: State): Session = {
      lazy val qs = questions(s)
      if (s.interactions >= MaxT) scan(s)
      // A short list is directly scannable: one more interaction settles it.
      else if (s.live.size <= SmallK) Session(s.live.exists(satisfies), s.interactions + 1, s.live.size)
      else if (qs.isEmpty) scan(s)
      else {
        val q = choose(s, qs, rng)
        step(s, q, user.answer(q, target, byId, rng)) match {
          case Left(done)  => done
          case Right(next) => loop(next)
        }
      }
    }
    loop(initial)
  }
}

object Presenter {
  val Gamma = 0.2     // γ: the share of each round spread evenly over the arms
  val MaxT = 60       // rounds before the user scans the top of the ranking
  val SmallK = 3      // a live list this short is scanned directly
  val GiveUpAfter = 8 // consecutive skips before the user gives up
  // ⌈log₂|I|⌉ round-robin questions per interface before the first draw
  val BootstrapPerArm: Int = math.ceil(math.log(Interface.all.size.toDouble) / math.log(2)).toInt

  /** A session between rounds: live view id → utility, questions asked and
    * answered per interface, every question shown as (interface, label), and
    * the interactions and consecutive skips so far.
    */
  final case class State(utility: Map[String, Double], asked: Map[Interface, Int], answered: Map[Interface, Int],
                         shown: Set[(Interface, String)], interactions: Int, skipStreak: Int) {
    def live: Set[String] = utility.keySet
    lazy val ranking: Vector[String] = utility.toVector.sortBy { case (id, u) => (-u, id) }.map(_._1)
    /** r(I): the Laplace-smoothed answer rate. */
    def rate(i: Interface): Double = (answered(i) + 0.5) / (asked(i) + 1.0)
  }

  /** A view satisfies the session when it has the target's schema and
    * covers the target's rows — C2's containment representative stands in
    * for the views it pruned. AttributeQ and SummaryQ answers prune by
    * schema, so a view under other column names is not the target.
    */
  def satisfies(view: MatView, target: MatView): Boolean =
    view.schema == target.schema && target.rowSet.subsetOf(view.rowSet)

  /** The post-bootstrap arm probabilities of `questions`, in their order;
    * `χ(I)` is the question's gain over the live views.
    */
  def probabilities(state: State, questions: Vector[Question]): Vector[Double] = {
    val weights = questions.map(q => state.rate(q.iface) * (q.gain.toDouble / state.live.size))
    val total = weights.sum
    val n = weights.size
    weights.map(w => (if (total > 0) (1 - Gamma) * w / total else (1 - Gamma) / n) + Gamma / n)
  }

  private def choose(state: State, questions: Vector[Question], rng: Random): Question = {
    val bootstrap = questions.filter(q => state.asked(q.iface) < BootstrapPerArm)
    if (bootstrap.nonEmpty) bootstrap.minBy(q => (state.asked(q.iface), q.iface.name))
    else {
      val ps = probabilities(state, questions)
      questions(sampleArm(ps, rng.nextDouble() * ps.sum))
    }
  }

  /** Shows `question` and applies `answer` (None: a skip): the session's
    * outcome if the answer ends it, else the next state. A shown question is
    * not asked again, whatever the answer.
    */
  def step(state: State, question: Question, answer: Option[Int]): Either[Session, State] = {
    val i = question.iface
    val asked = state.copy(asked = state.asked.updated(i, state.asked(i) + 1),
      shown = state.shown + (i -> question.label), interactions = state.interactions + 1)
    answer match {
      case None =>
        // Skip — only r(I) learns from this; a long streak of skips means
        // the participant disengages and abandons the task.
        if (state.skipStreak + 1 >= GiveUpAfter) Left(Session(found = false, asked.interactions, state.live.size))
        else Right(asked.copy(skipStreak = state.skipStreak + 1))
      case Some(k) =>
        val next = asked.copy(answered = state.answered.updated(i, state.answered(i) + 1), skipStreak = 0)
        val opt = question.options(k)
        if (i == Interface.DatasetQ && opt.accepts.nonEmpty)
          Left(Session(found = true, next.interactions, state.live.size))
        else {
          // Utility update (§IV-B Ranking Views): surviving views captured
          // by the answer gain r(I)/|capture|.
          val keep = state.utility -- opt.prune
          val r = next.rate(i)
          val capture = math.max(1, keep.size)
          Right(next.copy(utility = keep.transform((_, u) => u + r / capture)))
        }
    }
  }

  /** Index of the first arm whose cumulative probability exceeds `u`, for
    * `u` drawn uniformly from [0, Σ probs); the last arm when rounding
    * leaves `u` at or above the cumulative total.
    */
  def sampleArm(probs: Vector[Double], u: Double): Int = {
    val i = probs.scanLeft(0.0)(_ + _).tail.indexWhere(u < _)
    if (i < 0) probs.size - 1 else i
  }
}
