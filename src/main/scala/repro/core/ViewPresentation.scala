package repro.core

import scala.collection.mutable
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
  * bounded `patience` (views examined before giving up).
  */
final case class SimUser(name: String, answerProb: Map[Interface, Double], patience: Int, seed: Long) {

  /** Index of the truthful option, or None to skip (unknown or unlucky). */
  def answer(q: Question, target: MatView, views: Map[String, MatView], rng: Random): Option[Int] = {
    if (rng.nextDouble() >= answerProb.getOrElse(q.iface, 0.0)) return None
    def viewOf(id: String): MatView = views(id)
    q.iface match {
      case Interface.DatasetQ =>
        // "Does this view satisfy your requirements?" — yes when the shown
        // view covers the desired rows (a containment representative kept
        // by C2 distillation answers the query).
        val shown = viewOf(q.options.head.accepts.orElse(q.options.head.prune.headOption)
          .getOrElse(return None))
        Some(if (target.rowSet.subsetOf(shown.rowSet)) 0 else 1)
      case Interface.AttributeQ =>
        // options: yes = views WITH the attribute survive.
        val attr = q.label
        Some(if (target.schema.contains(attr)) 0 else 1)
      case Interface.SummaryQ =>
        val schema = q.label.split('|').toVector
        Some(if (target.schema == schema) 0 else 1)
      case Interface.PairQ =>
        // Options are sides of a contradiction (or a top-2 pick): the
        // truthful choice is the unique option that does NOT prune a view
        // matching the target's rows. A user whose target is uninvolved has
        // no basis to answer and skips.
        val pruningTarget = q.options.indices
          .filter(i => q.options(i).prune.exists(id => target.rowSet.subsetOf(viewOf(id).rowSet)))
        val safe = q.options.indices.filterNot(pruningTarget.contains)
        if (pruningTarget.nonEmpty && safe.size == 1) Some(safe.head) else None
    }
  }
}

/** Outcome of one presentation session. */
final case class Session(found: Boolean, interactions: Int, finalSize: Int,
                         askedPerInterface: Map[Interface, Int])

/** VIEW-PRESENTATION (Algorithm 2): an Exp3-style bandit chooses which
  * question interface to use each round — `p(I) = (1−γ)·w(I)/Σw + γ/|I|`
  * with `w(I) = r(I)·χ(I)` — bootstrapped round-robin for ⌈log₂|I|⌉ rounds
  * per interface. Questions never prune a view unless the user's answer
  * rules it out, and a truthful user's target is never pruned.
  */
final class Presenter(
    views: Vector[MatView],
    report: DistillReport,
    initialScores: Map[String, Double],
    gamma: Double = 0.2,
    maxT: Int = 60,
    smallK: Int = 3,
) {
  private val byId: Map[String, MatView] = views.map(v => v.id -> v).toMap

  def run(user: SimUser, target: MatView): Session = {
    val rng = new Random(user.seed)
    var s: Set[String] = views.map(_.id).toSet
    val asked = mutable.Map(Interface.all.map(_ -> 0): _*)
    val answered = mutable.Map(Interface.all.map(_ -> 0): _*)
    val shownDatasets = mutable.Set.empty[String]
    val askedAttrs = mutable.Set.empty[String]
    val askedSummaries = mutable.Set.empty[String]
    val askedContradictions = mutable.Set.empty[String]
    val utility = mutable.Map(views.map(v => v.id -> initialScores.getOrElse(v.id, 0.0)): _*)
    var interactions = 0
    val bootstrapPerArm = math.ceil(math.log(Interface.all.size.toDouble) / math.log(2)).toInt

    def ranking: Vector[String] = s.toVector.sortBy(id => (-utility(id), id))

    def questionFor(iface: Interface): Option[Question] = iface match {
      case Interface.DatasetQ =>
        ranking.find(!shownDatasets.contains(_)).map { id =>
          Question(Interface.DatasetQ, id, Vector(
            QOption("yes", Set.empty, accepts = Some(id)),
            QOption("no", Set(id))))
        }
      case Interface.AttributeQ =>
        val attrs = s.toVector.flatMap(id => byId(id).schema).distinct
          .filterNot(askedAttrs.contains)
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
        val blocks = s.groupBy(id => byId(id).schema).filter(_._2.size < s.size)
        val fresh = blocks.filterNot { case (schema, _) => askedSummaries.contains(schema.mkString("|")) }
        if (fresh.isEmpty) None
        else {
          val (schema, block) = fresh.maxBy { case (sc, b) => (math.max(b.size, s.size - b.size), sc.mkString("|")) }
          Some(Question(Interface.SummaryQ, schema.mkString("|"), Vector(
            QOption("relevant", s -- block), QOption("irrelevant", block.toSet))))
        }
      case Interface.PairQ =>
        val live = report.contradictions.flatMap(_.restrictTo(s))
          .filter(c => !askedContradictions.contains(s"${c.key}=${c.keyValue}"))
        if (live.nonEmpty) {
          val c = live.maxBy(c0 => (c0.discrimination, c0.key, c0.keyValue))
          val opts = c.sides.zipWithIndex.map { case (side, i) =>
            QOption(s"side$i", c.views -- side, accepts = Some(side.toVector.min))
          }
          Some(Question(Interface.PairQ, s"${c.key}=${c.keyValue}", opts))
        } else {
          // Fallback: pick between the two top-ranked views.
          val top = ranking.take(2)
          if (top.size < 2) None
          else Some(Question(Interface.PairQ, s"${top(0)} vs ${top(1)}", Vector(
            QOption(top(0), Set(top(1)), accepts = Some(top(0))),
            QOption(top(1), Set(top(0)), accepts = Some(top(1))))))
        }
    }

    // A view "satisfies" the session when it covers the target's rows —
    // C2's containment representative stands in for the views it pruned.
    def satisfies(id: String): Boolean = target.rowSet.subsetOf(byId(id).rowSet)

    var t = 0
    var skipStreak = 0
    val giveUpAfter = 8
    while (t < maxT) {
      t += 1
      // A short list is directly scannable: one more interaction settles it.
      if (s.size <= smallK) {
        interactions += 1
        return Session(s.exists(satisfies), interactions, s.size, asked.toMap)
      }
      val available = Interface.all.flatMap(i => questionFor(i).map(i -> _))
      if (available.isEmpty) {
        val found = ranking.take(user.patience).exists(satisfies)
        return Session(found, interactions, s.size, asked.toMap)
      }
      val byIface = available.toMap
      val inBootstrap = available.exists { case (i, _) => asked(i) < bootstrapPerArm }
      val chosen: Interface =
        if (inBootstrap) available.filter { case (i, _) => asked(i) < bootstrapPerArm }
          .minBy { case (i, _) => (asked(i), i.name) }._1
        else {
          val weights = available.map { case (i, q) =>
            val r = (answered(i) + 0.5) / (asked(i) + 1.0)
            val chi = q.gain.toDouble / s.size
            i -> r * chi
          }
          val total = weights.map(_._2).sum
          val n = weights.size
          val probs = weights.map { case (i, w) =>
            i -> ((if (total > 0) (1 - gamma) * w / total else (1 - gamma) / n) + gamma / n)
          }
          val ps = probs.map(_._2)
          probs(Presenter.sampleArm(ps, rng.nextDouble() * ps.sum))._1
        }
      val q = byIface(chosen)
      asked(chosen) += 1
      interactions += 1
      // Mark the question as shown regardless of the answer, so skipped
      // questions are not re-asked forever.
      chosen match {
        case Interface.DatasetQ   => shownDatasets += q.label
        case Interface.AttributeQ => askedAttrs += q.label
        case Interface.SummaryQ   => askedSummaries += q.label
        case Interface.PairQ      => askedContradictions += q.label
      }
      user.answer(q, target, byId, rng) match {
        case None =>
          // Skip — only r(I) learns from this; a long streak of skips means
          // the participant disengages and abandons the task.
          skipStreak += 1
          if (skipStreak >= giveUpAfter)
            return Session(found = false, interactions, s.size, asked.toMap)
        case Some(optIdx) =>
          skipStreak = 0
          answered(chosen) += 1
          val opt = q.options(optIdx)
          if (chosen == Interface.DatasetQ && opt.accepts.nonEmpty)
            return Session(found = true, interactions, s.size, asked.toMap)
          val keep = s -- opt.prune
          // Utility update (§IV-B Ranking Views): surviving views captured
          // by the answer gain r(I)/|capture|.
          val r = (answered(chosen) + 0.5) / (asked(chosen) + 1.0)
          val capture = math.max(1, keep.size)
          keep.foreach(id => utility(id) += r / capture)
          opt.prune.foreach(utility.remove)
          s = keep
      }
    }
    Session(ranking.take(user.patience).exists(satisfies), interactions, s.size, asked.toMap)
  }
}

object Presenter {
  /** Index of the first arm whose cumulative probability exceeds `u`, for
    * `u` drawn uniformly from [0, Σ probs); the last arm when rounding
    * leaves `u` at or above the cumulative total.
    */
  def sampleArm(probs: Vector[Double], u: Double): Int = {
    val i = probs.scanLeft(0.0)(_ + _).tail.indexWhere(u < _)
    if (i < 0) probs.size - 1 else i
  }
}
