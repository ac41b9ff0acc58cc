package repro.core

import scala.annotation.tailrec
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

/** One selectable answer of a question: choosing it prunes the view set
  * `prune` from the candidates; `accepts` marks a dataset-question "yes"
  * that ends the session with that view, by the [[Presenter]]'s number.
  */
final case class QOption(label: String, prune: Array[Long], accepts: Option[Int] = None)

/** A question shown on some interface. Its information gain is the maximum
  * number of views pruned over the possible answers (§IV-A Question's
  * reward).
  */
final case class Question(iface: Interface, label: String, options: Vector[QOption]) {
  require(options.nonEmpty)
  def gain: Int = options.map(o => Presenter.count(o.prune)).max
}

/** A simulated study participant: answers a question truthfully w.p.
  * `answerProb(interface)` and skips otherwise; browses ranked lists with a
  * bounded `patience` (views examined before giving up). "Truthfully" means
  * by [[Presenter.satisfies]].
  */
final case class SimUser(name: String, answerProb: Map[Interface, Double], patience: Int, seed: Long) {

  /** Index of the truthful option, or None to skip (unknown or unlucky); `views` by number. */
  def answer(q: Question, target: MatView, views: IndexedSeq[MatView], rng: Random): Option[Int] = {
    if (rng.nextDouble() >= answerProb.getOrElse(q.iface, 0.0)) return None
    def satisfies(v: Int): Boolean = Presenter.satisfies(views(v), target)
    q.iface match {
      case Interface.DatasetQ =>
        // "Does this view satisfy your requirements?"
        val shown = q.options.head.accepts.getOrElse(return None)
        Some(if (satisfies(shown)) 0 else 1)
      case Interface.AttributeQ =>
        // options: yes = views WITH the attribute survive.
        val attr = q.label
        Some(if (target.schema.contains(attr)) 0 else 1)
      case Interface.SummaryQ => // option 1, irrelevant, prunes the asked schema's block
        Some(if (views(Presenter.members(q.options(1).prune).next()).schema == target.schema) 0 else 1)
      case Interface.PairQ =>
        // Options are sides of a contradiction (or a top-2 pick): the
        // truthful choice is the unique option that does NOT prune a view
        // satisfying the target. A user whose target is uninvolved has no
        // basis to answer and skips.
        val pruningTarget = q.options.indices.filter(i => Presenter.members(q.options(i).prune).exists(satisfies))
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

  /** The views in id order: view `i` is bit `i` of every view set, so a set's lowest bit is its least id. */
  val byNumber: Vector[MatView] = views.sortBy(_.id)
  private val ids: Array[String] = byNumber.map(_.id).toArray
  private val words = (ids.length + 63) >>> 6
  /** The view set of `numbers`. */
  private def setOf(numbers: IterableOnce[Int]): Array[Long] =
    numbers.iterator.foldLeft(new Array[Long](words)) { (b, i) => b(i >>> 6) |= 1L << i; b }

  /** Every view live at its initial score; nothing asked yet. */
  val initial: State = State(setOf(ids.indices), ids.map(initialScores.getOrElse(_, 0.0)),
    Interface.all.map(_ -> 0).toMap, Interface.all.map(_ -> 0).toMap, Set.empty, 0, 0)

  // Every set a question splits the live views by, built on the first call
  // to `questions`, so that a round intersects them with its live set and
  // counts bits.
  /** Each attribute with the views that have it. */
  private lazy val attributes: Vector[(String, Array[Long])] = {
    val has = mutable.HashMap.empty[String, Array[Long]]
    for (i <- ids.indices; a <- byNumber(i).schema) has.getOrElseUpdate(a, new Array(words))(i >>> 6) |= 1L << i
    has.toVector
  }
  /** Each schema block's SummaryQ label and views, in schema order. */
  private lazy val blocks: Vector[(String, Array[Long])] = {
    val block = mutable.HashMap.empty[Vector[String], Array[Long]]
    for (i <- ids.indices) block.getOrElseUpdate(byNumber(i).schema, new Array(words))(i >>> 6) |= 1L << i
    block.toVector.sortBy(_._1)(MatView.rowOrdering).map { case (schema, b) => schema.mkString("|") -> b }
  }
  // The sides of contradiction c, in report order, are view sets firstSide(c)
  // until firstSide(c + 1) of sideBits, each `words` long, without other ids.
  private lazy val firstSide: Array[Int] = report.contradictions.scanLeft(0)(_ + _.sides.size).toArray
  private lazy val sideBits: Array[Long] = {
    val b = new Array[Long](firstSide.last * words)
    var side = 0
    for (c <- report.contradictions; members <- c.sides) {
      members.foreach { id =>
        val i = java.util.Arrays.binarySearch(ids.asInstanceOf[Array[AnyRef]], id)
        if (i >= 0) b(side * words + (i >>> 6)) |= 1L << i
      }
      side += 1
    }
    b
  }

  /** Each interface's best question not shown yet, in [[Interface.all]]
    * order; an interface with nothing left to ask has none. AttributeQ and
    * SummaryQ ask the split whose larger side is largest, ties to the
    * greater label, then (SummaryQ, whose labels can collide) to the first
    * block in schema order; PairQ asks the live contradiction with the
    * largest agreeing side, ties to the greater (key, key value), then to
    * the first in report order.
    */
  def questions(state: State): Vector[Question] = {
    val live = state.live
    val n = state.liveCount
    def shown(i: Interface, label: String): Boolean = state.shown((i, label))
    // The labelled set whose split of the live views has the largest larger
    // side; `keep` prunes the live views outside it, `drop` those inside.
    def split(i: Interface, sets: Vector[(String, Array[Long])], keep: String, drop: String): Option[Question] = {
      var best: (String, Array[Long]) = null
      var bestSide = 0
      for (set @ (label, members) <- sets) {
        val k = countAnd(members, 0, live)
        val side = math.max(k, n - k)
        if (k > 0 && k < n && (best == null || side > bestSide || side == bestSide && label > best._1) &&
            !shown(i, label)) { best = set; bestSide = side }
      }
      Option(best).map { case (label, members) =>
        Question(i, label, Vector(QOption(keep, andNot(live, members)), QOption(drop, and(live, members))))
      }
    }
    Interface.all.flatMap {
      case Interface.DatasetQ =>
        state.ranking.find(v => !shown(Interface.DatasetQ, ids(v))).map { v =>
          Question(Interface.DatasetQ, ids(v), Vector(
            QOption("yes", setOf(Nil), accepts = Some(v)),
            QOption("no", setOf(Seq(v)))))
        }
      case Interface.AttributeQ => split(Interface.AttributeQ, attributes, "include", "exclude")
      case Interface.SummaryQ   => split(Interface.SummaryQ, blocks, "relevant", "irrelevant")
      case Interface.PairQ =>
        // Each contradiction's largest live side, or 0 with fewer than two
        // live sides; the best not shown is the best overall once shown
        // ones are dropped, so only winners' labels are built.
        val cs = report.contradictions
        val disc = new Array[Int](cs.size)
        for (c <- cs.indices) {
          var kept = 0
          var side = firstSide(c)
          while (side < firstSide(c + 1)) {
            val k = countAnd(sideBits, side * words, live)
            if (k > 0) kept += 1
            if (k > disc(c)) disc(c) = k
            side += 1
          }
          if (kept < 2) disc(c) = 0
        }
        def strongest: Int = {
          var best = -1
          for (c <- cs.indices if disc(c) > 0)
            if (best < 0 || disc(c) > disc(best) || disc(c) == disc(best) && {
                  val byKey = cs(c).key.compareTo(cs(best).key)
                  byKey > 0 || byKey == 0 && cs(c).keyValue.compareTo(cs(best).keyValue) > 0
                }) best = c
          best
        }
        var best = strongest
        while (best >= 0 && shown(Interface.PairQ, pairLabel(cs(best)))) { disc(best) = 0; best = strongest }
        if (best >= 0) {
          val kept = Vector.range(firstSide(best), firstSide(best + 1))
            .map(side => Array.tabulate(words)(w => sideBits(side * words + w) & live(w)))
            .filter(count(_) > 0)
          val all = kept.reduce((a, b) => Array.tabulate(words)(w => a(w) | b(w)))
          Some(Question(Interface.PairQ, pairLabel(cs(best)), kept.zipWithIndex.map { case (side, i) =>
            QOption(s"side$i", andNot(all, side), accepts = Some(members(side).next()))
          }))
        } else {
          // Fallback: pick between the two top-ranked views.
          val top = state.ranking.take(2)
          if (top.size < 2) None
          else Some(Question(Interface.PairQ, s"${ids(top(0))} vs ${ids(top(1))}", Vector(
            QOption(ids(top(0)), setOf(Seq(top(1))), accepts = Some(top(0))),
            QOption(ids(top(1)), setOf(Seq(top(0))), accepts = Some(top(1))))))
        }
    }
  }

  def run(user: SimUser, target: MatView): Session = {
    val rng = new Random(user.seed)
    def satisfies(v: Int): Boolean = Presenter.satisfies(byNumber(v), target)
    def scan(s: State) = Session(s.ranking.take(user.patience).exists(satisfies), s.interactions, s.liveCount)
    @tailrec def loop(s: State): Session = {
      lazy val qs = questions(s)
      if (s.interactions >= MaxT) scan(s)
      // A short list is directly scannable: one more interaction settles it.
      else if (s.liveCount <= SmallK) Session(members(s.live).exists(satisfies), s.interactions + 1, s.liveCount)
      else if (qs.isEmpty) scan(s)
      else {
        val q = choose(s, qs, rng)
        step(s, q, user.answer(q, target, byNumber, rng)) match {
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

  /** A session between rounds: the live views, utilities by view number
    * (`ranking`: live views by −utility, then number, i.e. id), questions
    * asked and answered per interface, every question shown as (interface,
    * label), and the interactions and consecutive skips so far.
    */
  final case class State(live: Array[Long], utility: Array[Double], asked: Map[Interface, Int],
                         answered: Map[Interface, Int], shown: Set[(Interface, String)], interactions: Int,
                         skipStreak: Int) {
    lazy val liveCount: Int = count(live)
    lazy val ranking: Vector[Int] = members(live).toVector.sortBy(v => (-utility(v), v))
    /** r(I): the Laplace-smoothed answer rate. */
    def rate(i: Interface): Double = (answered(i) + 0.5) / (asked(i) + 1.0)
  }

  /** A view satisfies the session when it has the target's schema and
    * covers the target's rows — C2's containment representative stands in
    * for the views it pruned. AttributeQ and SummaryQ answers prune by
    * schema, so a view under other column names is not the target. Rows
    * are compared as int codes ([[MatView]]).
    */
  def satisfies(view: MatView, target: MatView): Boolean =
    view.schema == target.schema && view.covers(target)

  /** The post-bootstrap arm probabilities of `questions`, in their order;
    * `χ(I)` is the question's gain over the live views.
    */
  def probabilities(state: State, questions: Vector[Question]): Vector[Double] = {
    val weights = questions.map(q => state.rate(q.iface) * (q.gain.toDouble / state.liveCount))
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
        if (state.skipStreak + 1 >= GiveUpAfter) Left(Session(found = false, asked.interactions, state.liveCount))
        else Right(asked.copy(skipStreak = state.skipStreak + 1))
      case Some(k) =>
        val next = asked.copy(answered = state.answered.updated(i, state.answered(i) + 1), skipStreak = 0)
        val opt = question.options(k)
        if (i == Interface.DatasetQ && opt.accepts.nonEmpty)
          Left(Session(found = true, next.interactions, state.liveCount))
        else {
          // Utility update (§IV-B Ranking Views): surviving views captured
          // by the answer gain r(I)/|capture|.
          val keep = andNot(state.live, opt.prune)
          val r = next.rate(i)
          val capture = math.max(1, count(keep))
          val utility = state.utility.clone()
          members(keep).foreach(v => utility(v) += r / capture)
          Right(next.copy(live = keep, utility = utility))
        }
    }
  }

  private def pairLabel(c: Contradiction): String = s"${c.key}=${c.keyValue}"

  /** The number of views in `set`. */
  def count(set: Array[Long]): Int = countAnd(set, 0, set)

  /** The view numbers in `set`, ascending. */
  def members(set: Array[Long]): Iterator[Int] =
    Iterator.range(0, set.length << 6).filter(v => (set(v >>> 6) >>> v & 1) != 0)

  // Word operations on a presenter's view sets: `a` from word `from`
  // against all of `b`.
  private def countAnd(a: Array[Long], from: Int, b: Array[Long]): Int = {
    var n = 0
    var w = 0
    while (w < b.length) { n += java.lang.Long.bitCount(a(from + w) & b(w)); w += 1 }
    n
  }
  private def and(a: Array[Long], b: Array[Long]): Array[Long] = Array.tabulate(a.length)(w => a(w) & b(w))
  private def andNot(a: Array[Long], b: Array[Long]): Array[Long] = Array.tabulate(a.length)(w => a(w) & ~b(w))

  /** Index of the first arm whose cumulative probability exceeds `u`, for
    * `u` drawn uniformly from [0, Σ probs); the last arm when rounding
    * leaves `u` at or above the cumulative total.
    */
  def sampleArm(probs: Vector[Double], u: Double): Int = {
    val i = probs.scanLeft(0.0)(_ + _).tail.indexWhere(u < _)
    if (i < 0) probs.size - 1 else i
  }
}
