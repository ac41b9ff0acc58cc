package repro.bench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}
import scala.sys.process._
import scala.util.Try

/** What the bench suites share: timing a call, and writing a
  * `BENCH_*.json` stamped with the commit it measured under `target/` at
  * the repository root. A run never touches the committed `BENCH_*.json`
  * files; recording one means copying it from `target/` to the root.
  */
object BenchFiles {
  def ms[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  private def git(args: String*): Option[String] =
    Try(Process("git" +: args).!!(ProcessLogger(_ => ())).trim).toOption.filter(_.nonEmpty)

  /** HEAD's SHA, suffixed `-dirty` when tracked files differ from it. */
  def sha: String = git("rev-parse", "HEAD").getOrElse("unknown") +
    (if (git("status", "--porcelain", "--untracked-files=no").isDefined) "-dirty" else "")

  /** The first directory at or above `from` that holds `build.sbt`: the
    * repository root, also from the bench project's directory, which sbt's
    * forked test JVM runs in, and in a checkout without `.git`.
    */
  def repoRoot(from: Path): Path =
    Iterator.iterate(from.toAbsolutePath)(_.getParent).takeWhile(_ != null)
      .find(d => Files.isRegularFile(d.resolve("build.sbt")))
      .getOrElse(throw new IllegalStateException(s"no build.sbt at or above $from"))

  def write(fileName: String, json: String): Unit = {
    val dir = Files.createDirectories(repoRoot(Paths.get(sys.props("user.dir"))).resolve("target"))
    Files.write(dir.resolve(fileName), json.getBytes(StandardCharsets.UTF_8))
  }
}
