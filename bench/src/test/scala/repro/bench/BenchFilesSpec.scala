package repro.bench

import java.nio.file.{Files, Paths}
import java.util.Comparator
import org.scalatest.funsuite.AnyFunSuite

/** Where [[BenchFiles.write]] puts its files: `target/` under the nearest
  * directory at or above the working directory that holds `build.sbt`.
  */
class BenchFilesSpec extends AnyFunSuite {
  test("repoRoot walks up to the nearest directory with build.sbt") {
    val root = Files.createTempDirectory("benchfiles").toAbsolutePath
    try {
      Files.write(root.resolve("build.sbt"), Array.emptyByteArray)
      val bench = Files.createDirectories(root.resolve("bench/src/test"))
      val nested = Files.createDirectories(root.resolve("verbench/src"))
      Files.write(root.resolve("verbench/build.sbt"), Array.emptyByteArray)
      assert(BenchFiles.repoRoot(root) == root)
      assert(BenchFiles.repoRoot(bench) == root)
      assert(BenchFiles.repoRoot(nested) == root.resolve("verbench"))
    } finally {
      val walk = Files.walk(root)
      try walk.sorted(Comparator.reverseOrder()).forEach(p => Files.delete(p)) finally walk.close()
    }
  }
  test("from the bench project's directory, repoRoot is the repository root") {
    val root = BenchFiles.repoRoot(Paths.get(sys.props("user.dir")))
    assert(Files.isDirectory(root.resolve("bench")) && Files.isDirectory(root.resolve("src")))
  }
}
