#!/usr/bin/env python3
"""Run one workload of Ver's benchmark.

    python3 verbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run compiles the program's
sources together with the benchmark (sbt, offline) and records the runtime
classpath; later runs reuse it while the sources are unchanged. Every file a
run writes stays under verbench/target. The last line of standard output is
the JSON result.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGET = BENCH / "target"
CLASSPATH = TARGET / "bench-classpath.txt"
STAMP = TARGET / "bench-stamp.txt"
WORKLOADS = ("index-build", "qbe-search", "view-pipeline")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# C1 only: with the C2 tier, times keep drifting down for minutes as it
# recompiles Spark's and the program's hot paths, so short runs differ from
# each other; with C1 alone they settle after one warm-up operation.
JVM_OPTS = ["-Xmx3g", "-XX:TieredStopAtLevel=1"]


def sources():
    """Files whose content decides the build."""
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "src" / "test", BENCH / "src" / "main"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def digest(files):
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build(stamp):
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == stamp:
        return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SPARK_HOME" not in env and shutil.which("spark-submit"):
        env["SPARK_HOME"] = str(Path(shutil.which("spark-submit")).resolve().parent.parent)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"]
    # sbt's log goes to stderr: standard output carries only the result.
    r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0 or not CLASSPATH.exists():
        sys.exit(f"verbench: build failed (sbt exit {r.returncode})")
    STAMP.write_text(stamp)


def source_id(stamp):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return f"git:{sha}" if sha else f"sources-sha256:{stamp[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    a = ap.parse_args()
    if a.seconds < 1:
        sys.exit("verbench: --seconds must be at least 1")
    if not (ROOT / "src" / "main" / "scala").is_dir():
        sys.exit(f"verbench: no program sources under {ROOT / 'src' / 'main' / 'scala'}; "
                 "run from the root of a checkout")

    files = sources()
    stamp = digest(files)
    build(stamp)

    TARGET.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=TARGET))
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    # The program's own Spark defaults apply: no master or partition override.
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    env["SPARK_LOCAL_DIRS"] = str(work)
    cmd = [str(java), *JVM_OPTS,
           f"-Djava.io.tmpdir={work}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.driver.bindAddress=127.0.0.1",
           "-cp", CLASSPATH.read_text().strip(), "verbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--start-ms", str(int(time.time() * 1000)), "--source", source_id(stamp)]
    if a.trace == "1":
        cmd += ["--trace-out", str(TARGET / f"spans-{a.workload}-{a.seed}.jsonl")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        sys.exit(f"verbench: run failed (exit {r.returncode})")
    sys.stdout.write(r.stdout)


if __name__ == "__main__":
    main()
