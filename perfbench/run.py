#!/usr/bin/env python3
"""IUAD benchmark: one workload, one run, result on the last stdout line.

Run from the repository root:

    python3 perfbench/run.py --workload batch-uniform --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the pipeline and the benchmark from source (perfbench/build.py), then
runs `repro.perfbench.Main` in one JVM on Spark local mode. `--trace 0`
prints the end-to-end metrics, `--trace 1` the per-layer ones. Everything the
run writes lands under $CARGO_TARGET_DIR (default `.bench_build`). See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("batch-uniform", "incremental")

# Module access Spark needs on Java 17 (what spark-submit adds itself).
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]

HEAP = "3g"


def java_cmd(classes, main_args):
    out = os.path.dirname(classes)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cp = os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")])
    return (["java", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}",
             "-Dlog4j2.configurationFile=" + os.path.join(build.BENCH_DIR, "log4j2.properties")]
            + JAVA_OPENS + ["-cp", cp] + main_args)


def git_commit():
    """HEAD of the checkout, or "none" outside a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_java(cmd):
    """Runs the JVM with inherited stdout/stderr and waits for it to end."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    # SIGTERM becomes SystemExit, so the compiler or JVM child is killed and
    # reaped on the way out instead of being left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that the output checks catch faults")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    try:
        classes, sha = build.build()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    results = os.path.join(os.path.dirname(classes), "results")
    if a.self_test:
        args = ["repro.perfbench.SelfTest", "--out", results]
    else:
        args = ["repro.perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", results, "--source-sha", sha,
                "--git-commit", git_commit()]
    return run_java(java_cmd(classes, args))


if __name__ == "__main__":
    sys.exit(main())
