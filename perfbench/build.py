#!/usr/bin/env python3
"""Build file of the benchmark: compiles the pipeline and the benchmark.

Compiles the repository's `src/main/scala` together with `perfbench/src`
with the Scala compiler that ships in the Spark distribution ($SPARK_HOME/jars),
so no build tool or dependency resolution is needed. Output goes to
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`) under the
current directory, which must be the repository root. A stamp of the sources'
SHA-256 skips the compile when nothing changed.

    python3 perfbench/build.py
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
MAIN_SRC = os.path.join("src", "main", "scala")


class BuildError(Exception):
    pass


def build_dir():
    return os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("SPARK_HOME must point at a Spark distribution with a jars/ directory")
    return os.path.join(home, "jars")


def sources():
    if not os.path.isdir(MAIN_SRC):
        raise BuildError(f"no {MAIN_SRC} under {os.getcwd()}: run from the repository root")
    main = sorted(glob.glob(os.path.join(MAIN_SRC, "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(BENCH_DIR, "src", "**", "*.scala"), recursive=True))
    if not main or not bench:
        raise BuildError("missing Scala sources")
    return main + bench


def source_sha(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f).encode() + b"\0")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Returns (classes directory, source hash), compiling when needed."""
    files = sources()
    sha = source_sha(files)
    out = build_dir()
    classes = os.path.join(out, "classes")
    stamp = os.path.join(out, "stamp")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return classes, sha

    jars = spark_jars()
    compiler = [glob.glob(os.path.join(jars, f"scala-{m}-2.13.*.jar")) for m in ("compiler", "library", "reflect")]
    if not all(compiler):
        raise BuildError(f"no Scala 2.13 compiler jars in {jars}")
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp", "-d", tmp,
           "-classpath", os.path.join(jars, "*")] + files
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(tmp, classes)
    with open(stamp, "w") as fh:
        fh.write(sha)
    return classes, sha


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        sys.exit(f"perfbench build: {e}")
