#!/usr/bin/env python3
"""Build file of the walk benchmark: compiles the program and the bench.

Compiles the program's main sources (``src/main/scala``, ``jobs``) and the
bench's own sources (``rwbench/src``) with the Scala 2.13 compiler that
ships inside the Spark distribution's ``jars`` directory, into
``$CARGO_TARGET_DIR/rwbench/classes-<hash>`` (default ``.bench_build``).
The hash covers every source file, so an unchanged tree is not rebuilt.

Run from the repository root:  python3 rwbench/build.py
Prints the class directory on success; exits non-zero if a source tree is
missing or compilation fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys

PROGRAM_DIRS = ["src/main/scala", "jobs"]
BENCH_DIR = "rwbench/src"


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME, else the first
    distribution with a ``bin/spark-submit`` on the PATH that has them."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and os.path.isfile(os.path.join(jars, "scala-compiler-2.13.17.jar")):
            return jars
    sys.exit("build: no Spark distribution with scala-compiler-2.13.17.jar (set SPARK_HOME)")


def build_root():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "rwbench")


def sources():
    if not os.path.isdir("src/main/scala/repro"):
        sys.exit("build: src/main/scala/repro not found; run from the repository root")
    files = []
    for d in PROGRAM_DIRS + [BENCH_DIR]:
        for root, _, names in os.walk(d):
            files += [os.path.join(root, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build():
    """Compile if needed; return (class directory, whether it compiled now)."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    out = os.path.join(build_root(), "classes-" + h.hexdigest()[:16])
    if os.path.isdir(out):
        return out, False
    os.makedirs(build_root(), exist_ok=True)
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    print(f"build: compiling {len(files)} sources into {out}", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.exit("build: compilation failed")
    os.rename(tmp, out)
    for old in os.listdir(build_root()):
        if old.startswith("classes-") and os.path.join(build_root(), old) != out:
            shutil.rmtree(os.path.join(build_root(), old), ignore_errors=True)
    return out, True


if __name__ == "__main__":
    print(build()[0])
