#!/usr/bin/env python3
"""Walk benchmark entry point.

    python3 rwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the program and the bench from source
(see build.py), runs one workload in a fresh JVM with a fixed heap and a
fixed Spark ``local[N]``, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). Everything else goes to standard error. The full record of
the run (simulated stats, walk hash, checks, spans) is written to
``$CARGO_TARGET_DIR/rwbench/records/`` (default ``.bench_build``).
Exits non-zero, printing no result, if the build, the run or its output
is broken.
"""
import argparse
import json
import os
import subprocess
import sys
import time

LAUNCH_NS = time.time_ns()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import build  # noqa: E402

WORKLOADS = ["deepwalk-alias-si-lj", "node2vec-orej-seq-lj", "ppr-naive-walks-am"]
HEAP = "3g"
RUN_LIMIT_S = 170  # whole run, build excluded

# Spark on Java 17 needs these module openings (as spark-submit adds them).
JAVA_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    classes, compiled = build.build()
    # The 170 s limit counts from launch, or from the end of a fresh compile.
    limit = RUN_LIMIT_S - (0 if compiled else (time.time_ns() - LAUNCH_NS) / 1e9)
    root = build.build_root()
    work = os.path.abspath(os.path.join(root, "work"))
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    result = os.path.join(work, f"result-{tag}.json")
    record = os.path.abspath(os.path.join(root, "records", tag + ".json"))
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    if os.path.exists(result):
        os.remove(result)

    jars = os.path.join(build.spark_jars(), "*")
    cmd = (["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
            "-XX:+IgnoreUnrecognizedVMOptions", "-Djdk.reflect.useDirectMethodHandle=false",
            "-Dio.netty.tryReflectionSetAccessible=true", f"-Djava.io.tmpdir={tmp}",
            "-Dlog4j.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
           + JAVA_OPENS
           + ["-cp", os.path.abspath(classes) + os.pathsep + jars, "rwbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--launch-ns", str(time.time_ns()),
              "--result", result, "--record", record, "--work", work])
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    env.pop("SPARK_MASTER", None)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, env=env)
    try:
        code = proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run: JVM exceeded {limit:.0f} s; killed")
    if code != 0:
        sys.exit(f"run: JVM exited with {code}")

    with open(result) as fh:
        out = json.load(fh)
    if set(out) != {"correct", "attempted", "failed", "metrics"} or out["attempted"] < 1:
        sys.exit(f"run: malformed result {out}")
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
