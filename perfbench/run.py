#!/usr/bin/env python3
"""BClean benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the system from source if needed (perfbench/build.py), then runs one
benchmark JVM. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it records the
pinned environment. Run from the repository root.
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import build  # noqa: E402

# Pinned run environment, printed with every result. Spark runs in one local
# process on at most MAX_CORES cores; shuffles use one partition per core.
MAX_CORES = 4
DRIVER_HEAP = "2g"
TIMEOUT_S = 170          # a benchmark run must end within 180 s
SELFTEST_TIMEOUT_S = 600 # the self-test makes four runs in one JVM

# The module openings Spark's own launcher passes to a Java 17 driver; no
# JVM perf-data file, so nothing is written outside the checkout.
JVM_OPTS = [
    "-XX:-UsePerfData",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def cores():
    return max(1, min(MAX_CORES, len(os.sched_getaffinity(0))))


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    try:
        classpath, digest = build.build()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    tmp = os.path.join(build.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    k = cores()
    cmd = ["java", f"-Xmx{DRIVER_HEAP}", *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Dperfbench.dir={build.OUT}",
           f"-Dperfbench.cores={k}",
           f"-Dperfbench.partitions={k}",
           f"-Dperfbench.commit={commit()}",
           f"-Dperfbench.source={digest}",
           "-cp", classpath, "repro.perfbench.Main"]
    if a.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(build.OUT, "spark-local"))
    timeout = SELFTEST_TIMEOUT_S if a.selftest else TIMEOUT_S
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"benchmark JVM killed after {timeout} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
