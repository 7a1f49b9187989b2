"""Build file of the benchmark: compiles the cleaning system (src/main/scala)
together with the benchmark program (perfbench/src) into .bench_build/classes.

Uses the Scala compiler that ships in the Spark distribution ($SPARK_HOME/jars,
or the one next to `spark-submit` on PATH) and the DuckDB JDBC jar from the
local coursier or ivy cache, so it needs neither sbt nor a network. The build
is skipped when the sources hash to the stamp of the previous build.

    python3 perfbench/build.py      # prints the classpath on its last line
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "classes.sha256")
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"),
               os.path.join(ROOT, "perfbench", "src")]
DUCKDB_JAR = "duckdb_jdbc-1.0.0.jar"


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not glob.glob(os.path.join(jars, "spark-core_*.jar")):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return jars


def duckdb_jar():
    if os.environ.get("DUCKDB_JAR"):
        return os.environ["DUCKDB_JAR"]
    caches = [os.environ.get("COURSIER_CACHE", ""),
              os.path.expanduser("~/.cache/coursier"),
              os.path.expanduser("~/.ivy2")]
    for cache in filter(None, caches):
        found = sorted(glob.glob(os.path.join(cache, "**", DUCKDB_JAR), recursive=True))
        if found:
            return found[0]
    raise BuildError(f"{DUCKDB_JAR} not found in the coursier/ivy cache: set DUCKDB_JAR")


def sources():
    files = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise BuildError(f"missing source directory {os.path.relpath(d, ROOT)}")
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names if n.endswith(".scala")]
    if not files:
        raise BuildError("no Scala sources")
    return sorted(files)


def source_hash(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; returns (classpath, source hash)."""
    jars = spark_jars()
    duck = duckdb_jar()
    files = sources()
    digest = source_hash(files)
    classpath = os.pathsep.join([CLASSES, os.path.join(jars, "*"), duck])
    if os.path.exists(STAMP) and open(STAMP).read().strip() == digest:
        return classpath, digest
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.makedirs(CLASSES)
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-nowarn", "-d", CLASSES, "-classpath", os.pathsep.join([os.path.join(jars, "*"), duck]),
           ] + files
    proc = subprocess.run(cmd, cwd=ROOT)
    if proc.returncode != 0:
        raise BuildError(f"scalac exited with {proc.returncode}")
    with open(STAMP, "w") as fh:
        fh.write(digest + "\n")
    return classpath, digest


if __name__ == "__main__":
    try:
        cp, _ = build()
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(1)
    print(cp)
