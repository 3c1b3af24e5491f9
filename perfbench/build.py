#!/usr/bin/env python3
"""Build file of the benchmark: compiles the repository's main Scala sources
together with the benchmark's own sources, using the Scala compiler that
ships in the Spark distribution ($SPARK_HOME/jars). No sbt, no network.

Run from the repository root:  python3 perfbench/build.py
Classes go to .bench_build/perfbench/classes-<digest>, where <digest> hashes
every compiled source, so an unchanged tree is not rebuilt.
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = "perfbench"
PROGRAM_SOURCES = os.path.join("src", "main", "scala")
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise SystemExit("perfbench: SPARK_HOME must point at a Spark distribution")
    return os.path.join(home, "jars")


def sources(root):
    """Every Scala source to compile."""
    out = []
    for base in (os.path.join(root, PROGRAM_SOURCES), os.path.join(root, BENCH_DIR, "src")):
        if not os.path.isdir(base):
            raise SystemExit(f"perfbench: missing source directory {os.path.relpath(base, root)}")
        for d, _, files in os.walk(base):
            for f in files:
                if f.endswith(".scala"):
                    out.append(os.path.join(d, f))
    return sorted(out)


def digest(root, paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.relpath(p, root).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(root="."):
    """Compile if needed; returns (classes directory, source digest)."""
    srcs = sources(root)
    tag = digest(root, srcs)
    out = os.path.join(root, BUILD_DIR, f"classes-{tag}")
    if os.path.isfile(os.path.join(out, ".complete")):
        return out, tag
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    argfile = os.path.join(root, BUILD_DIR, "sources.txt")
    with open(argfile, "w") as f:
        f.write("\n".join(srcs))
    cmd = ["java", "-Xss16m", "-Xmx2g", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp, "@" + argfile]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit(f"perfbench: compilation failed ({r.returncode})")
    open(os.path.join(tmp, ".complete"), "w").close()
    for old in os.listdir(os.path.join(root, BUILD_DIR)):
        if old.startswith("classes-") and old != os.path.basename(tmp):
            shutil.rmtree(os.path.join(root, BUILD_DIR, old), ignore_errors=True)
    os.rename(tmp, out)
    return out, tag


if __name__ == "__main__":
    print(build()[0])
