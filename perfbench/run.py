#!/usr/bin/env python3
"""Benchmark command. Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the program and the benchmark from source (perfbench/build.py), runs
one benchmark JVM and prints its result object as the last line of standard
output. The full record of the run (settings, passes, spans) is written to
.bench_build/perfbench/results/. Everything the run reads or writes stays
under the working directory, apart from the JDK and the Spark distribution.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

DRIVER_HEAP = "3g"
# The benchmark must end within 180 s of its start; the JVM gets what the
# build left of that budget, less a margin for shutdown.
RUN_BUDGET_S = 170
ADD_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def jvm(root, classes, main, args, timeout_s):
    """Run one benchmark JVM in its own process group; returns (code, stdout)."""
    work = os.path.join(root, build.BUILD_DIR)
    tmp = os.path.join(work, "tmp")
    local = os.path.join(work, "spark-local")
    for d in (tmp, local):
        os.makedirs(d, exist_ok=True)
    cmd = (["java", f"-Xmx{DRIVER_HEAP}", "-Xss16m"] + ADD_OPENS + [
        f"-Djava.io.tmpdir={tmp}",
        f"-Dlog4j2.configurationFile={os.path.join(root, build.BENCH_DIR, 'log4j2.properties')}",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dspark.local.dir={local}",
        f"-Dspark.sql.warehouse.dir={os.path.join(work, 'warehouse')}",
        "-cp", os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")]),
        main] + args)
    env = dict(os.environ, SPARK_LOCAL_DIRS=local, SPARK_LOCAL_IP="127.0.0.1")
    p = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout_s)
        return p.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print(f"perfbench: benchmark JVM killed after {timeout_s:.0f} s", file=sys.stderr)
        return 1, ""
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def main():
    # A terminated benchmark still stops its JVM (see `jvm`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="tpch-nested or tpch-skew")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sf", type=float, help="override the workload's scale factor (probing only)")
    ap.add_argument("--selftest", action="store_true", help="test the benchmark's timer")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    start = time.monotonic()
    root = os.getcwd()
    classes, tag = build.build(root)
    remaining = RUN_BUDGET_S - (time.monotonic() - start)
    if a.selftest:
        code, out = jvm(root, classes, "repro.perfbench.SelfTest", [], max(remaining, 120))
        sys.stdout.write(out)
        return code

    results = os.path.join(root, build.BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    # The first run in a checkout also compiles; it may take longer.
    code, out = jvm(root, classes, "repro.perfbench.Main", [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace), "--out", record, "--git-sha", git_sha(root),
        "--source-digest", tag] + (["--sf", str(a.sf)] if a.sf else []), max(remaining, 120))
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        print(f"perfbench: benchmark JVM failed (exit {code})", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"perfbench: malformed result {lines[-1][:200]}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"perfbench: record written to {os.path.relpath(record, root)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
