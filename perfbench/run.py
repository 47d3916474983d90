#!/usr/bin/env python3
"""Run one AGL pipeline benchmark workload and print its result.

    python3 perfbench/run.py --workload uug-gat --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run builds the harness and the
program with sbt (perfbench/build.sbt depends on the root project); later
runs reuse the build while the sources are unchanged. The JVM runs Spark as
local[nproc] with a fixed heap: BENCH_MEM if set (e.g. "6g"), otherwise a
quarter of MemTotal, between 2 and 8 GB. The last stdout line is the result
object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TARGET = os.path.join(HERE, "target")
CLASSPATH_FILE = os.path.join(TARGET, "bench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "bench-sources.sha256")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 175

# Spark on Java 17+ needs these packages opened (as spark-submit does).
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Everything the build reads: the program, the harness and both builds."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(HERE, "src")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project", "build.properties"),
             os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(digest):
    if os.path.exists(STAMP_FILE) and os.path.exists(CLASSPATH_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == digest:
                return
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines or "scala-2.13" not in lines[-1]:
        sys.stderr.write(p.stdout)
        fail("build failed")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(lines[-1].strip())
    with open(STAMP_FILE, "w") as fh:
        fh.write(digest)


def heap():
    if os.environ.get("BENCH_MEM"):
        return os.environ["BENCH_MEM"]
    with open("/proc/meminfo") as fh:
        kb = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
    return f"{max(2, min(8, kb // (4 << 20)))}g"


def commit(digest):
    """The git commit of the checkout, or a hash of its sources outside git."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "--short", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        top, head = (p.stdout.split() + ["", ""])[:2]
        if p.returncode == 0 and os.path.realpath(top) == os.path.realpath(ROOT):
            return head
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + digest[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["uug-gat", "ppi-sage"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))
            and os.path.isfile(os.path.join(ROOT, "build.sbt"))):
        fail("run from a checkout of the repository: the program's sources are missing")
    if shutil.which("sbt") is None or shutil.which("java") is None:
        fail("sbt and java must be on PATH")

    digest = source_digest()
    build(digest)
    with open(CLASSPATH_FILE) as fh:
        classpath = fh.read().strip()

    tmp = os.path.join(OUT, f"tmp-{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    mem = heap()
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp, SPARK_LOCAL_IP="127.0.0.1")
    cmd = ["java", f"-Xms{mem}", f"-Xmx{mem}", *JAVA_OPENS,
           # keep the JIT compiler threads for the whole run, so their CPU
           # time can be told apart from the program's (cpu_core_s)
           "-XX:-UseDynamicNumberOfCompilerThreads",
           f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
           "-cp", classpath, "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", OUT, "--commit", commit(digest)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    shutil.rmtree(tmp, ignore_errors=True)

    lines = [l for l in stdout.splitlines() if l.strip()]
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result from the benchmark (exit code {proc.returncode})")
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
              f"wrong unit {wrong}", file=sys.stderr)
        result["correct"] = False
    print(f"perfbench: {a.workload} seed {a.seed} took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
