#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the library and the benchmark program from the sources of the
checkout it lives in (CMake, Release) into .bench_build/perfbench at the
checkout root, runs the benchmark's arithmetic self-tests, then runs one
workload.  The program's last output line is the JSON result; the exit code
is non-zero when the build, a self-test or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("vmc-c2h4o-1r", "vmc-c2h4o-4r", "vmc-lih-train", "serve-c2h4o-open")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_selftest"])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


def run(cmd, capture):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), RUN_TIMEOUT_S))
    return proc


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--corrupt", action="store_true",
                    help="perturb one checked output; the run must then fail")
    ap.add_argument("--selftest", action="store_true",
                    help="only build and run the arithmetic self-tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    selftest = run([os.path.join(BUILD, "perfbench_selftest")], capture=True)
    if selftest.returncode != 0:
        sys.stdout.write(selftest.stdout)
        fail("self-tests failed")
    if args.selftest:
        sys.stdout.write(selftest.stdout)
        return 0

    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    if args.corrupt:
        cmd.append("--corrupt")
    proc = run(cmd, capture=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line (exit code %d)" % proc.returncode)
    if proc.returncode != 0 or not result.get("correct"):
        fail("correctness checks failed (exit code %d)" % proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
