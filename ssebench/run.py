#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 ssebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library (../src) and the driver in
this directory are compiled into .bench_build/ssebench on first use; vault
directories and trace files go to .bench_build/ssebench/work. The last line
of standard output is the result object. The commit id recorded in the run
metadata comes from the SSEBENCH_COMMIT environment variable when set.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ssebench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "ssebench")
WORKLOADS = ("s2_zipf_tcp", "s2_ingest", "s3_hot_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; build output goes to stderr. A build
    directory left by another checkout location is wiped and redone once."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found at %s/src" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if build_once():
        return True
    log("retrying from a clean build directory")
    shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return build_once()


def build_once():
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0 and os.path.isfile(BINARY)


def run_binary(args, extra=()):
    """Runs the driver; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR,
           "--commit", os.environ.get("SSEBENCH_COMMIT", "unknown")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 3, []
    return proc.returncode, out.splitlines()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if args.seconds < 1 or args.seconds > 60:
        log("--seconds must be 1..60")
        return 2
    started = time.time()
    if not build():
        log("build failed")
        return 2
    log("build ready in %.1f s" % (time.time() - started))
    code, lines = run_binary(args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
