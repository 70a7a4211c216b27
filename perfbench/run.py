#!/usr/bin/env python3
"""The IRLT request benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, irlt-serve, irlt-front
and the harness from the checkout's sources (into $CARGO_TARGET_DIR, else
.bench_build), then runs one workload in a fresh harness process. The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}, with the end-to-end metrics when --trace 0 and the
per-layer metrics when --trace 1. Sockets, compiled kernels and the trace
file go to .bench_run.

Workloads (each request generated from the seed; BENCHMARK.json says why
each exists):
  warm-script  a few dozen distinct (nest, script) requests, repeated
  cold-script  every request a new nest (its own canonical key)
  auto-search  auto requests (locality/par, beam 2, depth 1), in rounds
The serve and front layers (irlt-front with 2 shards) are measured in
warm-script's traced run.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds; returns False (after printing why) on failure."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench-harness", "irlt-serve", "irlt-front"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(cmd))
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["warm-script", "cold-script", "auto-search"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not build(build_dir):
        return 1

    run_dir = os.path.join(ROOT, RUN_DIR)
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)  # the C compiler's scratch files
    cmd = [os.path.join(build_dir, "perfbench-harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(build_dir, "irlt-serve"),
           "--front-bin", os.path.join(build_dir, "irlt-front"),
           "--run-dir", RUN_DIR]
    # Own process group, so a timeout also stops irlt-front and its workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: the run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
