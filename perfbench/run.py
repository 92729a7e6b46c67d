#!/usr/bin/env python3
"""Run one benchmark workload against the program built from this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the program and the workload runner from source (release profile,
build directory .bench_build), runs the workload in its own process and
prints its result as the last line of standard output: one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/README.md).  Exits nonzero, without a result line, when the
repository is not there or the build fails, and exits 1 when an output
check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("analyze_cold", "template_sweep", "mapper_validate", "serve_fleet")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
# The program's sources the benchmark builds; without them there is
# nothing to measure.
NEEDED = ("dune-project", "lib/serve/api.ml", "lib/model/concrete.ml", "bin/tenet_cli.ml")
TOTAL_BUDGET_S = 170.0


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(deadline):
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune not found on PATH")
    env = dict(os.environ)
    # keep every build artefact inside the checkout
    env["DUNE_CACHE"] = "disabled"
    cmd = dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet",
           "./perfbench/tenet_bench.exe", "./bin/tenet_cli.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")
    missing = [f for f in NEEDED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing))

    t0 = time.time()
    # the first run in a fresh checkout builds everything; later runs
    # find the build up to date
    build(t0 + 850.0)
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "tenet_bench.exe")
    tenet = os.path.join(BUILD_DIR, "default", "bin", "tenet_cli.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--tenet", tenet, "--out-dir", OUT_DIR]
    # a run that had to build (the first in a checkout) may take longer
    limit = TOTAL_BUDGET_S if time.time() - t0 < 5 else 890.0
    # the workload and any server it starts share one process group, so
    # a run cut short leaves nothing behind
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, t0 + limit - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s did not finish in time" % a.workload)
    r = subprocess.CompletedProcess(cmd, proc.returncode, out)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("workload %s printed no result (exit %d)" % (a.workload, r.returncode))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
