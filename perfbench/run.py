#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Workloads: skia-sbb-sweep, btb-capacity-emit, sampled-long-cold (see
perfbench/README.md). The script builds perfbench/ in release mode (into
$CARGO_TARGET_DIR, default .bench_build), prepares the benchmark's own cache
directory under .perfbench/, and runs the measuring program, whose last
stdout line is the JSON result. It exits non-zero when the build fails, when
any SKIA_* variable is set, or when a job's output is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("skia-sbb-sweep", "btb-capacity-emit", "sampled-long-cold")
COLD = ("sampled-long-cold",)
DEFAULT_SEED = 1
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the measuring program; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True,
                   timeout=BUILD_LIMIT_S)
    return os.path.join(target, "release", "skia-perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    knobs = sorted(k for k in os.environ if k.startswith("SKIA_"))
    if knobs:
        log(f"refusing to run with {', '.join(knobs)} set: it changes what runs")
        return 2
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        log(f"no crates/ in {ROOT}: run from a full checkout of the repository")
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2
    started = time.monotonic()

    # The sweeps read a pre-warmed cache; the cold workload starts empty.
    cold = args.workload in COLD
    cache = os.path.join(WORK, "cache-cold" if cold else "cache-warm")
    if cold:
        shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache, exist_ok=True)
    env = dict(os.environ, SKIA_CACHE=cache)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if not cold:
            subprocess.run([binary, "prewarm", *common], cwd=ROOT, env=env,
                           check=True, timeout=RUN_LIMIT_S)
        left = RUN_LIMIT_S - (time.monotonic() - started)
        proc = subprocess.run(
            [binary, "run", *common, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", os.path.join(WORK, "out")],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=left)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("the measuring program printed no result")
        return 2
    if proc.returncode != 0 or not result.get("correct"):
        log(f"incorrect result (exit {proc.returncode})")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
