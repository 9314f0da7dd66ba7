#!/usr/bin/env python3
"""Build the e2ebench driver against libdvafs and run one workload.

    python3 e2ebench/run.py --workload serve-lenet --seed 1 --seconds 10 \
        --trace 0

The driver is configured from e2ebench/CMakeLists.txt (which pulls in the
repository's own library build) into $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench under the repository root, and rebuilt incrementally
on every call. Every driver process gets a fresh private DVAFS_CACHE_DIR
inside the build directory, removed afterwards. Build output goes to stderr;
the driver's stdout -- ending in the one-line JSON result -- is passed
through.

An untraced run first starts SETUP_PROCESSES[workload] - 1 driver processes
that only set up (each cold: its own process, its own empty cache) and
passes their set-up times to the measuring process, which reports setup_s as
the median of those and its own.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Cold set-ups per untraced run: more where one set-up is short, so that
# their median is steady, fewer where it takes seconds.
SETUP_PROCESSES = {"serve-lenet": 9, "serve-vgg": 5, "admit-cold": 5,
                   "admit-warm": 3, "characterize": 9}
RUN_BUDGET_S = 170  # all driver processes of one run, after the build


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "e2e_driver",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "e2e_driver")


def run_driver(bdir, cmd, deadline):
    """Runs one driver process on a fresh private cache; returns its stdout."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=bdir)
    env = dict(os.environ, DVAFS_CACHE_DIR=cache)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: driver processes exceeded %d s" % RUN_BUDGET_S)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("e2ebench: driver exited with %d" % proc.returncode)
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUP_PROCESSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        driver = build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("e2ebench: build failed: %s" % e)

    deadline = time.monotonic() + RUN_BUDGET_S
    base = [driver, "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES[args.workload] - 1):
            out = run_driver(bdir, base + ["--setup-only", "1"], deadline)
            setups.append(out.strip().splitlines()[-1].split()[1])
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setups:
        cmd += ["--setup-samples-ms", ",".join(setups)]
    sys.stdout.write(run_driver(bdir, cmd, deadline))


if __name__ == "__main__":
    main()
