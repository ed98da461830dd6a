"""Benchmark entry point.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner checks that the checkout holds
the library's source and the shipped configs, then runs the workload in a
fresh child process (worker.py) with BLAS and OpenMP pinned to one thread,
so that the child's peak memory belongs to that workload alone.  The
child's last line of standard output is the JSON result; the runner's exit
code is the child's.  The runner changes no setting of the library.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pde_2d_ball", "pde_1d_shipped", "mc_penalized", "mc_singular")
REQUIRED = ("src/gradcap/__init__.py", "configs/example_2d_ball.json",
            "configs/example_1d_unconstrained.json",
            "configs/example_1d_tight.json", "configs/example_1d_jumps.json",
            "configs/example_1d_control.json")
TIMEOUT_S = 170
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"bench: {ROOT} is not a gradcap checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # run() kills the child and waits for it if the timeout expires
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} exceeded {TIMEOUT_S} s",
              file=sys.stderr)
        return 124
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
