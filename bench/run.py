"""Run one benchmark workload and print its metrics as the last line.

    python3 bench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  Each workload runs in a fresh worker process: one caller, a
closed loop, numpy/BLAS limited to ``BLAS_THREADS`` threads.  With
``--trace 0`` the last line holds the end-to-end metrics; ``setup_s`` is the
median over ``SETUP_SAMPLES`` processes of the CPU time each spends from its
start to its first operation, scaled to the reference machine's speed
(speed.py).  With ``--trace 1`` it holds the per-layer metrics from a traced
run, whose spans go to ``.bench_out/``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "query", "scale", "cli")
#: One BLAS thread keeps all the work on the timed thread, whose CPU time the
#: figures count, and each run on one core.
BLAS_THREADS = 1
SETUP_SAMPLES = 9
#: Per worker process; a whole run stays well inside three minutes.
TIMEOUT_S = 150


def run_worker(args: argparse.Namespace, *extra: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "tensorlogic" / "__init__.py").is_file():
        print(f"error: no tensorlogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        result = run_worker(args)
    else:
        setups = [run_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
