"""Run the benchmark once per seed and report how far each metric spreads.

    python3 bench/spread.py --workloads sweep query --seeds 1-10 --seconds 10 [--trace 1]

For each workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(Q3 - Q1) / median``, with the bound from BENCHMARK.json beside it.  Runs go
one after another, never in parallel; raw results and each worker's
``info:`` line are appended to ``.bench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    seconds = args.seconds or config["run_seconds"]
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)

    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            info = [json.loads(line[6:]) for line in proc.stderr.splitlines()
                    if line.startswith("info: ")]
            runs.append(result)
            with open(out / "spread.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "trace": args.trace,
                                     "seconds": seconds, "result": result, "info": info}) + "\n")
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={correct}, failed shares={shares}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}{'  WIDE' if spread > bound / 3 else ''}"
            print(f"  {name:36s} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}"
                  f"  spread {spread:.4f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
