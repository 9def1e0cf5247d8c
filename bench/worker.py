"""One benchmark process: import the program, set up, run whole passes, report.

Started by ``run.py``; prints one JSON object as its last line of output.

A pass runs the workload's fixed list of operations once.  The run repeats
passes until its time is up and keeps each operation's fastest pass: its
cost at the fastest the host ran during the run.  ``speed.Speed`` samples a
fixed loop of the benchmark's own between operations, and every time is
scaled by its fastest sample to the reference machine's speed (speed.py).

Every time is CPU time: operations and spans on this thread's clock, set-up
as this process's CPU time from its start.  The loop is single-threaded with
one BLAS thread, so on an idle core these equal wall time; on a shared
machine they leave out the time the thread waited while others ran, which
otherwise swings the figures far more than any change to the program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import speed
from tracing import Tracer, Untraced

ROOT = Path(__file__).resolve().parent.parent

#: per-layer metric -> the span name whose self time it averages per operation
LAYER_SPANS = {
    "model.build_us": "model.build",
    "dsl.parse_model_us": "dsl.parse_model",
    "dsl.parse_formula_us": "dsl.parse_formula",
    "truth.build_predicate_us": "truth.build_predicate",
    "truth.build_relation_us": "truth.build_relation",
    "sets.build_set_predicate_us": "sets.build_set_predicate",
    "evaluator.compile_us": "evaluator.compile",
    "evaluator.execute_us": "evaluator.execute",
    "evaluator.oracle_us": "evaluator.oracle",
    "tensor.contract_small_us": "tensor.contract_small",
    "tensor.contract_rel3_us": "tensor.contract_rel3",
    "cli.main_us": "cli.main",
}
COUNTS = ("evaluator.plan_steps", "evaluator.load_elements", "evaluator.peak_register_elements")
#: the parts of ``cli.main`` the replay times on their own
CLI_PARTS = ("dsl.parse_model", "dsl.parse_formula", "evaluator.compile", "evaluator.execute")
#: loop samples a set-up process takes, right after its set-up, to scale it
SETUP_SPEED_SAMPLES = 10


def percentile(ordered: list, q: float) -> float:
    """Linear interpolation between the closest ranks of a sorted list."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(w, ops: list, seconds: float, tracer, replayed: int = 0) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` have passed and keep
    each operation's fastest time; sample the host's speed in between.

    With a tracer, the first ``replayed`` operations are replayed after each
    pass's call to time the layers they hide."""
    from workloads import check, replay

    best: list[int | None] = [None] * len(ops)
    host = speed.Speed()
    attempted = failed = wrong = passes = timed_ns = timed = 0
    clock = time.thread_time_ns
    started = time.monotonic()
    deadline = started + seconds
    while passes == 0 or time.monotonic() < deadline:
        for i, op in enumerate(ops):
            host.sample_if_due()
            op_id = attempted
            attempted += 1
            try:
                if tracer is None:
                    start = clock()
                    w.call(op, Untraced)
                    elapsed = clock() - start
                else:
                    with tracer.root("op", op_id) as span:
                        w.call(op, tracer)
                    elapsed = span.elapsed
            except Exception as exc:  # an escaping exception fails the operation
                failed += 1
                if passes == 0:
                    print(f"failed: {w.name} op {i}: {type(exc).__name__}", file=sys.stderr)
                op.result = {}
                continue
            verdict = check(op)
            if verdict == "failed":
                failed += 1
            elif verdict == "wrong":
                wrong += 1
                if wrong <= 5:
                    print(f"wrong answer: {w.name} op {i}: {op.term!r}", file=sys.stderr)
            else:
                timed_ns += elapsed
                timed += 1
                if best[i] is None or elapsed < best[i]:
                    best[i] = elapsed
            if verdict == "ok" and i < replayed and op.kind == "eval":
                with tracer.root("replay", op_id):
                    replay(w, op, tracer)
            op.result = {}  # drop plans and models before the next operation
        passes += 1
    fastest = sorted(t for t in best if t is not None)
    factor = host.factor()
    latencies = [t * factor for t in fastest]
    beyond = len(latencies) * (1 - w.tail)
    if beyond < 10:
        print(f"warning: only {beyond:.1f} samples beyond p{100 * w.tail:g}", file=sys.stderr)
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "passes": passes,
        "operations": len(ops),
        "latencies": latencies,
        "factor": factor,
        "speed_samples": host.samples,
        "raw_ops_per_s": len(fastest) / (sum(fastest) / 1e9),
        "mean_ops_per_s": timed / (timed_ns / 1e9),
        "cpu_share": timed_ns / 1e9 / (time.monotonic() - started),
        "wall_s": time.monotonic() - started,
    }


def layer_metrics(tracer, operations: int, factor: float) -> dict:
    """Per-layer figures per operation, from the recorded spans.

    As for the end-to-end figures, each operation's self time in a layer is
    the least over its replayed passes, scaled to the reference machine; the
    mean is over the operations."""
    replayed = {span[2] for span in tracer.spans if span[3] == "replay"}
    self_ns = tracer.self_times()
    names = set(LAYER_SPANS.values()) | set(CLI_PARTS)
    best: dict[tuple[int, str], int] = {}
    for op in replayed:
        for name in names:
            key = op % operations, name
            value = self_ns.get((op, name), 0) * factor
            if key not in best or value < best[key]:
                best[key] = value
    per_op = len({op % operations for op in replayed}) or 1

    def mean_us(name):
        return sum(v for (_, n), v in best.items() if n == name) / per_op / 1e3

    metrics = {metric: {"value": mean_us(span), "unit": "us"} for metric, span in LAYER_SPANS.items()}
    overhead = mean_us("cli.main") - sum(mean_us(part) for part in CLI_PARTS)
    metrics["cli.overhead_us"] = {"value": overhead, "unit": "us"}
    totals = dict.fromkeys(COUNTS, 0)
    for op, name, value in tracer.counts:
        if op in replayed:
            totals[name] += value
    for name in COUNTS:
        metrics[name] = {"value": totals[name] / (len(replayed) or 1), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import tensorlogic
    import workloads
    imported_ns = time.process_time_ns()
    if not Path(tensorlogic.__file__).resolve().is_relative_to(src):
        print(f"error: imported tensorlogic from {tensorlogic.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, workdir)
        w.prepare()
        start = time.process_time_ns()
        w.setup()
        setup_ns = imported_ns + time.process_time_ns() - start
        host = speed.Speed()
        for _ in range(SETUP_SPEED_SAMPLES):
            host.sample()
        setup_s = setup_ns / 1e9 * host.factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        ops = w.operations()
        # Full collections then skip the start-up objects (numpy, the program)
        # and the operation list instead of rescanning them: a rescan costs
        # ~10 ms here and would land on whichever operation triggered it.
        gc.collect()
        gc.freeze()
        tracer = Tracer() if args.trace else None
        # The replay re-parses whole models, up to 0.8 s an operation on
        # scale, so it covers the first round only: every round of a
        # workload has the same make-up.
        run = measure(w, ops, args.seconds, tracer, replayed=len(w.round(0)) if tracer else 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = run["latencies"]
    ops_per_s = len(lat) / (sum(lat) / 1e9)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "passes": run["passes"],
        "operations": run["operations"],
        "samples": len(lat), "tail_percentile": 100 * w.tail, "ops_per_s": ops_per_s,
        "raw_ops_per_s": run["raw_ops_per_s"], "speed_factor": run["factor"],
        "speed_samples": run["speed_samples"],
        "mean_ops_per_s": run["mean_ops_per_s"], "cpu_share": run["cpu_share"],
        "wall_s": run["wall_s"], "peak_rss_mb": peak_rss_mb,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
    }
    print("info: " + json.dumps(info), file=sys.stderr)
    if tracer is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{w.name}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, run["operations"], run["factor"])
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "latency_p50_us": {"value": percentile(lat, 0.5) / 1e3, "unit": "us"},
            "latency_tail_us": {"value": percentile(lat, w.tail) / 1e3, "unit": "us"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": run["wrong"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
