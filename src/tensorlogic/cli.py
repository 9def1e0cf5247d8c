"""Command-line front end.

Four commands: ``eval`` runs one formula against a model file, ``truth-table``
prints a connective tensor with its crisp table, ``show`` prints the tensors
a model assigns to a named symbol, and ``sweep`` runs the tensor-versus-oracle
equivalence sweep.

Exit codes are a stable contract: 0 means true (or, for sweep, zero
disagreements), 1 means false (or disagreements found), 2 means any error
(for sweep: no disagreement, but some instance exceeded the element cap).
Pretty output uses the Unicode truth glyphs; records output emits one
self-describing JSON object per line with ASCII ``T``/``F`` so golden files
stay portable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ElementCapError, TensorLogicError
from .evaluator import SweepConfig, compile_formula, equivalence_sweep, execute, oracle_eval
from .dsl import MAX_DEPTH, And, Atom, Implies, Not, Or, parse_formula, parse_model
from .generate import MAX_ARITY, check_relation_size
from .model import Model, truth_bot, truth_top
from .sets import build_set_predicate, convert_set_to_truth, convert_truth_to_set
from .tensor import DEFAULT_ELEMENT_CAP
from .truth import (
    Connective,
    build_predicate,
    build_relation,
    connective_binary,
    connective_not,
    connective_tensor,
)

_GLYPHS = {True: "⊤", False: "⊥"}


def _format_number(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.12g}"


def _format_rows(matrix: np.ndarray) -> list[str]:
    return [
        "[" + " ".join(_format_number(x) for x in row) + "]" for row in np.atleast_2d(matrix)
    ]


def _format_blocks(tensor: np.ndarray) -> list[str]:
    # Rank-3 connective tensor: print the two blocks side by side; the block
    # on the left is selected by a true first argument.
    lines = []
    for i in range(2):
        left = " ".join(_format_number(x) for x in tensor[i, :, 0])
        right = " ".join(_format_number(x) for x in tensor[i, :, 1])
        lines.append(f"[{left} | {right}]")
    return lines


def _read_model(path: str) -> Model:
    return parse_model(Path(path).read_text(encoding="utf-8-sig"))


def _cmd_eval(args: argparse.Namespace) -> int:
    m = _read_model(args.model)
    if args.formula is not None:
        text = args.formula
    else:
        text = Path(args.formula_file).read_text(encoding="utf-8-sig")
    formula = parse_formula(text, m)
    result = execute(compile_formula(formula, m, cap=args.cap))
    truth = result.as_bool()
    if args.output == "records":
        print(
            json.dumps(
                {
                    "command": "eval",
                    "formula": text.strip(),
                    "result": "T" if truth else "F",
                    "true_weight": result.t,
                    "false_weight": result.f,
                },
                sort_keys=True,
            )
        )
    else:
        print(_GLYPHS[truth])
    return 0 if truth else 1


def _cmd_truth_table(args: argparse.Namespace) -> int:
    name = args.connective
    conn = connective_tensor(name)
    records = args.output == "records"
    vec = {True: truth_top(), False: truth_bot()}
    rows: list[tuple[tuple[bool, ...], bool]] = []
    if conn.kind is Connective.NOT:
        for a in (True, False):
            rows.append(((a,), connective_not(vec[a]).as_bool()))
    else:
        for a in (True, False):
            for b in (True, False):
                rows.append(((a, b), connective_binary(name, vec[a], vec[b]).as_bool()))

    if args.check:
        # One atom, where t holds and f does not: the oracle gives each row's
        # classical value.
        model = Model.from_names(["x"], {"t": ["x"], "f": []})
        node = {"not": Not, "and": And, "or": Or, "implies": Implies}[name]
        for inputs, output in rows:
            leaves = (Atom("t" if x else "f", "x") for x in inputs)
            if oracle_eval(node(*leaves), model) != output:
                print(f"self-check failed at inputs {inputs}", file=sys.stderr)
                return 2

    if records:
        tensor_record = {
            "command": "truth-table",
            "connective": name,
            "tensor": conn.tensor.tolist(),
        }
        print(json.dumps(tensor_record, sort_keys=True))
        for inputs, output in rows:
            print(
                json.dumps(
                    {
                        "command": "truth-table",
                        "connective": name,
                        "inputs": ["T" if x else "F" for x in inputs],
                        "output": "T" if output else "F",
                    },
                    sort_keys=True,
                )
            )
        return 0

    if conn.kind is Connective.NOT:
        print(f"{name}: swap matrix")
        print("\n".join(_format_rows(conn.tensor.array)))
    else:
        print(f"{name}: block matrix [first argument true | first argument false]")
        print("\n".join(_format_blocks(conn.tensor.array)))
    print()
    for inputs, output in rows:
        shown = " ".join(_GLYPHS[x] for x in inputs)
        print(f"{shown} -> {_GLYPHS[output]}")
    if args.check:
        print("self-check: ok")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    m = _read_model(args.model)
    name = args.name
    if name in m.predicates:
        n = m.domain_size
        ElementCapError.check(name, max(2 * n, n * n), args.cap)
        truth_form = build_predicate(m, name)
        set_form = build_set_predicate(m, name)
        round_trip_ok = (
            convert_truth_to_set(truth_form) == set_form
            and convert_set_to_truth(set_form) == truth_form
        )
        if args.output == "records":
            print(
                json.dumps(
                    {
                        "command": "show",
                        "kind": "predicate",
                        "name": name,
                        "truth_matrix": truth_form.tensor.tolist(),
                        "set_matrix": set_form.tensor.tolist(),
                        "conversion_round_trip": round_trip_ok,
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"predicate {name} over domain ({', '.join(m.atom_names)})")
            print("truth formulation (2 x n):")
            print("\n".join(_format_rows(truth_form.tensor.array)))
            print("set formulation (diagonal n x n):")
            print("\n".join(_format_rows(set_form.tensor.array)))
            print(f"conversion round-trip: {'ok' if round_trip_ok else 'MISMATCH'}")
        return 0 if round_trip_ok else 2
    if name in m.relations:
        built = build_relation(m, name, cap=args.cap)
        arr = built.tensor.array
        arity = m.relations[name].arity
        if args.output == "records":
            print(
                json.dumps(
                    {
                        "command": "show",
                        "kind": "relation",
                        "name": name,
                        "arity": arity,
                        "tensor": built.tensor.tolist(),
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"relation {name}/{arity} over domain ({', '.join(m.atom_names)})")
            print("true slice (rightmost index is the first argument):")
            print(np.array2string(arr[0].astype(int)))
            print("false slice:")
            print(np.array2string(arr[1].astype(int)))
        return 0
    print(f"error: {name!r} is not declared in the model", file=sys.stderr)
    return 2


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        max_domain=args.max_domain, max_depth=args.max_depth, seed=args.seed, count=args.count
    )
    report = equivalence_sweep(config, artifact_dir=args.artifacts)
    lines = report.to_lines()
    if args.report:
        Path(args.report).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.output == "records":
        for line in lines:
            print(line)
    print(report.summary())
    if report.disagreements:
        return 1
    if report.errors:
        failed = f"{len(report.errors)} of {len(report.verdicts)} instances"
        print(f"error: the tensor path failed on {failed}", file=sys.stderr)
        return 2
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def element_cap(text: str) -> int:
    """A ``--cap`` at or below ``DEFAULT_ELEMENT_CAP``: the flag only ever
    lowers the element cap, so a larger one is a usage error, not a build
    that stops at the default cap partway."""
    value = positive_int(text)
    if value > DEFAULT_ELEMENT_CAP:
        raise argparse.ArgumentTypeError(f"must be <= {DEFAULT_ELEMENT_CAP}, got {value}")
    return value


def sweep_domain(text: str) -> int:
    """A ``--max-domain`` at which every generated model fits the element cap.

    The largest relation a sweep generates has arity ``MAX_ARITY`` over
    ``--max-domain`` atoms; refusing the flag up front makes it a usage
    error, not a sweep that stops at the first model too large to draw.
    """
    value = positive_int(text)
    try:
        check_relation_size(MAX_ARITY, value)
    except ElementCapError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return value


def sweep_depth(text: str) -> int:
    """A ``--max-depth`` whose formulas, at most ``depth - 1`` deep, print
    at most twice that deep: within ``MAX_DEPTH``, so every dump re-parses."""
    value = positive_int(text)
    if value > MAX_DEPTH // 2:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DEPTH // 2}, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="tensorlogic",
        description="Evaluate predicate-calculus formulas over finite models by tensor contraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eval_parser = sub.add_parser(
        "eval", help="evaluate one formula against a model file", allow_abbrev=False
    )
    eval_parser.add_argument("--model", required=True, help="path to a model file")
    source = eval_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--formula", help="formula text")
    source.add_argument("--formula-file", help="path to a formula file")
    eval_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    eval_parser.add_argument("--cap", type=element_cap, default=DEFAULT_ELEMENT_CAP)
    eval_parser.set_defaults(handler=_cmd_eval)

    table_parser = sub.add_parser("truth-table", help="print a connective tensor and its table")
    table_parser.add_argument("connective", choices=["not", "and", "or", "implies"])
    table_parser.add_argument("--check", action="store_true",
                              help="re-verify rows against the set-theoretic oracle")
    table_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    table_parser.set_defaults(handler=_cmd_truth_table)

    show_parser = sub.add_parser("show", help="print the tensors for a declared symbol")
    show_parser.add_argument("--model", required=True)
    show_parser.add_argument("name")
    show_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    show_parser.add_argument("--cap", type=element_cap, default=DEFAULT_ELEMENT_CAP)
    show_parser.set_defaults(handler=_cmd_show)

    sweep_parser = sub.add_parser("sweep", help="run the tensor-versus-oracle equivalence sweep")
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--max-domain", type=sweep_domain, default=3)
    sweep_parser.add_argument("--max-depth", type=sweep_depth, default=3)
    sweep_parser.add_argument("--count", type=positive_int, default=1000)
    sweep_parser.add_argument("--report", help="write one JSON record per instance to this file")
    sweep_parser.add_argument("--artifacts", help="directory for disagreement dumps")
    sweep_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TensorLogicError, OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
