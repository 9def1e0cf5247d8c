"""Command-line front end.

Four commands: ``eval`` runs one formula against a model file, ``truth-table``
prints a connective tensor with its crisp table, ``show`` prints the tensors
a model assigns to a named symbol, and ``sweep`` runs the tensor-versus-oracle
equivalence sweep.

Exit codes are a stable contract: 0 means true (or, for sweep, zero
disagreements), 1 means false (or disagreements found), 2 means any error
(for sweep: no disagreement, but some instance exceeded the element cap).

Each command returns its exit code and its whole output as a list of lines,
and prints nothing; ``main`` writes the lines to stdout in one write and
prints the one ``error:`` line on stderr. So every exit 2 comes with one
``error:`` line, a failed ``truth-table --check`` and a failed ``show``
round trip included, and a failing command writes nothing to stdout, except
``sweep``, whose records and summary come before its capped-instance error.
(A usage error is argparse's own: exit 2 with a usage message.)

Each command's own parser reads its arguments: ``main`` looks the first
argument up among the commands and hands it the rest. The top-level parser
handles only help, a missing or unknown command, an option before the
command, and its usage errors, such as arguments a command leaves over.
No command's parser takes an abbreviated flag, so ``--mod`` is a usage error.
Model and formula files are read as UTF-8 with an optional byte order mark,
and ``\\r\\n`` or ``\\r`` ends a line as ``\\n`` does.

Pretty output uses the Unicode truth glyphs, so a standard output that
cannot encode them is an error (exit 2) whose message points to records
output; records output emits one self-describing JSON object per line with
ASCII ``T``/``F`` so golden files stay portable.
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
from .dsl import BINARY, MAX_DEPTH, Atom, Not, parse_formula, parse_model
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
_LETTERS = {True: "T", False: "F"}

#: What a command hands ``main``: its exit code, its stdout lines, and the
#: message of an ``error:`` line to write after them (``None`` for none).
Outcome = tuple[int, list[str], str | None]


#: The one encoder of records lines: ``json.dumps`` builds a new encoder on
#: every call that asks to sort keys.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def _record(command: str, **fields: object) -> str:
    """One records line: a JSON object naming its command, keys sorted."""
    return _RECORD_ENCODER.encode({"command": command, **fields})


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


def _read_text(path: str) -> str:
    """A model or formula file: UTF-8 with an optional byte order mark, and
    ``\\r\\n`` or ``\\r`` ending a line as ``\\n`` does. An ``OSError`` quotes
    ``path`` as given."""
    with open(path, encoding="utf-8-sig") as f:
        return f.read()


def _read_model(path: str) -> Model:
    return parse_model(_read_text(path))


def _cmd_eval(args: argparse.Namespace) -> Outcome:
    m = _read_model(args.model)
    if args.formula is not None:
        text = args.formula
    else:
        text = _read_text(args.formula_file)
    formula = parse_formula(text, m)
    result = execute(compile_formula(formula, m, cap=args.cap))
    truth = result.as_bool()
    if args.output == "records":
        line = _record(
            "eval",
            formula=text.strip(),
            result=_LETTERS[truth],
            true_weight=result.t,
            false_weight=result.f,
        )
    else:
        line = _GLYPHS[truth]
    return 0 if truth else 1, [line], None


def _cmd_truth_table(args: argparse.Namespace) -> Outcome:
    name = args.connective
    conn = connective_tensor(name)
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
        # classical value of the node, a binary connective's row or Not.
        model = Model.from_names(["x"], {"t": ["x"], "f": []})
        node = {c.name: c for c in BINARY}.get(name, Not)
        for inputs, output in rows:
            leaves = (Atom("t" if x else "f", "x") for x in inputs)
            if oracle_eval(node(*leaves), model) != output:
                raise TensorLogicError(f"self-check failed at inputs {inputs}")

    if args.output == "records":
        record = functools.partial(_record, "truth-table", connective=name)
        lines = [record(tensor=conn.tensor.tolist())]
        for inputs, output in rows:
            lines.append(record(inputs=[_LETTERS[x] for x in inputs], output=_LETTERS[output]))
        return 0, lines, None

    if conn.kind is Connective.NOT:
        lines = [f"{name}: swap matrix", *_format_rows(conn.tensor.array)]
    else:
        lines = [f"{name}: block matrix [first argument true | first argument false]"]
        lines += _format_blocks(conn.tensor.array)
    lines.append("")
    for inputs, output in rows:
        shown = " ".join(_GLYPHS[x] for x in inputs)
        lines.append(f"{shown} -> {_GLYPHS[output]}")
    if args.check:
        lines.append("self-check: ok")
    return 0, lines, None


def _cmd_show(args: argparse.Namespace) -> Outcome:
    m = _read_model(args.model)
    name = args.name
    records = args.output == "records"
    domain = f"over domain ({', '.join(m.atom_names)})"
    if name in m.predicates:
        n = m.domain_size
        ElementCapError.check(name, max(2 * n, n * n), args.cap)
        truth_form = build_predicate(m, name)
        set_form = build_set_predicate(m, name)
        if not (
            convert_truth_to_set(truth_form) == set_form
            and convert_set_to_truth(set_form) == truth_form
        ):
            raise TensorLogicError(f"conversion round-trip failed for {name!r}")
        if records:
            line = _record(
                "show",
                kind="predicate",
                name=name,
                truth_matrix=truth_form.tensor.tolist(),
                set_matrix=set_form.tensor.tolist(),
                conversion_round_trip=True,
            )
            return 0, [line], None
        return 0, [
            f"predicate {name} {domain}",
            "truth formulation (2 x n):",
            *_format_rows(truth_form.tensor.array),
            "set formulation (diagonal n x n):",
            *_format_rows(set_form.tensor.array),
            "conversion round-trip: ok",
        ], None
    if name in m.relations:
        tensor = build_relation(m, name, cap=args.cap).tensor
        arity = m.relations[name].arity
        if records:
            line = _record("show", kind="relation", name=name, arity=arity, tensor=tensor.tolist())
            return 0, [line], None
        return 0, [
            f"relation {name}/{arity} {domain}",
            "true slice (rightmost index is the first argument):",
            np.array2string(tensor.array[0].astype(int)),
            "false slice:",
            np.array2string(tensor.array[1].astype(int)),
        ], None
    raise TensorLogicError(f"{name!r} is not declared in the model")


def _cmd_sweep(args: argparse.Namespace) -> Outcome:
    config = SweepConfig(
        max_domain=args.max_domain, max_depth=args.max_depth, seed=args.seed, count=args.count
    )
    report = equivalence_sweep(config, artifact_dir=args.artifacts)
    records = report.to_lines()
    if args.report:
        Path(args.report).write_text("\n".join(records) + "\n", encoding="utf-8")
    lines = records if args.output == "records" else []
    lines.append(report.summary())
    if report.disagreements:
        return 1, lines, None
    if report.errors:
        failed = f"{len(report.errors)} of {len(report.verdicts)} instances"
        return 2, lines, f"the tensor path failed on {failed}"
    return 0, lines, None


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
    Only ``sweep`` loads :mod:`tensorlogic.generate`, so the other commands
    start without it.
    """
    from .generate import MAX_ARITY, check_relation_size

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
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by command name, the parser it registers
    for each command: built on the first call, shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="tensorlogic",
        description="Evaluate predicate-calculus formulas over finite models by tensor contraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No command reads an abbreviated flag (see the module docstring).
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    eval_parser = add_parser("eval", help="evaluate one formula against a model file")
    eval_parser.add_argument("--model", required=True, help="path to a model file")
    source = eval_parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--formula", help="formula text")
    source.add_argument("--formula-file", help="path to a formula file")
    eval_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    eval_parser.add_argument("--cap", type=element_cap, default=DEFAULT_ELEMENT_CAP)
    eval_parser.set_defaults(handler=_cmd_eval)

    table_parser = add_parser("truth-table", help="print a connective tensor and its table")
    table_parser.add_argument("connective", choices=[c.value for c in Connective])
    table_parser.add_argument("--check", action="store_true",
                              help="re-verify rows against the set-theoretic oracle")
    table_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    table_parser.set_defaults(handler=_cmd_truth_table)

    show_parser = add_parser("show", help="print the tensors for a declared symbol")
    show_parser.add_argument("--model", required=True)
    show_parser.add_argument("name")
    show_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    show_parser.add_argument("--cap", type=element_cap, default=DEFAULT_ELEMENT_CAP)
    show_parser.set_defaults(handler=_cmd_show)

    sweep_parser = add_parser("sweep", help="run the tensor-versus-oracle equivalence sweep")
    sweep_parser.add_argument("--seed", type=int, default=0)
    sweep_parser.add_argument("--max-domain", type=sweep_domain, default=3)
    sweep_parser.add_argument("--max-depth", type=sweep_depth, default=3)
    sweep_parser.add_argument("--count", type=positive_int, default=1000)
    sweep_parser.add_argument("--report", help="write one JSON record per instance to this file")
    sweep_parser.add_argument("--artifacts", help="directory for disagreement dumps")
    sweep_parser.add_argument("--output", choices=["pretty", "records"], default="pretty")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: callers must not mutate it.

    ``main`` hands an argv that starts with a command name to that command's
    own parser, registered here, so this parser reads only the rest: help, a
    missing or unknown command, an option before the command, and its usage
    errors."""
    return _parsers()[0]


def main(argv: list[str] | None = None) -> int:
    """Run one command line (``sys.argv[1:]`` by default); return its exit code.

    When ``argv[0]`` names a command, that command's parser reads the rest
    of ``argv`` and the top-level parser only reports arguments left over,
    as ``parse_args`` would; the top-level parser reads any other ``argv``."""
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        code, lines, error = args.handler(args)
        try:
            # One write: an output that cannot be encoded leaves stdout empty.
            sys.stdout.write("".join(line + "\n" for line in lines))
        except UnicodeEncodeError as err:
            raise TensorLogicError(f"{err}; --output records writes ASCII") from None
    except (TensorLogicError, OSError, UnicodeError) as err:
        code, error = 2, str(err)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
