"""Mutation check: plant each listed fault in a copy of the sources and run
the tests that should catch it.

Each mutant names a source file, an exact fragment that occurs once in it,
the fragment's replacement, and the tests that should fail on the result.
Every mutant runs on its own temporary copy of ``src/`` and ``tests/``, so
the working tree is never changed.  Before any mutant runs, the unmutated
copy must pass every listed test; otherwise a failure would say nothing.

A mutant is "killed" when its tests fail, "survived" when they pass, and
"error" when its fragment is not found exactly once or pytest ends for
another reason (such as a collection error).  The outcomes are written as
JSON to ``MUTANTS.json`` at the repository root; the exit status is 0 only
when every mutant is killed.

Usage:

    python tools/mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "dense-index-first-argument-most-significant",
        "src/tensorlogic/truth.py",
        "tuples @ n ** np.arange(k)",
        "tuples @ n ** np.arange(k)[::-1]",
        ("tests/test_relation_keys.py",),
    ),
    Mutant(
        "from-names-stores-tuples-reversed",
        "src/tensorlogic/model.py",
        "frozenset(zip(*[indices] * max(arity, 1)))",
        "frozenset(t[::-1] for t in zip(*[indices] * max(arity, 1)))",
        ("tests/test_dsl.py::TestParseModel",),
    ),
    Mutant(
        "slice-probe-open-slot-first",
        "src/tensorlogic/truth.py",
        "if prefix + (j,) in decl.tuples",
        "if (j,) + prefix in decl.tuples",
        ("tests/test_relation_keys.py",),
    ),
    Mutant(
        "slice-probe-misses-last-atom",
        "src/tensorlogic/truth.py",
        "for j in range(n) if prefix",
        "for j in range(n - 1) if prefix",
        ("tests/test_relation_keys.py",),
    ),
    Mutant(
        "from-names-skips-tuple-length-check",
        "src/tensorlogic/model.py",
        "if set(map(len, tuples)) - {arity}:",
        "if False:",
        ("tests/test_model.py",),
    ),
    Mutant(
        "or-tensor-loaded-for-and",
        "src/tensorlogic/dsl.py",
        "holds = staticmethod(lambda left, right: left and right)",
        "holds = staticmethod(lambda left, right: left or right)",
        ("tests/test_evaluator.py",),
    ),
    Mutant(
        "connective-tensor-operands-swapped",
        "src/tensorlogic/truth.py",
        "for i in reversed(index)",
        "for i in index",
        ("tests/test_truth.py", "tests/test_evaluator.py::TestEquivalenceSweep"),
    ),
    Mutant(
        "negation-row-holds-its-operand",
        "src/tensorlogic/dsl.py",
        "holds = staticmethod(lambda body: not body)",
        "holds = staticmethod(lambda body: body)",
        ("tests/test_truth.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "subset-decided-with-greater-or-equal",
        "src/tensorlogic/sets.py",
        "    d = x > y\n",
        "    d = x >= y\n",
        ("tests/test_evaluator.py",),
    ),
    Mutant(
        "nonempty-reads-the-first-entry",
        "src/tensorlogic/sets.py",
        "return bool(x[x.argmax()])",
        "return bool(x[0])",
        ("tests/test_sets.py::test_decision_kernels_match_plain_python",),
    ),
    Mutant(
        "slice-prefix-reversed",
        "src/tensorlogic/truth.py",
        "tuple(map(m.atom_index, bound))",
        "tuple(map(m.atom_index, bound[::-1]))",
        ("tests/test_relation_keys.py",),
    ),
    Mutant(
        "extra-probe-load",
        "src/tensorlogic/evaluator.py",
        'return self.emit("contract", (self.load(*_PROBE), matrix), (n,))',
        "self.load(*_PROBE)\n"
        '        return self.emit("contract", (self.load(*_PROBE), matrix), (n,))',
        ("tests/test_plan_memo.py",),
    ),
    Mutant(
        "slice-memo-key-without-bound-prefix",
        "src/tensorlogic/evaluator.py",
        "note = f\"rel:{rel}({','.join(bound + ('_',))})\"",
        "note = f\"rel:{rel}(_)\"",
        ("tests/test_plan_memo.py",),
    ),
    Mutant(
        "cap-compared-only-on-a-memo-miss",
        "src/tensorlogic/evaluator.py",
        "        if size > self.cap:\n"
        "            PlanTooLargeError.check(note, size, self.cap)\n"
        "        tensor = self.memoised(note)\n"
        "        if tensor is None:\n"
        "            tensor = self.model._tensors.setdefault(note, build(*args))\n",
        "        tensor = self.memoised(note)\n"
        "        if tensor is None:\n"
        "            PlanTooLargeError.check(note, size, self.cap)\n"
        "            tensor = self.model._tensors.setdefault(note, build(*args))\n",
        ("tests/test_plan_memo.py::test_cap_is_checked_before_the_memo_and_before_any_build",),
    ),
    Mutant(
        "plan-load-never-memoised",
        "src/tensorlogic/evaluator.py",
        "tensor = self.model._tensors.setdefault(note, build(*args))",
        "tensor = build(*args)",
        ("tests/test_plan_memo.py",),
    ),
    Mutant(
        "predicate-tensor-complement",
        "src/tensorlogic/truth.py",
        "_truth_tensor((m.domain_size,), list(m.predicate_extension(name)))",
        "_truth_tensor(\n"
        "        (m.domain_size,),\n"
        "        [i for i in range(m.domain_size) if i not in m.predicate_extension(name)],\n"
        "    )",
        ("tests/test_evaluator.py",),
    ),
    Mutant(
        "oracle-or-as-and",
        "src/tensorlogic/evaluator.py",
        "return _oracle_truth(f.left, m, x) | _oracle_truth(f.right, m, x)",
        "return _oracle_truth(f.left, m, x) & _oracle_truth(f.right, m, x)",
        ("tests/test_evaluator.py",),
    ),
    Mutant(
        "printer-leaves-and-bare-under-not",
        "src/tensorlogic/dsl.py",
        "if _precedence(body) < Not.precedence:",
        "if _precedence(body) < And.precedence:",
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "crisp-lookup-by-value",
        "src/tensorlogic/evaluator.py",
        "verdict = _CRISP.get(result.tobytes())",
        "verdict = _CRISP.get((result + 0.0).tobytes())",
        ("tests/test_plan_memo.py::test_a_result_that_is_not_a_plain_crisp_pair_keeps_its_floats",),
    ),
    Mutant(
        "snap-tolerance-too-lax",
        "src/tensorlogic/tensor.py",
        "axis=None, initial=0.0) <= FLOAT_TOL",
        "axis=None, initial=0.0) <= 1e-9",
        (
            "tests/test_model.py::TestDecoding",
            "tests/test_model.py::test_zero_one_check_matches_the_reference_through_every_caller",
        ),
    ),
    Mutant(
        "snap-reduced-with-minimum",
        "src/tensorlogic/tensor.py",
        "np.maximum.reduce(np.abs(arr - bits)",
        "np.minimum.reduce(np.abs(arr - bits)",
        ("tests/test_model.py::test_zero_one_check_matches_the_reference_through_every_caller",),
    ),
    Mutant(
        "snap-returns-bits-without-the-grid-comparison",
        "src/tensorlogic/tensor.py",
        "    off = (arr != bits).ravel()\n"
        "    if not off.size or not off[off.argmax()]:\n"
        "        return bits\n",
        "    return bits\n",
        (
            "tests/test_model.py::test_zero_one_check_matches_the_reference_on_any_shape",
            "tests/test_model.py::test_zero_one_check_matches_the_reference_through_every_caller",
        ),
    ),
    Mutant(
        "snap-grid-comparison-read-at-argmin",
        "src/tensorlogic/tensor.py",
        "not off[off.argmax()]",
        "not off[off.argmin()]",
        (
            "tests/test_model.py::test_zero_one_check_matches_the_reference_on_any_shape",
            "tests/test_model.py::test_zero_one_check_matches_the_reference_through_every_caller",
        ),
    ),
    Mutant(
        "exists-decided-on-the-raw-row",
        "src/tensorlogic/evaluator.py",
        "value = _VERDICTS[_nonempty(_set_bits(registers[srcs[0]]))]",
        "_set_bits(registers[srcs[0]])\n"
        "                value = _VERDICTS[_nonempty(registers[srcs[0]])]",
        ("tests/test_model.py::test_zero_one_check_matches_the_reference_through_every_caller",),
    ),
    Mutant(
        "closed-connective-operands-swapped",
        "src/tensorlogic/evaluator.py",
        "registers[c].dot(left).dot(registers[b])",
        "registers[c].dot(registers[b]).dot(left)",
        (
            "tests/test_plan_memo.py::test_columnwise_is_the_connective_at_every_column",
            "tests/test_evaluator.py",
        ),
    ),
    Mutant(
        "crisp-argument-contracted-raw",
        "src/tensorlogic/truth.py",
        "return Tensor._wrap(bits.astype(np.float64)), False",
        "return arg, False",
        ("tests/test_model.py::test_crisp_application_contracts_the_snapped_one_hot",),
    ),
    Mutant(
        "depth-limit-off-by-one",
        "src/tensorlogic/dsl.py",
        "if self.open >= MAX_DEPTH:",
        "if self.open > MAX_DEPTH:",
        ("tests/test_dsl.py::TestDepthLimit",),
    ),
    Mutant(
        "model-pattern-takes-reserved-name",
        "src/tensorlogic/dsl.py",
        "name in RESERVED\n            or name in predicates",
        "name in predicates",
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "column-off-by-one",
        "src/tensorlogic/dsl.py",
        "offset - line_start + 1",
        "offset - line_start",
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "formula-pattern-keeps-comments",
        "src/tensorlogic/dsl.py",
        '_FORMULA_SKIP = r"\\s*(?:#[^\\n]*\\s*)*"',
        '_FORMULA_SKIP = r"\\s*"',
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "whole-application-skips-predicate-arity",
        "src/tensorlogic/dsl.py",
        "return Atom(name, args[0]) if len(args) == 1 else None",
        "return Atom(name, args[0])",
        ("tests/test_dsl.py::test_whole_applications_parse_as_the_token_path_does",),
    ),
    Mutant(
        "whole-application-skips-relation-arity",
        "src/tensorlogic/dsl.py",
        "if decl is not None and decl.arity == len(args):",
        "if decl is not None:",
        ("tests/test_dsl.py::test_whole_applications_parse_as_the_token_path_does",),
    ),
    Mutant(
        "whole-application-takes-a-reserved-name",
        "src/tensorlogic/dsl.py",
        "name in RESERVED\n            or not RESERVED.isdisjoint(args)",
        "not RESERVED.isdisjoint(args)",
        ("tests/test_dsl.py::test_whole_applications_parse_as_the_token_path_does",),
    ),
    Mutant(
        "atom-name-takes-a-whole-application",
        "src/tensorlogic/dsl.py",
        "        self.reread()\n        token = self.expect_name(\"an atom name\")",
        "        token = self.expect_name(\"an atom name\")",
        ("tests/test_dsl.py::test_whole_applications_parse_as_the_token_path_does",),
    ),
    Mutant(
        "or-binds-tighter-than-and",
        "src/tensorlogic/dsl.py",
        '"&", "and", 3, False\n'
        "    holds = staticmethod(lambda left, right: left and right)\n\n\n"
        "class Or(_Binary):\n"
        '    symbol, name, precedence, groups_right = "|", "or", 2,',
        '"&", "and", 2, False\n'
        "    holds = staticmethod(lambda left, right: left and right)\n\n\n"
        "class Or(_Binary):\n"
        '    symbol, name, precedence, groups_right = "|", "or", 3,',
        ("tests/test_dsl.py", "tests/test_grammar.py"),
    ),
    Mutant(
        "implies-groups-left",
        "src/tensorlogic/dsl.py",
        '"->", "implies", 1, True',
        '"->", "implies", 1, False',
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "model-pattern-keeps-comments",
        "src/tensorlogic/dsl.py",
        'rf"(?:[^\\S\\n]+|#[^\\n]*)*(',
        'rf"(?:[^\\S\\n]+)*(',
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "name-starts-with-a-digit",
        "src/tensorlogic/dsl.py",
        '_NAME = "[A-Za-z][A-Za-z0-9_]*"',
        '_NAME = "[A-Za-z0-9][A-Za-z0-9_]*"',
        ("tests/test_dsl.py",),
    ),
    Mutant(
        "sweep-artifact-with-emptied-predicates",
        "src/tensorlogic/evaluator.py",
        "write_text(dsl.print_model(m))",
        "write_text(\n"
        "                \"\".join(\n"
        "                    line.partition(\":\")[0] + \":\\n\" if line.startswith(\"pred \") else line\n"
        "                    for line in dsl.print_model(m).splitlines(True)\n"
        "                )\n"
        "            )",
        ("tests/test_evaluator.py::TestEquivalenceSweep",),
    ),
    Mutant(
        "table-written-as-it-is-built",
        "src/tensorlogic/cli.py",
        'lines.append("")',
        'sys.stdout.write("\\n".join(lines) + "\\n")\n'
        '    lines = [""]',
        (
            "tests/test_cli.py::TestExitCodeContract"
            "::test_pretty_output_to_an_ascii_stdout_is_an_error",
        ),
    ),
    Mutant(
        "failed-check-exits-2-without-raising",
        "src/tensorlogic/cli.py",
        'raise TensorLogicError(f"self-check failed at inputs {inputs}")',
        "return 2, [], None",
        ("tests/test_cli.py::TestTruthTableCommand::test_self_check_failure",),
    ),
    Mutant(
        "numpy-axis-limit-escapes-build-relation",
        "src/tensorlogic/truth.py",
        "except ValueError:\n        raise RankError",
        "except RankError:\n        raise RankError",
        (
            "tests/test_truth.py::TestBuildRelation"
            "::test_more_axes_than_numpy_allows_is_a_rank_error",
            "tests/test_cli.py::TestShowCommand"
            "::test_a_relation_with_more_axes_than_numpy_allows",
        ),
    ),
    Mutant(
        "command-route-drops-leftover-arguments",
        "src/tensorlogic/cli.py",
        "        if extra:\n",
        "        if False:\n",
        ("tests/test_cli.py::TestArgvRoute",),
    ),
    Mutant(
        "input-files-keep-the-byte-order-mark",
        "src/tensorlogic/cli.py",
        'open(path, encoding="utf-8-sig")',
        'open(path, encoding="utf-8")',
        ("tests/test_cli.py::TestExitCodeContract::test_files_with_a_byte_order_mark",),
    ),
    Mutant(
        "input-files-keep-carriage-returns",
        "src/tensorlogic/cli.py",
        'open(path, encoding="utf-8-sig")',
        'open(path, encoding="utf-8-sig", newline="")',
        ("tests/test_cli.py::TestInputFiles::test_line_ends_read_as_newlines",),
    ),
)


def copy_tree(destination: Path) -> None:
    """The sources, the tests and the pytest configuration, under ``destination``."""
    for part in ("src", "tests"):
        shutil.copytree(
            ROOT / part, destination / part, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for ``tests``, run in ``tree`` on its own sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def outcome(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        path = tree / mutant.file
        source = path.read_text(encoding="utf-8")
        if source.count(mutant.fragment) != 1:
            return "error"
        path.write_text(source.replace(mutant.fragment, mutant.replacement), encoding="utf-8")
        status = run_tests(tree, mutant.tests)
    return {0: "survived", 1: "killed"}.get(status, "error")


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        copy_tree(Path(tmp))
        if run_tests(Path(tmp), tests) != 0:
            print("error: the unmutated sources fail the listed tests", file=sys.stderr)
            return 2

    records = []
    for mutant in MUTANTS:
        result = outcome(mutant)
        print(f"{result:8} {mutant.name}", flush=True)
        records.append(
            {"name": mutant.name, "file": mutant.file, "tests": list(mutant.tests), "outcome": result}
        )
    killed = sum(r["outcome"] == "killed" for r in records)
    report = {"killed": killed, "total": len(records), "mutants": records}
    (ROOT / "MUTANTS.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{killed} of {len(records)} mutants killed")
    return 0 if killed == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())
