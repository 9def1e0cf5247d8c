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
        "src/tensorlogic/evaluator.py",
        '("and", dsl.And)',
        '("or", dsl.And)',
        ("tests/test_evaluator.py",),
    ),
    Mutant(
        "subset-decided-with-greater-or-equal",
        "src/tensorlogic/sets.py",
        "return not (x > y).any()",
        "return not (x >= y).any()",
        ("tests/test_evaluator.py",),
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
        "return self.contract(self.load_constant(_PROBE), matrix)",
        "self.load_constant(_PROBE)\n"
        "        return self.contract(self.load_constant(_PROBE), matrix)",
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
        "        if tensor is None:\n",
        "        tensor = self.memoised(note)\n"
        "        if tensor is None:\n"
        "            PlanTooLargeError.check(note, size, self.cap)\n",
        ("tests/test_plan_memo.py::test_cap_is_checked_before_the_memo_and_before_any_build",),
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
        "if _precedence(body) < _PRECEDENCE[Not]:",
        "if _precedence(body) < _PRECEDENCE[And]:",
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
        "(np.abs(arr - bits) <= FLOAT_TOL)",
        "(np.abs(arr - bits) <= 1e-9)",
        ("tests/test_model.py::TestDecoding",),
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
        'rf"(?:\\s+|#[^\\n]*)*(',
        'rf"(?:\\s+)*(',
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
