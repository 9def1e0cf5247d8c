"""Formula compilation to contraction plans, execution, and oracle checking.

A :class:`ContractionPlan` is a flat register program: each step loads a
model-derived tensor or combines registers with one of four instructions
(contract, columnwise, subset test, nonemptiness test).  Plans are compiled
bottom-up with no common subexpressions shared, so the executed steps read
off as the evaluation trace of the formula.

A relation is never loaded whole.  Applying it loads the (2, n) slice that
fixes every argument but the last, built from the relation's tuples and
noted ``rel:loves(j,_)``; a full application then contracts that slice with
the last argument's one-hot vector, as a predicate application does.  So no
plan holds a relation tensor of rank above 2.

A set expression is a formula with one free variable: a (2, n) matrix of
truth columns.  A predicate set is the ``pred:`` matrix its applications
load (no plan loads an (n, n) diagonal), and a partial application is its
slice.  Every binary connective, between formulas or between set
expressions, is one ``columnwise`` step with its connective tensor:
out[a, ...] = sum_bc C[a, b, c] L[c, ...] R[b, ...], where a formula's (2,)
truth vector is a single column.  Each quantifier operand's true row is
read once, so ``forall`` and ``exists`` are a plan's only non-linear steps.

The tensors a plan loads depend on the model alone, not on the formula that
applies them.  Each one is built on first use and kept on the model under
its load note, so every plan over one model loads the same read-only
objects.  A relation of arity k has at most n^(k-1) slices, one per bound
prefix, so its slices in that memo never hold more than the 2 n^k elements
of its dense tensor.  Every load is checked against the element cap before
the memo is read, and the dimension preconditions of every step are checked
at compile time from the model's domain size.  :func:`execute` therefore
runs the steps directly on the payloads' read-only ndarrays and wraps only
the result; a quantifier step runs the set-vector check and the decision
kernel of :mod:`tensorlogic.sets` straight on its operand registers.

:func:`oracle_eval` is the independent referee: it evaluates the same bound
AST directly over the model's sets with classical connective semantics and
never touches a tensor.  :func:`equivalence_sweep` runs both paths over
generated instances and reports every disagreement and every instance whose
tensor path exceeds the element cap, dumping model/formula files for
disagreements when given an artifact directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import dsl
from .errors import (
    DimensionMismatchError,
    ElementCapError,
    FormulaDepthError,
    PlanTooLargeError,
)
from .model import Model, TruthVec, _set_bits, encode_atom, truth_bot, truth_top
from .sets import _TRUE_ROW_PROBE, _nonempty, _operands, _subset
from .tensor import DEFAULT_ELEMENT_CAP, Tensor, _contract_arrays
from .truth import build_predicate, build_relation_slice, connective_tensor


@dataclass(frozen=True)
class Instr:
    """One plan step writing register ``dest``.

    ``load`` carries a tensor payload and a note naming what was loaded;
    the other ops read the registers in ``srcs``.
    """

    op: str  # "load" | "contract" | "columnwise" | "forall" | "exists"
    dest: int
    srcs: tuple[int, ...] = ()
    payload: Tensor | None = None
    note: str = ""


@dataclass(frozen=True)
class ContractionPlan:
    """Straight-line tensor program with a single truth-vector result."""

    steps: tuple[Instr, ...]
    result: int
    register_shapes: tuple[tuple[int, ...], ...]

    @property
    def register_count(self) -> int:
        return len(self.register_shapes)

    def describe(self) -> str:
        lines = []
        for instr in self.steps:
            shape = self.register_shapes[instr.dest]
            if instr.op == "load":
                lines.append(f"r{instr.dest} <- load {instr.note}  shape {shape}")
            else:
                srcs = " ".join(f"r{s}" for s in instr.srcs)
                lines.append(f"r{instr.dest} <- {instr.op} {srcs}  shape {shape}")
        lines.append(f"result: r{self.result}")
        return "\n".join(lines)


#: The connective tensor of each binary node, in both calculi.
_CONNECTIVES = {
    dsl.And: "and", dsl.Intersect: "and", dsl.Or: "or", dsl.Union: "or", dsl.Implies: "implies"
}


class _PlanBuilder:
    def __init__(self, m: Model, cap: int):
        self.model = m
        self.cap = cap
        self.steps: list[Instr] = []
        self.shapes: list[tuple[int, ...]] = []

    def load(self, note: str, shape: tuple[int, ...], build: Callable[[], Tensor]) -> int:
        """Load the model's tensor named by ``note``, of shape ``shape``.

        The cap is checked first, so a tensor memoised under a larger cap is
        never handed to a plan compiled under a smaller one.
        """
        PlanTooLargeError.check(note, math.prod(shape), self.cap)
        tensor = self.model._memo_tensor(note, build)
        reg = len(self.shapes)
        self.shapes.append(tensor.shape)
        self.steps.append(Instr("load", reg, payload=tensor, note=note))
        return reg

    def emit(self, op: str, srcs: tuple[int, ...], shape: tuple[int, ...]) -> int:
        reg = len(self.shapes)
        self.shapes.append(shape)
        self.steps.append(Instr(op, reg, srcs=srcs))
        return reg

    def contract(self, a: int, b: int) -> int:
        left, right = self.shapes[a], self.shapes[b]
        if left[-1] != right[0]:
            raise DimensionMismatchError(
                f"plan step would contract shapes {left} and {right}"
            )
        shape = left[:-1] + right[1:]
        return self.emit("contract", (a, b), shape or (1,))

    def load_constant(self, note: str, tensor: Tensor) -> int:
        return self.load(note, tensor.shape, lambda: tensor)

    def load_connective(self, kind: str) -> int:
        return self.load_constant(f"conn:{kind}", connective_tensor(kind).tensor)

    def columnwise(self, node: Any, a: int, b: int) -> int:
        """One step combining registers ``a`` and ``b``, the lowered operands
        of binary ``node``, column by column with its connective tensor."""
        t = self.load_connective(_CONNECTIVES[type(node)])
        return self.emit("columnwise", (t, a, b), self.shapes[a])

    def load_predicate(self, pred: str) -> int:
        """Load the (2, n) truth matrix of predicate ``pred``."""
        m = self.model
        return self.load(
            f"pred:{pred}", (2, m.domain_size), lambda: build_predicate(m, pred).tensor
        )

    def load_slice(self, rel: str, bound: tuple[str, ...]) -> int:
        """Load the (2, n) slice of ``rel`` with its first arguments ``bound``."""
        m = self.model
        note = f"rel:{rel}({','.join(bound + ('_',))})"
        return self.load(
            note, (2, m.domain_size), lambda: build_relation_slice(m, rel, bound).tensor
        )

    def apply(self, reg: int, arg: str) -> int:
        """Contract register ``reg`` with the one-hot vector of atom ``arg``."""
        m = self.model
        atom = self.load(f"atom:{arg}", (m.domain_size,), lambda: encode_atom(m, arg))
        return self.contract(reg, atom)

    def lower_formula(self, f: dsl.Formula) -> int:
        match f:
            case dsl.Atom(pred, arg):
                return self.apply(self.load_predicate(pred), arg)
            case dsl.RelAtom(rel, args):
                return self.apply(self.load_slice(rel, args[:-1]), args[-1])
            case dsl.Not(body):
                b = self.lower_formula(body)
                return self.contract(self.load_connective("not"), b)
            case dsl.And(left, right) | dsl.Or(left, right) | dsl.Implies(left, right):
                return self.columnwise(f, self.lower_formula(left), self.lower_formula(right))
            case dsl.ForAll(subset, superset):
                x, y = self.lower_operand(subset), self.lower_operand(superset)
                return self.emit("forall", (x, y), (2,))
            case dsl.Exists(body):
                return self.emit("exists", (self.lower_operand(body),), (2,))
        raise TypeError(f"not a formula node: {f!r}")

    def lower_operand(self, e: dsl.SetExpr) -> int:
        """The true row of a quantifier operand's (2, n) matrix."""
        matrix = self.lower_set(e)
        probe = self.load_constant("true-row-probe", _TRUE_ROW_PROBE)
        return self.contract(probe, matrix)

    def lower_set(self, e: dsl.SetExpr) -> int:
        """The (2, n) truth matrix of a set expression over the domain."""
        match e:
            case dsl.PredSet(name):
                return self.load_predicate(name)
            case dsl.PartialRel(rel, bound):
                return self.load_slice(rel, bound)
            case dsl.Intersect(left, right) | dsl.Union(left, right):
                return self.columnwise(e, self.lower_set(left), self.lower_set(right))
        raise TypeError(f"not a set expression node: {e!r}")


def compile_formula(
    f: dsl.Formula, m: Model, *, cap: int = DEFAULT_ELEMENT_CAP
) -> ContractionPlan:
    """Compile a bound formula into a contraction plan over ``m``."""
    builder = _PlanBuilder(m, cap)
    try:
        result = builder.lower_formula(f)
    except RecursionError:
        raise FormulaDepthError("formula nests too deep to compile") from None
    if builder.shapes[result] != (2,):
        raise DimensionMismatchError(
            f"plan result register has shape {builder.shapes[result]}, expected (2,)"
        )
    return ContractionPlan(tuple(builder.steps), result, tuple(builder.shapes))


#: A quantifier step's output, indexed by its decision: false, then true.
_VERDICTS = (truth_bot().to_tensor().array, truth_top().to_tensor().array)


def execute(plan: ContractionPlan) -> TruthVec:
    """Run a plan's steps over a register file and return the truth vector.

    Registers hold plain ndarrays: the payloads' own read-only arrays, the
    fresh outputs of ``columnwise`` (one einsum for every binary connective)
    and of ``contract`` (the kernel of :func:`tensorlogic.tensor.contract`),
    and a quantifier's read-only verdict.  Shapes were checked at compile
    time; a quantifier still checks that its operands are characteristic
    vectors, and the result that it is a truth vector.
    """
    registers: list[np.ndarray | None] = [None] * plan.register_count
    for instr in plan.steps:
        match instr.op:
            case "load":
                value = instr.payload.array
            case "contract":
                a, b = instr.srcs
                value = _contract_arrays(registers[a], registers[b], plan.register_shapes[instr.dest])
            case "columnwise":
                c, a, b = instr.srcs
                value = np.einsum("abc,c...,b...->a...", registers[c], registers[a], registers[b])
            case "forall":
                x, y = (_set_bits(registers[s]) for s in instr.srcs)
                value = _VERDICTS[_subset(*_operands("forall", x, y))]
            case "exists":
                value = _VERDICTS[_nonempty(_set_bits(registers[instr.srcs[0]]))]
            case _:
                raise ValueError(f"unknown plan instruction {instr.op!r}")
        registers[instr.dest] = value
    return TruthVec.from_tensor(Tensor._wrap(registers[plan.result]))


def evaluate(f: dsl.Formula, m: Model, *, cap: int = DEFAULT_ELEMENT_CAP) -> TruthVec:
    """Compile and execute in one call."""
    return execute(compile_formula(f, m, cap=cap))


# ---------------------------------------------------------------------------
# Set-theoretic oracle: no tensors anywhere below this line.


def oracle_set_eval(e: dsl.SetExpr, m: Model) -> frozenset[int]:
    """The set of atom indices denoted by a set expression, computed directly."""
    try:
        return _oracle_set(e, m)
    except RecursionError:
        raise FormulaDepthError("set expression nests too deep for the oracle") from None


def _oracle_set(e: dsl.SetExpr, m: Model) -> frozenset[int]:
    match e:
        case dsl.PredSet(name):
            return m.predicate_extension(name)
        case dsl.PartialRel(rel, bound):
            decl = m.relation_decl(rel)
            prefix = tuple(m.atom_index(b) for b in bound)
            return frozenset(tup[-1] for tup in decl.tuples if tup[:-1] == prefix)
        case dsl.Intersect(left, right):
            return _oracle_set(left, m) & _oracle_set(right, m)
        case dsl.Union(left, right):
            return _oracle_set(left, m) | _oracle_set(right, m)
    raise TypeError(f"not a set expression node: {e!r}")


def oracle_eval(f: dsl.Formula, m: Model) -> bool:
    """Classical truth value of a bound formula, straight off the model's sets."""
    try:
        return _oracle_truth(f, m)
    except RecursionError:
        raise FormulaDepthError("formula nests too deep for the oracle") from None


def _oracle_truth(f: dsl.Formula, m: Model) -> bool:
    match f:
        case dsl.Atom(pred, arg):
            return m.atom_index(arg) in m.predicate_extension(pred)
        case dsl.RelAtom(rel, args):
            indices = tuple(m.atom_index(a) for a in args)
            return indices in m.relation_decl(rel).tuples
        case dsl.Not(body):
            return not _oracle_truth(body, m)
        case dsl.And(left, right):
            return _oracle_truth(left, m) and _oracle_truth(right, m)
        case dsl.Or(left, right):
            return _oracle_truth(left, m) or _oracle_truth(right, m)
        case dsl.Implies(left, right):
            return (not _oracle_truth(left, m)) or _oracle_truth(right, m)
        case dsl.ForAll(subset, superset):
            return _oracle_set(subset, m) <= _oracle_set(superset, m)
        case dsl.Exists(body):
            return len(_oracle_set(body, m)) > 0
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Equivalence sweep


@dataclass(frozen=True)
class SweepConfig:
    max_domain: int = 3
    max_depth: int = 3
    seed: int = 0
    count: int = 1000


@dataclass(frozen=True)
class OracleVerdict:
    """Both verdicts for one instance; ``agree`` ties them together.

    When the tensor path exceeded the element cap, ``error`` holds the
    :class:`ElementCapError` and there is no tensor result: the instance is
    neither an agreement nor a disagreement.
    """

    index: int
    formula_text: str
    tensor_result: TruthVec | None
    oracle_result: bool
    agree: bool
    error: ElementCapError | None = None

    def record(self, seed: int) -> str:
        record = {
            "seed": seed,
            "index": self.index,
            "formula": self.formula_text,
            "oracle": self.oracle_result,
        }
        if self.error is None:
            record["tensor"] = "T" if self.tensor_result.as_bool() else "F"
            record["agree"] = self.agree
        else:
            record["error"] = type(self.error).__name__
            record["message"] = str(self.error)
        return json.dumps(record, sort_keys=True)


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    verdicts: tuple[OracleVerdict, ...]

    @property
    def disagreements(self) -> tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if v.error is None and not v.agree)

    @property
    def errors(self) -> tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if v.error is not None)

    def to_lines(self) -> list[str]:
        return [v.record(self.config.seed) for v in self.verdicts]

    def summary(self) -> str:
        agreements = sum(v.agree for v in self.verdicts)
        return (
            f"instances={len(self.verdicts)} "
            f"agreements={agreements} "
            f"disagreements={len(self.disagreements)} "
            f"errors={len(self.errors)} "
            f"seed={self.config.seed}"
        )


def equivalence_sweep(
    config: SweepConfig, artifact_dir: str | Path | None = None
) -> SweepReport:
    """Run tensor evaluation against the oracle on seeded random instances.

    An :class:`ElementCapError` on one instance's tensor path is recorded on
    its verdict and the sweep goes on; any other error ends the sweep, as
    does a model too large for :func:`generate.random_model` to draw.  Every
    disagreement becomes a pair of files under ``artifact_dir`` when one is
    given (see :func:`dsl.print_formula` for when they re-parse).
    """
    import random

    from .generate import random_formula, random_model

    rng = random.Random(config.seed)
    verdicts = []
    for index in range(config.count):
        m = random_model(rng, max_domain=config.max_domain)
        f = random_formula(rng, m, max_depth=config.max_depth)
        try:
            tensor_result, error = evaluate(f, m), None
        except ElementCapError as err:
            tensor_result, error = None, err
        oracle_result = oracle_eval(f, m)
        agree = error is None and tensor_result.as_bool() == oracle_result
        verdict = OracleVerdict(
            index, dsl.print_formula(f), tensor_result, oracle_result, agree, error
        )
        if error is None and not agree and artifact_dir is not None:
            directory = Path(artifact_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"disagreement_{index}.model").write_text(dsl.print_model(m))
            (directory / f"disagreement_{index}.formula").write_text(
                verdict.formula_text + "\n"
            )
        verdicts.append(verdict)
    return SweepReport(config, tuple(verdicts))
