"""Formula compilation to contraction plans, execution, and oracle checking.

A :class:`ContractionPlan` is a flat register program: each step loads a
model-derived tensor or combines registers with one of five instructions
(contract, pointwise min/max, subset test, nonemptiness test).  Plans are
compiled bottom-up with no common subexpressions shared, so the executed
steps read off as the evaluation trace of the formula.

The tensors a plan loads depend on the model alone, not on the formula that
applies them.  Each one is built on first use and kept on the model under
its load note, so every plan over one model loads the same read-only
objects.  Every load is checked against the element cap before that memo is
read, and the dimension preconditions of every step are checked at compile
time from the model's domain size.  :func:`execute` therefore runs the steps
directly on the payloads' read-only ndarrays; it wraps only the quantifiers'
operands, which are still checked to be characteristic vectors, and the
result.

:func:`oracle_eval` is the independent referee: it evaluates the same bound
AST directly over the model's sets with classical connective semantics and
never touches a tensor.  :func:`equivalence_sweep` runs both paths over
generated instances and reports every disagreement, dumping re-runnable
model/formula files when given an artifact directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import dsl
from .errors import DimensionMismatchError, PlanTooLargeError
from .model import Model, TruthVec, encode_atom
from .sets import _TRUE_ROW_PROBE, SetVector, build_set_predicate, exists, forall
from .tensor import DEFAULT_ELEMENT_CAP, Tensor, ones
from .truth import build_predicate, build_relation, connective_tensor


@dataclass(frozen=True)
class Instr:
    """One plan step writing register ``dest``.

    ``load`` carries a tensor payload and a note naming what was loaded;
    the other ops read the registers in ``srcs``.
    """

    op: str  # "load" | "contract" | "emin" | "emax" | "forall" | "exists"
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
        size = math.prod(shape)
        if size > self.cap:
            raise PlanTooLargeError(
                f"load {note} needs a tensor of {size} elements, above the cap of {self.cap}"
            )
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

    def pointwise(self, op: str, a: int, b: int) -> int:
        if self.shapes[a] != self.shapes[b]:
            raise DimensionMismatchError(
                f"plan step {op} needs equal shapes, got {self.shapes[a]} and {self.shapes[b]}"
            )
        return self.emit(op, (a, b), self.shapes[a])

    def load_constant(self, note: str, tensor: Tensor) -> int:
        return self.load(note, tensor.shape, lambda: tensor)

    def load_relation(self, name: str) -> int:
        m = self.model
        shape = (2,) + (m.domain_size,) * m.relation_decl(name).arity
        return self.load(f"rel:{name}", shape, lambda: build_relation(m, name, cap=self.cap).tensor)

    def apply(self, reg: int, args: tuple[str, ...]) -> int:
        """Contract register ``reg`` with each argument's one-hot vector in turn."""
        m = self.model
        for arg in args:
            atom = self.load(f"atom:{arg}", (m.domain_size,), lambda: encode_atom(m, arg))
            reg = self.contract(reg, atom)
        return reg

    def lower_formula(self, f: dsl.Formula) -> int:
        m = self.model
        match f:
            case dsl.Atom(pred, arg):
                p = self.load(
                    f"pred:{pred}", (2, m.domain_size), lambda: build_predicate(m, pred).tensor
                )
                return self.apply(p, (arg,))
            case dsl.RelAtom(rel, args):
                return self.apply(self.load_relation(rel), args)
            case dsl.Not(body):
                b = self.lower_formula(body)
                t = self.load_constant("conn:not", connective_tensor("not").tensor)
                return self.contract(t, b)
            case dsl.And() | dsl.Or() | dsl.Implies():
                kind = {dsl.And: "and", dsl.Or: "or", dsl.Implies: "implies"}[type(f)]
                left = self.lower_formula(f.left)
                right = self.lower_formula(f.right)
                t = self.load_constant(f"conn:{kind}", connective_tensor(kind).tensor)
                return self.contract(self.contract(t, left), right)
            case dsl.ForAll(subset, superset):
                x = self.lower_set(subset)
                y = self.lower_set(superset)
                return self.emit("forall", (x, y), (2,))
            case dsl.Exists(body):
                x = self.lower_set(body)
                return self.emit("exists", (x,), (2,))
        raise TypeError(f"not a formula node: {f!r}")

    def lower_set(self, e: dsl.SetExpr) -> int:
        m = self.model
        n = m.domain_size
        match e:
            case dsl.PredSet(name):
                p = self.load(
                    f"set-pred:{name}", (n, n), lambda: build_set_predicate(m, name).tensor
                )
                one = self.load("ones", (n,), lambda: ones(n))
                return self.contract(p, one)
            case dsl.PartialRel(rel, bound):
                reg = self.apply(self.load_relation(rel), bound)
                probe = self.load_constant("true-row-probe", _TRUE_ROW_PROBE)
                return self.contract(probe, reg)
            case dsl.Intersect(left, right):
                return self.pointwise("emin", self.lower_set(left), self.lower_set(right))
            case dsl.Union(left, right):
                return self.pointwise("emax", self.lower_set(left), self.lower_set(right))
        raise TypeError(f"not a set expression node: {e!r}")


def compile_formula(
    f: dsl.Formula, m: Model, *, cap: int = DEFAULT_ELEMENT_CAP
) -> ContractionPlan:
    """Compile a bound formula into a contraction plan over ``m``."""
    builder = _PlanBuilder(m, cap)
    result = builder.lower_formula(f)
    if builder.shapes[result] != (2,):
        raise DimensionMismatchError(
            f"plan result register has shape {builder.shapes[result]}, expected (2,)"
        )
    return ContractionPlan(tuple(builder.steps), result, tuple(builder.shapes))


def execute(plan: ContractionPlan) -> TruthVec:
    """Run a plan's steps over a register file and return the truth vector.

    Registers hold plain ndarrays: the payloads' own read-only arrays and
    the fresh outputs of contraction, ``np.minimum`` and ``np.maximum``,
    computed exactly as :mod:`tensorlogic.tensor` computes them.  Shapes were
    checked at compile time; the quantifiers still check that their operands
    are characteristic vectors, and the result that it is a truth vector.
    """
    registers: list[np.ndarray | None] = [None] * plan.register_count
    for instr in plan.steps:
        match instr.op:
            case "load":
                value = instr.payload.array
            case "contract":
                # np.tensordot's own reshape-dot-reshape, minus its argument
                # handling: bitwise the result of tensor.contract.
                left, right = registers[instr.srcs[0]], registers[instr.srcs[1]]
                k = right.shape[0]
                value = np.dot(left.reshape(-1, k), right.reshape(k, -1))
                value = value.reshape(plan.register_shapes[instr.dest])
            case "emin":
                value = np.minimum(registers[instr.srcs[0]], registers[instr.srcs[1]])
            case "emax":
                value = np.maximum(registers[instr.srcs[0]], registers[instr.srcs[1]])
            case "forall":
                x, y = (SetVector(Tensor._wrap(registers[s])) for s in instr.srcs)
                value = forall(x, y).to_tensor().array
            case "exists":
                value = exists(SetVector(Tensor._wrap(registers[instr.srcs[0]]))).to_tensor().array
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
    match e:
        case dsl.PredSet(name):
            return m.predicate_extension(name)
        case dsl.PartialRel(rel, bound):
            decl = m.relation_decl(rel)
            prefix = tuple(m.atom_index(b) for b in bound)
            return frozenset(tup[-1] for tup in decl.tuples if tup[:-1] == prefix)
        case dsl.Intersect(left, right):
            return oracle_set_eval(left, m) & oracle_set_eval(right, m)
        case dsl.Union(left, right):
            return oracle_set_eval(left, m) | oracle_set_eval(right, m)
    raise TypeError(f"not a set expression node: {e!r}")


def oracle_eval(f: dsl.Formula, m: Model) -> bool:
    """Classical truth value of a bound formula, straight off the model's sets."""
    match f:
        case dsl.Atom(pred, arg):
            return m.atom_index(arg) in m.predicate_extension(pred)
        case dsl.RelAtom(rel, args):
            indices = tuple(m.atom_index(a) for a in args)
            return indices in m.relation_decl(rel).tuples
        case dsl.Not(body):
            return not oracle_eval(body, m)
        case dsl.And(left, right):
            return oracle_eval(left, m) and oracle_eval(right, m)
        case dsl.Or(left, right):
            return oracle_eval(left, m) or oracle_eval(right, m)
        case dsl.Implies(left, right):
            return (not oracle_eval(left, m)) or oracle_eval(right, m)
        case dsl.ForAll(subset, superset):
            return oracle_set_eval(subset, m) <= oracle_set_eval(superset, m)
        case dsl.Exists(body):
            return len(oracle_set_eval(body, m)) > 0
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
    """Both verdicts for one instance; ``agree`` ties them together."""

    index: int
    model_text: str
    formula_text: str
    tensor_result: TruthVec
    oracle_result: bool
    agree: bool

    def record(self, seed: int) -> str:
        return json.dumps(
            {
                "seed": seed,
                "index": self.index,
                "formula": self.formula_text,
                "tensor": "T" if self.tensor_result.as_bool() else "F",
                "oracle": self.oracle_result,
                "agree": self.agree,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    verdicts: tuple[OracleVerdict, ...]

    @property
    def disagreements(self) -> tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.agree)

    def to_lines(self) -> list[str]:
        return [v.record(self.config.seed) for v in self.verdicts]

    def summary(self) -> str:
        return (
            f"instances={len(self.verdicts)} "
            f"agreements={len(self.verdicts) - len(self.disagreements)} "
            f"disagreements={len(self.disagreements)} "
            f"seed={self.config.seed}"
        )


def equivalence_sweep(
    config: SweepConfig, artifact_dir: str | Path | None = None
) -> SweepReport:
    """Run tensor evaluation against the oracle on seeded random instances.

    Every disagreement becomes a re-runnable pair of files under
    ``artifact_dir`` when one is given.
    """
    import random

    from .generate import random_formula, random_model

    rng = random.Random(config.seed)
    verdicts = []
    for index in range(config.count):
        m = random_model(rng, max_domain=config.max_domain)
        f = random_formula(rng, m, max_depth=config.max_depth)
        tensor_result = evaluate(f, m)
        oracle_result = oracle_eval(f, m)
        agree = tensor_result.as_bool() == oracle_result
        verdict = OracleVerdict(
            index, dsl.print_model(m), dsl.print_formula(f), tensor_result, oracle_result, agree
        )
        if not agree and artifact_dir is not None:
            directory = Path(artifact_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"disagreement_{index}.model").write_text(verdict.model_text)
            (directory / f"disagreement_{index}.formula").write_text(
                verdict.formula_text + "\n"
            )
        verdicts.append(verdict)
    return SweepReport(config, tuple(verdicts))
