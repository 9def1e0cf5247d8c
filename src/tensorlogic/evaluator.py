"""Formula compilation to contraction plans, execution, and oracle checking.

A :class:`ContractionPlan` is a flat register program: each step loads a
model-derived tensor or combines registers with one of four instructions
(contract, columnwise, subset test, nonemptiness test).  Plans are compiled
bottom-up with no common subexpressions shared, so the executed steps read
off as the evaluation trace of the formula.

A relation is never loaded whole.  Applying it loads the (2, n) slice that
fixes every argument but the last, built by n probes of the relation's
stored tuples and noted ``rel:loves(j,_)``; a full application then contracts
that slice with the last argument's one-hot vector, as a predicate
application does.  So no plan holds a relation tensor of rank above 2.

A set expression is an open formula over ``dsl.VAR``, and lowers to a
(2, n) matrix of truth columns: an application to ``VAR`` skips its one-hot
contraction, so ``greek`` is the ``pred:`` matrix that ``greek(a)`` loads
(no plan loads an (n, n) diagonal) and ``loves(j, _)`` is its slice.  Every
binary connective is one ``columnwise`` step with its connective tensor:
out[a, ...] = sum_bc C[a, b, c] L[c, ...] R[b, ...], where a closed
formula's (2,) truth vector is a single column; its operands must have one
shape, and a quantifier operand must be (2, n).  The left operand's rank
picks the step's one kernel: between (2,) truth vectors it is
``connective_binary``'s two contractions, ``C.dot(L).dot(R)``, and between
(2, n) matrices it is one einsum over the columns.  Each quantifier operand's
true row is read once, so ``forall`` and ``exists`` are a plan's only
non-linear steps.

A tensor a plan loads depends on its load note and the model, not on the
formula that applies it.  Each one is kept on the model under its load note
the first time a plan loads it, so every plan over one model loads the same
read-only objects.  The plan builder's ``load`` is the one place that reads
and fills that memo: it compares the element cap first, then probes the memo
once, and on a miss stores the bare tensor a raw builder returns
(``truth.predicate_tensor``, ``truth.relation_slice`` or
``model.encode_atom``), with no typed wrapper.  That memo holds the constant
loads too (the connective tensors and the true-row probe), each the one copy
built at import.  A relation of arity k has at most n^(k-1) slices, one per
bound prefix, so its slices in that memo never hold more than the 2 n^k
elements of its dense tensor.  Every node lowers through ``load`` and
``emit``, which is told the result shape that the node's branch knows.  The
dimension preconditions of every step are checked at compile time from the
model's domain size.  :func:`execute` therefore runs the steps directly on
the payloads' read-only ndarrays.  A plan contracts only operands of rank
at most 2, not both of rank 1, so each ``contract`` step is one
``ndarray.dot``, bitwise the plain branch of :func:`tensorlogic.tensor.contract`.
A quantifier step runs the set-vector check on its operand registers and
the decision kernel of :mod:`tensorlogic.sets` straight on the bool bits
that the check returns, and the verdict is read straight off the two floats
of the result register.

:func:`oracle_eval` is the independent referee: it evaluates the same bound
AST directly over the model's sets with classical connective semantics,
under an assignment of ``VAR`` below a quantifier, and never touches a
tensor.  :func:`equivalence_sweep` runs both paths over
generated instances and reports every disagreement and every instance whose
tensor path exceeds the element cap, dumping model/formula files for
disagreements when given an artifact directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import dsl
from .errors import (
    DimensionMismatchError,
    ElementCapError,
    FormulaDepthError,
    InvalidTruthValueError,
    PlanTooLargeError,
    TensorLogicError,
)
from .model import Model, TruthVec, _set_bits, encode_atom, truth_bot, truth_top
from .sets import _TRUE_ROW_PROBE, _nonempty, _operands, _subset
from .tensor import DEFAULT_ELEMENT_CAP, Tensor
from .truth import connective_tensor, predicate_tensor, relation_slice


class Instr(NamedTuple):
    """One plan step writing register ``dest``: an immutable tuple, so that
    a plan builds and :func:`execute` unpacks each step at tuple cost.

    ``load`` carries a tensor payload and a note naming what was loaded;
    the other ops read the registers in ``srcs``.
    """

    op: str  # "load" | "contract" | "columnwise" | "forall" | "exists"
    dest: int
    srcs: tuple[int, ...] = ()
    payload: Tensor | None = None
    note: str = ""


class ContractionPlan(NamedTuple):
    """Straight-line tensor program with a single truth-vector result."""

    steps: tuple[Instr, ...]
    result: int
    register_shapes: tuple[tuple[int, ...], ...]

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


def _constant(tensor: Tensor) -> Tensor:
    """The builder of a constant load: its tensor exists from import on."""
    return tensor


def _constant_load(note: str, tensor: Tensor) -> tuple:
    """The arguments of ``_PlanBuilder.load`` for a constant, size included."""
    return note, tensor.size, _constant, tensor


#: The constant loads of a plan: the connective tensor of each row of the
#: table, keyed by node, with negation's taken out ...
_CONNECTIVES = {
    row: _constant_load(f"conn:{row.name}", connective_tensor(row.name).tensor)
    for row in dsl.TABLE
}
_NOT = _CONNECTIVES.pop(dsl.Not)
#: ... and the probe that reads a quantifier operand's true row.
_PROBE = _constant_load("true-row-probe", _TRUE_ROW_PROBE)


#: Builds a plan or a step from a tuple of all its fields, skipping the
#: keyword handling of a ``NamedTuple``'s own constructor.
_new_tuple = tuple.__new__


class _PlanBuilder:
    def __init__(self, m: Model, cap: int):
        self.model = m
        self.cap = cap
        self.n = m.domain_size
        #: The model's memo of loaded tensors, read directly on a hit.
        self.memoised = m._tensors.get
        self.steps: list[Instr] = []
        self.shapes: list[tuple[int, ...]] = []

    def load(self, note: str, size: int, build: Callable[..., Tensor], *args) -> int:
        """Load the model's tensor named by ``note``, of ``size`` elements,
        built by ``build(*args)`` on first use: the one memo policy.

        The cap is compared first, so a tensor memoised under a larger cap is
        never handed to a plan compiled under a smaller one.  A tensor the
        model already holds is served by one lookup of its memo.  A model's
        extensions never change, so neither does a tensor built from them.
        Threads that race on a miss may each build, but ``dict.setdefault``
        keeps the first one stored and hands that same object to every plan.
        """
        if size > self.cap:
            PlanTooLargeError.check(note, size, self.cap)
        tensor = self.memoised(note)
        if tensor is None:
            tensor = self.model._tensors.setdefault(note, build(*args))
        shapes = self.shapes
        reg = len(shapes)
        shapes.append(tensor._array.shape)
        self.steps.append(_new_tuple(Instr, ("load", reg, (), tensor, note)))
        return reg

    def emit(self, op: str, srcs: tuple[int, ...], shape: tuple[int, ...]) -> int:
        shapes = self.shapes
        reg = len(shapes)
        shapes.append(shape)
        self.steps.append(_new_tuple(Instr, (op, reg, srcs, None, "")))
        return reg

    def expect(self, reg: int, shape: tuple[int, ...], what: str) -> int:
        """Register ``reg``, which must have ``shape``."""
        if self.shapes[reg] != shape:
            raise DimensionMismatchError(f"{what} has shape {self.shapes[reg]}, expected {shape}")
        return reg

    def apply(self, reg: int, arg: str | dsl._Variable) -> int:
        """Contract the (2, n) matrix ``reg`` with the one-hot vector of atom
        ``arg``, into a (2,) vector; an application to ``VAR`` keeps ``reg``."""
        if arg is dsl.VAR:
            return reg
        atom = self.load(f"atom:{arg}", self.n, encode_atom, self.model, arg)
        return self.emit("contract", (reg, atom), (2,))

    def lower_formula(self, f: dsl.Formula) -> int:
        """The register holding ``f``.  Each nesting level costs one frame,
        so an AST 700 deep lowers under the default recursion limit.  A
        negation contracts the swap matrix with its body, (2, 2)·(2, ...),
        which keeps the body's shape."""
        kind = type(f)
        if kind is dsl.Atom:
            pred = f.pred
            reg = self.load(f"pred:{pred}", 2 * self.n, predicate_tensor, self.model, pred)
            return self.apply(reg, f.arg)
        if kind is dsl.RelAtom:
            rel, args = f.rel, f.args
            bound = args[:-1]
            if dsl.VAR in bound:
                raise TensorLogicError(f"the open slot of {rel!r} must be its last argument")
            note = f"rel:{rel}({','.join(bound + ('_',))})"
            reg = self.load(note, 2 * self.n, relation_slice, self.model, rel, bound)
            return self.apply(reg, args[-1])
        if (connective := _CONNECTIVES.get(kind)) is not None:
            a, b = self.lower_formula(f.left), self.lower_formula(f.right)
            shape = self.shapes[a]
            self.expect(b, shape, "right operand of a connective")
            return self.emit("columnwise", (self.load(*connective), a, b), shape)
        if kind is dsl.Not:
            b = self.lower_formula(f.body)
            return self.emit("contract", (self.load(*_NOT), b), self.shapes[b])
        if kind is dsl.ForAll:
            x, y = self.lower_operand(f.subset), self.lower_operand(f.superset)
            return self.emit("forall", (x, y), (2,))
        if kind is dsl.Exists:
            return self.emit("exists", (self.lower_operand(f.body),), (2,))
        raise TypeError(f"not a formula node: {f!r}")

    def lower_operand(self, f: dsl.Formula) -> int:
        """The true row of a quantifier operand's (2, n) matrix, (2,)·(2, n)."""
        n = self.n
        matrix = self.expect(self.lower_formula(f), (2, n), "quantifier operand")
        return self.emit("contract", (self.load(*_PROBE), matrix), (n,))


def compile_formula(
    f: dsl.Formula, m: Model, *, cap: int = DEFAULT_ELEMENT_CAP
) -> ContractionPlan:
    """Compile a bound formula into a contraction plan over ``m``."""
    builder = _PlanBuilder(m, cap)
    try:
        result = builder.lower_formula(f)
    except RecursionError:
        raise FormulaDepthError("formula nests too deep to compile") from None
    builder.expect(result, (2,), "plan result register")
    return _new_tuple(ContractionPlan, (tuple(builder.steps), result, tuple(builder.shapes)))


#: A quantifier step's output, indexed by its decision: false, then true.
_VERDICTS = (truth_bot().to_tensor().array, truth_top().to_tensor().array)
#: The verdict of a crisp result register, keyed by the register's bytes so
#: that a ``-0.0`` entry, which ``==`` would not tell from ``0.0``, misses.
_CRISP = {v.to_tensor().array.tobytes(): v for v in (truth_bot(), truth_top())}


def execute(plan: ContractionPlan) -> TruthVec:
    """Run a plan's steps over a register file and return the truth vector.

    Registers hold plain ndarrays: the payloads' own read-only arrays, the
    fresh outputs of ``columnwise`` (two ``ndarray.dot`` calls on (2,) truth
    vectors, C's last index with the left operand and then the next with the
    right, and one einsum on (2, n) matrices) and of ``contract``
    (``ndarray.dot``, since a compiled plan contracts only operands of rank
    at most 2 and not both of rank 1), and a quantifier's read-only
    verdict.  Shapes were checked at compile time; a
    quantifier still checks that its operands are characteristic vectors,
    and decides on the bool bits of that check.  The result
    register's shape is ``(2,)``, so the verdict is read straight off its
    two floats: a crisp pair is the shared ``truth_top()`` or
    ``truth_bot()`` value, any other pair a new :class:`TruthVec` that must
    be normalized.
    """
    shapes = plan.register_shapes
    registers: list[np.ndarray | None] = [None] * len(shapes)
    for op, dest, srcs, payload, _ in plan.steps:
        match op:
            case "load":
                value = payload._array
            case "contract":
                a, b = srcs
                value = registers[a].dot(registers[b])
            case "columnwise":
                c, a, b = srcs
                left = registers[a]
                if left.ndim == 1:
                    value = registers[c].dot(left).dot(registers[b])
                else:
                    value = np.einsum("abc,c...,b...->a...", registers[c], left, registers[b])
            case "forall":
                a, b = srcs
                x, y = _operands("forall", _set_bits(registers[a]), _set_bits(registers[b]))
                value = _VERDICTS[_subset(x, y)]
            case "exists":
                value = _VERDICTS[_nonempty(_set_bits(registers[srcs[0]]))]
            case _:
                raise ValueError(f"unknown plan instruction {op!r}")
        registers[dest] = value
    result = registers[plan.result]
    verdict = _CRISP.get(result.tobytes())
    if verdict is None:
        verdict = TruthVec(*result.tolist())
        if not verdict.is_normalized:
            raise InvalidTruthValueError(f"{verdict} is not normalized")
    return verdict


def evaluate(f: dsl.Formula, m: Model, *, cap: int = DEFAULT_ELEMENT_CAP) -> TruthVec:
    """Compile and execute in one call."""
    return execute(compile_formula(f, m, cap=cap))


# ---------------------------------------------------------------------------
# Set-theoretic oracle: no tensors anywhere below this line.


def oracle_set_eval(f: dsl.Formula, m: Model) -> frozenset[int]:
    """The atom indices ``{x | f holds at x}`` of an open formula, computed directly."""
    try:
        return frozenset(x for x in range(m.domain_size) if _oracle_truth(f, m, x))
    except RecursionError:
        raise FormulaDepthError("formula nests too deep for the oracle") from None


def oracle_eval(f: dsl.Formula, m: Model) -> bool:
    """Classical truth value of a bound formula, straight off the model's sets;
    ``VAR`` outside every quantifier is a :class:`DimensionMismatchError`."""
    try:
        return _oracle_truth(f, m, None)
    except RecursionError:
        raise FormulaDepthError("formula nests too deep for the oracle") from None


def _assigned(x: int | None) -> int:
    """The atom index assigned to ``VAR``: ``x``, unless there is none."""
    if x is None:
        raise DimensionMismatchError("VAR is outside every quantifier")
    return x


def _oracle_truth(f: dsl.Formula, m: Model, x: int | None) -> bool:
    """Whether ``f`` holds with ``VAR`` assigned atom index ``x``.

    A connective evaluates both operands, so ``VAR`` outside every
    quantifier is refused wherever it sits.  Its connective branches are
    written out rather than read from the rows of :data:`dsl.BINARY`, from
    which the connective tensors are derived, so that the referee and the
    tensors share no source of error.
    """
    kind = type(f)
    if kind is dsl.Atom:
        arg = f.arg
        i = _assigned(x) if arg is dsl.VAR else m.atom_index(arg)
        return i in m.predicate_extension(f.pred)
    if kind is dsl.RelAtom:
        decl = m.relation_decl(f.rel)
        indices = [_assigned(x) if a is dsl.VAR else m.atom_index(a) for a in f.args]
        return tuple(indices) in decl.tuples
    if kind is dsl.And:
        return _oracle_truth(f.left, m, x) & _oracle_truth(f.right, m, x)
    if kind is dsl.Or:
        return _oracle_truth(f.left, m, x) | _oracle_truth(f.right, m, x)
    if kind is dsl.Implies:
        return (not _oracle_truth(f.left, m, x)) | _oracle_truth(f.right, m, x)
    if kind is dsl.Not:
        return not _oracle_truth(f.body, m, x)
    if kind is dsl.ForAll:
        subset, superset = f.subset, f.superset
        domain = range(m.domain_size)
        return all(_oracle_truth(superset, m, y) for y in domain if _oracle_truth(subset, m, y))
    if kind is dsl.Exists:
        body = f.body
        return any(_oracle_truth(body, m, y) for y in range(m.domain_size))
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# Equivalence sweep


@dataclass(frozen=True)
class SweepConfig:
    max_domain: int = 3
    max_depth: int = 3
    seed: int = 0
    count: int = 1000


#: The one encoder of records lines, a sweep's and every command's:
#: ``json.dumps`` builds a new encoder on every call that asks to sort keys.
RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


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
        return RECORD_ENCODER.encode(record)


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
