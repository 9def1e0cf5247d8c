"""Truth-functional calculus: predicates and relations as truth-valued tensors.

A predicate over a domain of size n becomes a 2 x n matrix whose column j is
the "true" basis vector when atom j satisfies the predicate and the "false"
basis vector otherwise; applying the predicate to a one-hot atom vector is a
single contraction.  An n-ary relation becomes a tensor of shape
(2, n, ..., n) holding one truth column per argument tuple.

Argument order convention: the rightmost domain index of a relation tensor
corresponds to the first argument of the relation.  Contraction consumes the
rightmost index, so feeding arguments in surface order (subject first) is
correct, and partially applied relations remain well-formed relational
tensors.  A relation is stored as its set of index tuples (see
:class:`~tensorlogic.model.RelationDecl`): :func:`build_relation` fills the
dense tensor at their flat positions, the one place that knows its layout,
and :func:`relation_slice` builds the (2, n) tensor that binding every
argument but the last leaves from n probes of the tuple set, without the
dense tensor.  Plans load that bare tensor and :func:`predicate_tensor`'s,
which :func:`build_predicate` wraps as a typed matrix.  One fill builds every
truth tensor, dense or sliced: the false row is one minus the true row, so
each column is a truth basis vector by construction.

Connectives are constant tensors over the truth space, one axis of size 2
per operand after the output's: negation, the table's unary row, is the 2 x 2
swap matrix, and each binary connective is a 2 x 2 x 2 tensor whose last
index is contracted first and thereby selects a 2 x 2 block with the
connective's left argument.  Every tensor is derived from its connective's
row of the table :data:`tensorlogic.dsl.TABLE` by one builder, not written
out: with truth index 0 for true and 1 for false, C[a, i_k, ..., i_1] is 1
exactly when a is the truth index of the row's ``holds`` at operands
(i_1 is true, ..., i_k is true), and 0 otherwise.  So the last index is the
first operand, and the first contraction, in :func:`connective_binary` and
in a plan's ``columnwise`` step alike, reads the left operand at it.  Each
column is therefore one truth basis vector and sums to 1, which makes all
connectives preserve normalized probabilistic truth vectors, not just crisp
ones.  On (2,) truth vectors a ``columnwise`` step is those same two
contractions, ``C.dot(left).dot(right)``; on (2, n) matrices it is the
einsum ``abc,c...,b...->a...`` over their columns.  :class:`Connective`
lists the rows by name, in the table's order.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass, fields
from itertools import chain

import numpy as np

from .dsl import TABLE
from .errors import (
    ArityError,
    DimensionMismatchError,
    ElementCapError,
    InvalidPredicateError,
    NonOneHotError,
    RankError,
    _count,
)
from .model import Model, TruthVec
from .tensor import DEFAULT_ELEMENT_CAP, FLOAT_TOL, Tensor, _snap01, contract

Mode = str  # "crisp" | "prob"


def _require_mode(mode: str) -> None:
    if mode not in ("crisp", "prob"):
        raise ValueError(f"mode must be 'crisp' or 'prob', got {mode!r}")


def _check_truth_columns(tensor: Tensor, what: str) -> None:
    """Every entry is 0 or 1, and the two truth slots of each column sum to 1."""
    arr = tensor.array
    if not (np.all((arr == 0.0) | (arr == 1.0)) and np.all(arr[0] + arr[1] == 1.0)):
        raise InvalidPredicateError(f"every {what} must be a truth basis vector")


@dataclass(frozen=True)
class PredicateMatrix:
    """Tensor of shape (2, n): column j is the truth vector of atom j.

    Row 0 plus row 1 is the all-ones vector; equivalently every column is
    exactly one of the two truth basis vectors.
    """

    tensor: Tensor
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if self.tensor.rank != 2 or self.tensor.shape[0] != 2:
            raise InvalidPredicateError(
                f"a predicate matrix has shape (2, n), got {self.tensor.shape}"
            )
        if validate:
            _check_truth_columns(self.tensor, "predicate matrix column")

    @property
    def domain_size(self) -> int:
        return self.tensor.shape[1]


@dataclass(frozen=True)
class RelationTensor:
    """Tensor of shape (2, n, ..., n) encoding an n-ary relation.

    For every fixed tuple of domain indices the two truth slots are 0/1 and
    sum to 1.  The rightmost domain index is the relation's first argument.
    """

    arity: int
    tensor: Tensor
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        shape = self.tensor.shape
        if self.arity < 2:
            raise ArityError(f"relation tensor arity must be >= 2, got {self.arity}")
        if len(shape) != self.arity + 1 or shape[0] != 2 or len(set(shape[1:])) > 1:
            raise InvalidPredicateError(
                f"an arity-{self.arity} relation tensor has shape (2, n, ..., n), got {shape}"
            )
        if validate:
            _check_truth_columns(self.tensor, "relation tensor truth column")

    @property
    def domain_size(self) -> int:
        return self.tensor.shape[1]


#: Each connective of the table, by its row's name, in the table's order.
Connective = enum.Enum(
    "Connective", [(row.name.upper(), row.name) for row in TABLE], module=__name__
)

#: The row of the table behind each connective.
ROWS = dict(zip(Connective, TABLE))


def _shape(kind: Connective) -> tuple[int, ...]:
    """A connective tensor's shape: one truth axis for the output and one
    per operand, a field of the row's node."""
    return (2,) * (len(fields(ROWS[kind])) + 1)


@dataclass(frozen=True)
class ConnectiveTensor:
    """A logical connective as a constant tensor over the truth space."""

    kind: Connective
    tensor: Tensor

    def __post_init__(self):
        shape = _shape(self.kind)
        if self.tensor.shape != shape:
            raise InvalidPredicateError(f"the {self.kind.value} tensor must have shape {shape}")
        if not np.all(self.tensor.array.reshape(2, -1).sum(axis=0) == 1.0):
            raise InvalidPredicateError("connective tensor columns must each sum to 1")


def _build_connective(kind: Connective) -> ConnectiveTensor:
    """C[a, i_k, ..., i_1] = 1 exactly when a is the truth index of the row's
    ``holds(i_1 is true, ..., i_k is true)``: truth index 0 is true, and the
    last index is the first operand."""
    shape, holds = _shape(kind), ROWS[kind].holds
    true_row = np.array(
        [holds(*(i == 0 for i in reversed(index))) for index in np.ndindex(shape[1:])], float
    ).reshape(shape[1:])
    return ConnectiveTensor(kind, Tensor(np.stack([true_row, 1.0 - true_row])))


CONNECTIVES: dict[Connective, ConnectiveTensor] = {
    kind: _build_connective(kind) for kind in Connective
}

#: Negation's tensor, the swap matrix.
NEGATION = CONNECTIVES[Connective.NOT]


def connective_tensor(kind: Connective | str) -> ConnectiveTensor:
    if isinstance(kind, str):
        try:
            kind = Connective(kind)
        except ValueError:
            raise ValueError(f"unknown connective {kind!r}") from None
    return CONNECTIVES[kind]


def _truth_tensor(shape: tuple[int, ...], true_indices) -> Tensor:
    """The (2, *shape) truth tensor that is true exactly at the flat indices
    ``true_indices`` of ``shape`` and false everywhere else."""
    arr = np.zeros((2,) + shape)
    arr[0].put(true_indices, 1.0)
    np.subtract(1.0, arr[0], out=arr[1])
    return Tensor._wrap(arr)


def predicate_tensor(m: Model, name: str) -> Tensor:
    """The (2, n) truth tensor of a declared predicate: column i is true iff
    atom i is in the predicate's extension."""
    return _truth_tensor((m.domain_size,), list(m.predicate_extension(name)))


def build_predicate(m: Model, name: str) -> PredicateMatrix:
    """Predicate matrix for a declared predicate: :func:`predicate_tensor`."""
    return PredicateMatrix(predicate_tensor(m, name), validate=False)


def build_relation(
    m: Model, name: str, *, cap: int = DEFAULT_ELEMENT_CAP
) -> RelationTensor | PredicateMatrix:
    """Relation tensor for a declared relation.

    A tuple (t1, ..., tn) sets the "true" slot at domain indices
    (tn, ..., t1): reversed, so that contraction consumes arguments
    subject-first.  An arity-1 declaration yields a predicate matrix, the
    shape an arity-2 relation reaches after one partial application.  A
    tensor with more axes than numpy allows (32 in numpy 1, 64 in numpy 2)
    is a :class:`RankError`, whatever its element count.
    """
    decl = m.relation_decl(name)
    n, k = m.domain_size, decl.arity
    ElementCapError.check(name, 2 * n**k, cap)
    # Tuple (t1, ..., tk) is true at flat position t1 + t2*n + ... + tk*n**(k-1).
    tuples = np.fromiter(chain.from_iterable(decl.tuples), np.intp).reshape(-1, k)
    try:
        tensor = _truth_tensor((n,) * k, tuples @ n ** np.arange(k))
    except ValueError:
        raise RankError(f"{name} needs a tensor of {k + 1} axes, more than numpy allows") from None
    if k == 1:
        return PredicateMatrix(tensor, validate=False)
    return RelationTensor(k, tensor, validate=False)


def relation_slice(m: Model, name: str, bound: tuple[str, ...]) -> Tensor:
    """The (2, n) truth tensor of a relation with every argument but the last
    bound.

    ``bound`` names the first arity - 1 arguments, first argument first, and
    column j is the truth of the relation at ``bound`` followed by atom j.
    The argument order is that of :func:`build_relation`: its tensor holds
    tuple (t1, ..., tk) at domain indices (tk, ..., t1), so contracting it
    with the one-hot vectors of t1, ..., t(k-1) in that order leaves the
    index of tk.  The result is therefore bitwise
    ``partial_apply(build_relation(m, name), one-hots of bound).tensor``,
    built in 2n elements rather than 2n^k: column j is true when ``bound``
    followed by j is a stored tuple, n probes of the tuple set.
    """
    decl = m.relation_decl(name)
    if len(bound) != decl.arity - 1:
        raise ArityError(
            f"a slice of {name!r} (arity {decl.arity}) binds "
            f"{_count(decl.arity - 1, 'argument')}, got {len(bound)}"
        )
    prefix, n = tuple(map(m.atom_index, bound)), m.domain_size
    true_columns = [j for j in range(n) if prefix + (j,) in decl.tuples]
    return _truth_tensor((n,), true_columns)


def _check_argument(arg: Tensor, domain_size: int, mode: Mode) -> tuple[Tensor, bool]:
    """Validate a domain-space argument; returns the argument to contract,
    and True when the result must be flagged as extrapolated (prob mode,
    outside the one-hot convex hull).  A crisp argument is contracted as the
    exact one-hot its 0/1 check reads, so noise within ``FLOAT_TOL`` of
    either sign leaves a crisp result; a prob argument as it is."""
    if arg.rank != 1 or arg.shape[0] != domain_size:
        raise DimensionMismatchError(
            f"argument must be a vector of length {domain_size}, got shape {arg.shape}"
        )
    values = arg.array
    if mode == "crisp":
        bits = _snap01(values)
        if bits is None or bits.sum() != 1:
            raise NonOneHotError(f"crisp application requires a one-hot argument, got {values.tolist()}")
        return Tensor._wrap(bits.astype(np.float64)), False
    convex = bool(np.all(values >= -FLOAT_TOL) and abs(values.sum() - 1.0) <= FLOAT_TOL)
    return arg, not convex


def apply_predicate(p: PredicateMatrix, arg: Tensor, mode: Mode = "crisp") -> TruthVec:
    """Truth value of the predicate at a one-hot atom vector.

    In "prob" mode the argument may be any convex combination of one-hot
    vectors; anything else is still computed by linearity but the result is
    flagged extrapolated.
    """
    _require_mode(mode)
    arg, extrapolated = _check_argument(arg, p.domain_size, mode)
    out = contract(p.tensor, arg)
    return TruthVec.from_tensor(out, check=not extrapolated, extrapolated=extrapolated)


def apply_relation(r: RelationTensor, args: list[Tensor], mode: Mode = "crisp") -> TruthVec:
    """Truth value of the relation at a full argument tuple, first argument
    first."""
    _require_mode(mode)
    if len(args) != r.arity:
        raise ArityError(f"relation of arity {r.arity} applied to {len(args)} arguments")
    extrapolated = False
    out = r.tensor
    for arg in args:
        arg, flagged = _check_argument(arg, r.domain_size, mode)
        extrapolated |= flagged
        out = contract(out, arg)
    return TruthVec.from_tensor(out, check=not extrapolated, extrapolated=extrapolated)


def partial_apply(
    r: RelationTensor, prefix_args: list[Tensor], mode: Mode = "crisp"
) -> RelationTensor | PredicateMatrix:
    """Contract a relation with a proper prefix of its arguments.

    Binding the first k of n arguments leaves an arity-(n-k) relational
    tensor; with one open slot left the result is a predicate matrix.  Crisp
    arguments are checked and contracted as exact one-hots, so a crisp
    output inherits validity from the relation and is not checked again.  A
    mixed "prob" argument leaves columns off the truth basis, so a prob
    output is validated: such a result raises :class:`InvalidPredicateError`.
    """
    _require_mode(mode)
    if len(prefix_args) >= r.arity:
        raise ArityError(
            f"partial application needs fewer than {r.arity} arguments, got {len(prefix_args)}"
        )
    out = r.tensor
    for arg in prefix_args:
        out = contract(out, _check_argument(arg, r.domain_size, mode)[0])
    remaining = r.arity - len(prefix_args)
    if remaining == 1:
        return PredicateMatrix(out, validate=mode == "prob")
    return RelationTensor(remaining, out, validate=mode == "prob")


def connective_not(v: TruthVec) -> TruthVec:
    """Negation: contraction with the swap matrix."""
    out = contract(NEGATION.tensor, v.to_tensor())
    return TruthVec.from_tensor(out, check=False, extrapolated=v.extrapolated)


def connective_binary(kind: Connective | str, a: TruthVec, b: TruthVec) -> TruthVec:
    """Binary connective applied as two contractions, first argument first.

    For implication the first argument is the antecedent.  On crisp inputs
    this reproduces the classical truth tables; on normalized probabilistic
    inputs the output stays normalized.
    """
    conn = connective_tensor(kind)
    if conn.kind is Connective.NOT:
        raise ValueError("negation is unary; use connective_not")
    out = contract(contract(conn.tensor, a.to_tensor()), b.to_tensor())
    return TruthVec.from_tensor(out, check=False, extrapolated=a.extrapolated or b.extrapolated)
