"""Set-valued calculus: predicates as diagonal maps, plus quantifiers.

Instead of collapsing to a truth value on application, a predicate here is a
diagonal 0/1 matrix over the domain space that maps a characteristic vector
to the characteristic vector of the filtered subset (the intersection with
the predicate's extension).  Replacing a bound variable with the all-ones
vector turns such a matrix back into the plain characteristic vector of its
extension, which is what the quantifiers consume.

``forall`` and ``exists`` are decision procedures over characteristic
vectors, not multilinear maps: scaling a zero vector changes nothing about
the decision, so no tensor can represent them.  :func:`nonlinearity_witness_forall`
and :func:`nonlinearity_witness_exists` reproduce that argument numerically.

The two predicate formulations carry the same information.  Selecting the
true-row of a truth-style predicate matrix and placing it on a diagonal gives
the set-style matrix; the diagonal, together with its pointwise complement,
rebuilds the truth-style matrix.  :func:`convert_truth_to_set` and
:func:`convert_set_to_truth` implement the two directions.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidPredicateError,
    NonCharacteristicError,
)
from .model import Model, TruthVec, decode_set, truth_bot, truth_top
from .tensor import (
    FLOAT_TOL,
    Tensor,
    contract,
    diag_build,
    diag_extract,
    elementwise_max,
    elementwise_min,
    ones,
)
from .truth import PredicateMatrix


@dataclass(frozen=True)
class SetVector:
    """A 0/1 characteristic vector over the domain space.

    Entries within ``FLOAT_TOL`` of 0 or 1 are snapped to exact values at
    construction, so downstream set comparisons are exact integer
    comparisons.  Anything else is rejected: quantifiers have no defined
    semantics off the 0/1 grid.
    """

    tensor: Tensor

    def __post_init__(self):
        if self.tensor.rank != 1:
            raise DimensionMismatchError(f"a set vector has rank 1, got {self.tensor.shape}")
        arr = self.tensor.array
        near_one = np.abs(arr - 1.0) <= FLOAT_TOL
        near_zero = np.abs(arr) <= FLOAT_TOL
        if not np.all(near_one | near_zero):
            raise NonCharacteristicError(
                f"set vector entries must be 0 or 1, got {arr.tolist()}"
            )
        object.__setattr__(self, "tensor", Tensor._wrap(np.where(near_one, 1.0, 0.0)))

    @property
    def domain_size(self) -> int:
        return self.tensor.shape[0]

    def decode(self, m: Model) -> frozenset[str]:
        return decode_set(m, self.tensor)


@dataclass(frozen=True)
class SetPredicateMatrix:
    """Diagonal 0/1 matrix computing X -> X intersected with the extension."""

    tensor: Tensor
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        shape = self.tensor.shape
        if self.tensor.rank != 2 or shape[0] != shape[1]:
            raise InvalidPredicateError(f"a set-predicate matrix is square, got {shape}")
        if validate:
            arr = self.tensor.array
            diag = np.diagonal(arr)
            ok = np.all((diag == 0.0) | (diag == 1.0)) and np.all(arr == np.diag(diag))
            if not ok:
                raise InvalidPredicateError(
                    "a set-predicate matrix must be diagonal with 0/1 entries"
                )

    @property
    def domain_size(self) -> int:
        return self.tensor.shape[0]


def build_set_predicate(m: Model, name: str) -> SetPredicateMatrix:
    """Diagonal predicate matrix for a declared predicate."""
    extension = m.predicate_extension(name)
    diag = np.zeros(m.domain_size)
    for i in extension:
        diag[i] = 1.0
    return SetPredicateMatrix(Tensor._wrap(np.diag(diag)), validate=False)


def apply_set_predicate(p: SetPredicateMatrix, x: SetVector) -> SetVector:
    """Filter a subset through the predicate: one contraction, equal to the
    intersection with the predicate's extension."""
    if p.domain_size != x.domain_size:
        raise DimensionMismatchError(
            f"matrix over domain {p.domain_size} applied to vector of length {x.domain_size}"
        )
    return SetVector(contract(p.tensor, x.tensor))


def predicate_vector(p: SetPredicateMatrix) -> SetVector:
    """Characteristic vector of the predicate's extension.

    Contracting with the all-ones vector stands in for the bound variable and
    extracts the diagonal.
    """
    return SetVector(contract(p.tensor, ones(p.domain_size)))


def intersect(a: SetVector, b: SetVector) -> SetVector:
    """Set intersection as pointwise minimum."""
    return SetVector(elementwise_min(a.tensor, b.tensor))


def union(a: SetVector, b: SetVector) -> SetVector:
    """Set union as pointwise maximum."""
    return SetVector(elementwise_max(a.tensor, b.tensor))


def forall(x: SetVector, y: SetVector) -> TruthVec:
    """True iff x is a subset of y, i.e. x equals min(x, y) exactly.

    Models statements of the form "all Xs are Ys".  SetVector construction
    already snapped entries to exact 0/1, so the comparison needs no
    tolerance.
    """
    if x.domain_size != y.domain_size:
        raise DimensionMismatchError(
            f"forall requires equal lengths, got {x.domain_size} and {y.domain_size}"
        )
    if elementwise_min(x.tensor, y.tensor) == x.tensor:
        return truth_top()
    return truth_bot()


def exists(x: SetVector) -> TruthVec:
    """True iff the represented subset is nonempty (any entry positive)."""
    if np.any(x.tensor.array > 0.0):
        return truth_top()
    return truth_bot()


#: Covector selecting the true-row of a truth-style predicate matrix.
_TRUE_ROW_PROBE = Tensor([1.0, 0.0])


def convert_truth_to_set(p: PredicateMatrix) -> SetPredicateMatrix:
    """Set-style matrix from a truth-style one: true-row onto the diagonal."""
    true_row = contract(_TRUE_ROW_PROBE, p.tensor)
    return SetPredicateMatrix(diag_build(true_row), validate=False)


def convert_set_to_truth(p: SetPredicateMatrix) -> PredicateMatrix:
    """Truth-style matrix from a set-style one: row 0 is the diagonal, row 1
    its pointwise complement."""
    diag = diag_extract(p.tensor).array
    return PredicateMatrix(Tensor(np.stack([diag, 1.0 - diag])), validate=False)


@dataclass(frozen=True)
class NonlinearityWitness:
    """Numerical record showing a quantifier is not a multilinear map.

    A multilinear map must scale with each argument; the quantifiers are
    scale-invariant on zero vectors, so the scaled-output equation fails for
    any scale factors whose product is not 1.
    """

    quantifier: str
    scales: tuple[float, ...]
    output: TruthVec
    scaled_output: tuple[float, float]
    multilinearity_holds: bool

    def lines(self) -> list[str]:
        args = ", ".join(f"{a:g}*0" for a in self.scales)
        product = float(np.prod(self.scales))
        scaled = f"[{self.scaled_output[0]:g}, {self.scaled_output[1]:g}]"
        out = [
            f"{self.quantifier}({args}) = {self.output}",
            f"required by multilinearity: {product:g}*{self.output} = {scaled}",
        ]
        if self.multilinearity_holds:
            out.append("multilinearity holds for these scales")
        else:
            out.append(f"multilinearity fails: {self.output} != {scaled}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _witness(quantifier: str, output: TruthVec, scales: tuple[float, ...]) -> NonlinearityWitness:
    product = float(np.prod(scales))
    scaled = (product * output.t, product * output.f)
    holds = abs(scaled[0] - output.t) <= FLOAT_TOL and abs(scaled[1] - output.f) <= FLOAT_TOL
    return NonlinearityWitness(quantifier, scales, output, scaled, holds)


def nonlinearity_witness_forall(
    alpha: float = 2.0, beta: float = 2.0, dim: int = 3
) -> NonlinearityWitness:
    """Scale two empty-set vectors by alpha and beta: the subset test still
    answers true, but a multilinear map would have to answer alpha*beta times
    true."""
    x = SetVector(Tensor(np.zeros(dim)).scaled(alpha))
    y = SetVector(Tensor(np.zeros(dim)).scaled(beta))
    return _witness("forall", forall(x, y), (alpha, beta))


def nonlinearity_witness_exists(alpha: float = 2.0, dim: int = 3) -> NonlinearityWitness:
    """Scale an empty-set vector by alpha: the nonemptiness test still answers
    false, but a multilinear map would have to scale that answer by alpha."""
    x = SetVector(Tensor(np.zeros(dim)).scaled(alpha))
    return _witness("exists", exists(x), (alpha,))
