"""Set-valued calculus: predicates as diagonal maps, plus quantifiers.

Instead of collapsing to a truth value on application, a predicate here is a
diagonal 0/1 matrix over the domain space that maps a characteristic vector
to the characteristic vector of the filtered subset (the intersection with
the predicate's extension).  Replacing a bound variable with the all-ones
vector turns such a matrix back into the plain characteristic vector of its
extension, which is what the quantifiers consume.  Compiled plans keep a set
expression as a truth-style (2, n) matrix, intersected and united by the
``and``/``or`` connective tensors, and hand a quantifier its true row: the
diagonal times the all-ones vector.

``forall`` and ``exists`` are decision procedures over characteristic
vectors, not multilinear maps: scaling a zero vector changes nothing about
the decision, so no tensor can represent them.  Each is one kernel on 0/1
arrays, ``_subset`` or ``_nonempty``, run by :func:`forall`/:func:`exists`
on a :class:`SetVector`'s float64 0/1 array and by a compiled plan's
quantifier steps on the bool bits that the set-vector check returns: the
same decision on either dtype.  :func:`nonlinearity_witness_forall`
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

from .errors import DimensionMismatchError, InvalidPredicateError
from .model import Model, TruthVec, _set_bits, truth_bot, truth_top
from .tensor import FLOAT_TOL, Tensor, contract, diag_build, ones
from .truth import PredicateMatrix, _truth_tensor


@dataclass(frozen=True)
class SetVector:
    """A 0/1 characteristic vector over the domain space.

    Entries within ``FLOAT_TOL`` of 0 or 1 are snapped to exact values at
    construction by the one set-vector check, ``model._set_bits``, so
    downstream set comparisons are exact integer comparisons.  Its bool
    bits are stored cast to float64, the dtype of every :class:`Tensor`.
    Anything else, NaN included, is rejected: quantifiers have no defined
    semantics off the 0/1 grid.
    """

    tensor: Tensor

    def __post_init__(self):
        if self.tensor.rank != 1:
            raise DimensionMismatchError(f"a set vector has rank 1, got {self.tensor.shape}")
        bits = _set_bits(self.tensor.array).astype(np.float64)
        object.__setattr__(self, "tensor", Tensor._wrap(bits))

    @property
    def domain_size(self) -> int:
        return self.tensor.shape[0]


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
    diag = np.zeros(m.domain_size)
    diag.put(list(m.predicate_extension(name)), 1.0)
    return SetPredicateMatrix(diag_build(Tensor._wrap(diag)), validate=False)


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


def _operands(op: str, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x`` and ``y``, the arrays of two set vectors, which ``op`` needs of
    equal length."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"{op} requires equal lengths, got {len(x)} and {len(y)}")
    return x, y


def _subset(x: np.ndarray, y: np.ndarray) -> bool:
    """The subset decision on snapped 0/1 arrays, float64 or bool: no entry
    is 1 in ``x`` and 0 in ``y``.  Exact, since both arrays hold only exact
    0s and 1s."""
    return not (x > y).any()


def _nonempty(x: np.ndarray) -> bool:
    """The nonemptiness decision on a snapped 0/1 array: some entry is 1."""
    return bool(x.any())


def forall(x: SetVector, y: SetVector) -> TruthVec:
    """True iff x is a subset of y.

    Models statements of the form "all Xs are Ys".  A thin wrapper over
    ``_subset``, the decision a compiled plan's ``forall`` step runs too.
    """
    decided = _subset(*_operands("forall", x.tensor.array, y.tensor.array))
    return truth_top() if decided else truth_bot()


def exists(x: SetVector) -> TruthVec:
    """True iff the represented subset is nonempty; a thin wrapper over
    ``_nonempty``, the decision a compiled plan's ``exists`` step runs too."""
    return truth_top() if _nonempty(x.tensor.array) else truth_bot()


#: Covector selecting the true-row of a truth-style predicate matrix.
_TRUE_ROW_PROBE = Tensor([1.0, 0.0])


def convert_truth_to_set(p: PredicateMatrix) -> SetPredicateMatrix:
    """Set-style matrix from a truth-style one: true-row onto the diagonal."""
    true_row = contract(_TRUE_ROW_PROBE, p.tensor)
    return SetPredicateMatrix(diag_build(true_row), validate=False)


def convert_set_to_truth(p: SetPredicateMatrix) -> PredicateMatrix:
    """Truth-style matrix from a set-style one: row 0 is the diagonal, row 1
    its pointwise complement."""
    true_columns = np.flatnonzero(np.diagonal(p.tensor.array))
    return PredicateMatrix(_truth_tensor((p.domain_size,), true_columns), validate=False)


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
