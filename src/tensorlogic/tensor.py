"""Dense tensors and the contraction operation used as function application.

A :class:`Tensor` is an immutable dense array of real scalars with rank >= 1.
Rank 0 never occurs: a full scalar reduction returns a rank-1 tensor of
dimension 1 (the "scalar carrier"), so every operation closes over tensors.

Contraction joins exactly one index pair: the rightmost index of the left
operand with the leftmost index of the right operand.  No other pairing is
offered.  Storage is row-major and dense; constructions above
``DEFAULT_ELEMENT_CAP`` elements are rejected outright rather than spilling
to a sparse or chunked representation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    ElementCapError,
    RankError,
)

DEFAULT_ELEMENT_CAP = 10_000_000

#: Absolute tolerance for float comparisons.  Model-derived tensors hold exact
#: 0/1 values stored as floats, so this only guards accumulated float error on
#: the probabilistic path.
FLOAT_TOL = 1e-12


def _snap01(arr: np.ndarray) -> np.ndarray | None:
    """The bool bits of ``arr``, each entry within ``FLOAT_TOL`` of 0 or 1
    read as that bit, or ``None`` if any entry is neither: the one tolerant
    check of the 0/1 invariant on arrays.

    The check is one reduction, the largest distance of an entry from its
    bit.  NaN propagates through ``maximum`` and fails the comparison, and
    an infinite entry is an infinite distance, so both are refused.
    ``initial=0.0`` gives an empty array a largest distance of 0, so it is
    the empty set.  A caller that needs floats casts the bits itself.
    """
    bits = arr > 0.5
    if not np.maximum.reduce(np.abs(arr - bits), axis=None, initial=0.0) <= FLOAT_TOL:
        return None
    return bits


class Tensor:
    """Immutable dense rank-k array of float64 scalars, k >= 1.

    Index 0 is the leftmost (outermost) index, index k-1 the rightmost.
    The wrapped array is made read-only at construction; all operations
    return new tensors.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        arr = np.asarray(values)
        # An array input is not copied until the cap has been checked.
        ElementCapError.check("Tensor construction", arr.size, DEFAULT_ELEMENT_CAP)
        arr = np.array(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise RankError("rank-0 tensors are not representable; wrap scalars in shape (1,)")
        if any(dim < 1 for dim in arr.shape):
            raise DimensionMismatchError(f"shape entries must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        """Freeze and wrap a float64 array this package built, without a copy.

        The caller vouches for rank, shape and size, and keeps no writable
        reference to ``arr``.
        """
        arr.setflags(write=False)
        tensor = cls.__new__(cls)
        tensor._array = arr
        return tensor

    @property
    def array(self) -> np.ndarray:
        """The wrapped read-only ndarray."""
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def rank(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    def item(self) -> float:
        """The sole entry of a dimension-1 rank-1 tensor (the scalar carrier)."""
        if self.shape != (1,):
            raise RankError(f"item() requires shape (1,), got {self.shape}")
        return float(self._array[0])

    def tolist(self) -> list:
        return self._array.tolist()

    def scaled(self, factor: float) -> "Tensor":
        return Tensor(self._array * factor)

    def __getitem__(self, index):
        return self._array[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._array, other._array))

    def __hash__(self) -> int:
        # ``+ 0.0`` maps -0.0 to 0.0, which ``==`` does not tell apart.
        return hash((self.shape, (self._array + 0.0).tobytes()))

    def allclose(self, other: "Tensor", tol: float = FLOAT_TOL) -> bool:
        """Entrywise comparison within absolute tolerance ``tol``."""
        return self.shape == other.shape and bool(
            np.allclose(self._array, other._array, rtol=0.0, atol=tol)
        )

    def __repr__(self) -> str:
        return f"Tensor({self._array.tolist()!r})"


def ones(n: int) -> Tensor:
    if n < 1:
        raise DimensionMismatchError(f"shape entries must be >= 1, got {(n,)}")
    ElementCapError.check("Tensor construction", n, DEFAULT_ELEMENT_CAP)
    return Tensor._wrap(np.ones(n))


def one_hot(index: int, size: int) -> Tensor:
    if not 0 <= index < size:
        raise DimensionMismatchError(f"one-hot index {index} out of range for size {size}")
    if size > DEFAULT_ELEMENT_CAP:
        ElementCapError.check("Tensor construction", size, DEFAULT_ELEMENT_CAP)
    v = np.zeros(size)
    v[index] = 1.0
    return Tensor._wrap(v)


def _contract_arrays(left: np.ndarray, right: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The kernel of :func:`contract`: ``left``'s rightmost index with
    ``right``'s leftmost, into the result's ``shape``, which the caller
    already knows.

    When both operands have rank at most 2, and not both rank 1, this is
    ``left.dot(right)`` as it stands, the product a plan's ``contract`` step
    computes itself.  Every other pair is one ``.dot`` of the ``(-1, k)``
    and ``(k, -1)`` reshapes, reshaped to ``shape``.  The plain branch
    stops at rank 2 because only there is the product bitwise equal to
    ``np.tensordot``: on rank 3 and 4 operands it sums in another order and
    differs in the last bits.  The array method runs the same C routine as
    ``np.dot`` without its ``__array_function__`` dispatch, a fixed cost
    that is a large share of a product of plan size.
    """
    if left.ndim + right.ndim > 2 and left.ndim <= 2 and right.ndim <= 2:
        return left.dot(right)
    k = right.shape[0]
    return left.reshape(-1, k).dot(right.reshape(k, -1)).reshape(shape)


def contract(left: Tensor, right: Tensor) -> Tensor:
    """Contract the rightmost index of ``left`` with the leftmost of ``right``.

    For ranks k and m the result has rank k + m - 2:

        result[i..., j...] = sum_s left[i..., s] * right[s, j...]

    When both operands are rank 1 the reduction would be rank 0; the scalar is
    returned as a rank-1 tensor of dimension 1 instead.  The element cap is
    checked on the result's shape before anything is computed.
    """
    k_dim = left.shape[-1]
    m_dim = right.shape[0]
    if k_dim != m_dim:
        raise DimensionMismatchError(
            f"cannot contract: left rightmost dimension {k_dim} != right leftmost dimension {m_dim}"
        )
    shape = left.shape[:-1] + right.shape[1:] or (1,)
    ElementCapError.check("Tensor construction", math.prod(shape), DEFAULT_ELEMENT_CAP)
    return Tensor._wrap(_contract_arrays(left.array, right.array, shape))


def diag_build(v: Tensor) -> Tensor:
    """Square rank-2 tensor with ``v`` on the diagonal, zeros elsewhere."""
    if v.rank != 1:
        raise RankError(f"diag_build requires rank 1, got rank {v.rank}")
    ElementCapError.check("Tensor construction", v.size * v.size, DEFAULT_ELEMENT_CAP)
    return Tensor._wrap(np.diag(v.array))
