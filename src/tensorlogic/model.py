"""Finite logical structures and their vector encodings.

A :class:`Model` fixes an ordered domain of named atoms plus predicate and
relation extensions.  The declaration order of atoms induces the basis order
of the domain vector space: atom ``i`` maps to the ``i``-th standard basis
vector, and subsets of the domain map to 0/1 characteristic vectors.  All
tensor indices downstream inherit this ordering.  :meth:`Model.from_names` is
the one constructor and the one check: it resolves every name to its index
and rejects a malformed model before anything is stored.  A relation is
stored once, as its extension: the set of its index tuples in
:class:`RelationDecl`, which dense builds, slices and the oracle all read.

Truth values live in a separate 2-dimensional space with basis "true" /
"false".  :class:`TruthVec` is deliberately a distinct type from
:class:`~tensorlogic.tensor.Tensor` even though it lowers to a 2-vector;
conversions are always explicit so domain-space and truth-space vectors
cannot be mixed by accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    ArityError,
    DimensionMismatchError,
    DuplicateNameError,
    InvalidTruthValueError,
    NonCharacteristicError,
    UnknownAtomError,
    UnknownPredicateError,
    UnknownRelationError,
)
from .tensor import FLOAT_TOL, Tensor, _snap01, one_hot


@dataclass(frozen=True)
class RelationDecl:
    """An n-ary relation extension stored as index tuples, first argument
    first."""

    arity: int
    tuples: frozenset[tuple[int, ...]]


@dataclass(frozen=True, init=False)
class Model:
    """Immutable finite structure: atoms, predicate sets, relation tuple sets.

    Extensions are stored by atom index.  :meth:`from_names` is the one
    constructor and runs every check once; calling ``Model(...)`` directly
    raises ``TypeError``, so no model skips them.
    """

    #: Atom names in domain order: atom ``i`` is the ``i``-th basis vector.
    atom_names: tuple[str, ...]
    predicates: dict[str, frozenset[int]]
    relations: dict[str, RelationDecl]
    #: Each atom name's index in ``atom_names``.
    _index: dict[str, int] = field(compare=False, repr=False)
    #: Tensors that plans load, keyed by load note; see :meth:`_memo_tensor`.
    _tensors: dict[str, Tensor] = field(compare=False, repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Model with Model.from_names")

    @classmethod
    def from_names(
        cls,
        atom_names: Iterable[str],
        predicates: Mapping[str, Iterable[str]] | None = None,
        relations: Mapping[str, tuple[int, Iterable[tuple[str, ...]]]] | None = None,
    ) -> "Model":
        """Build a model from name-based extensions.

        ``relations`` maps each relation name to ``(arity, tuples)`` where
        tuples contain atom names.  Names are resolved first, so an unknown
        atom is reported before any other fault; then come an empty domain,
        duplicate atoms, symbol clashes, and relation arities and tuple
        lengths.  Every stored index comes from the name-to-index dict, so
        each one is in range by construction.
        """
        names = tuple(atom_names)
        index = {name: i for i, name in enumerate(names)}
        resolve = index.__getitem__
        preds = {}
        for p, ext in (predicates or {}).items():
            try:
                preds[p] = frozenset(map(resolve, ext))
            except KeyError as err:
                raise UnknownAtomError(err.args[0], f"in predicate {p!r}") from None
        # Each relation's names are resolved flat and zipped back into
        # arity-tuples; a set zipped from tuples of another length, or at an
        # arity below 1, is refused below and never stored.
        resolved = {}
        for r, (arity, tuples) in (relations or {}).items():
            tuples = list(tuples)
            indices = map(resolve, chain.from_iterable(tuples))
            try:
                resolved[r] = arity, tuples, frozenset(zip(*[indices] * max(arity, 1)))
            except KeyError as err:
                raise UnknownAtomError(err.args[0], f"in relation {r!r}") from None
        if not names:
            raise DimensionMismatchError("a model needs at least one domain atom")
        if len(index) != len(names):
            raise DuplicateNameError(f"duplicate atom names in {list(names)}")
        seen = set(index)
        for name in [*preds, *resolved]:
            if name in seen:
                raise DuplicateNameError(f"symbol name {name!r} is already declared")
            seen.add(name)
        rels = {}
        for name, (arity, tuples, index_tuples) in resolved.items():
            if arity < 1:
                raise ArityError(f"relation {name!r} declared with arity {arity}")
            if set(map(len, tuples)) - {arity}:
                tup = next(tup for tup in tuples if len(tup) != arity)
                raise ArityError(
                    f"tuple {tuple(tup)} in relation {name!r} "
                    f"has length {len(tup)}, declared arity is {arity}"
                )
            rels[name] = RelationDecl(arity, index_tuples)
        model = object.__new__(cls)
        # ``__init__`` refuses every call, so the frozen fields are set directly.
        vars(model).update(
            atom_names=names, predicates=preds, relations=rels, _index=index, _tensors={}
        )
        return model

    @property
    def domain_size(self) -> int:
        return len(self.atom_names)

    def atom_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAtomError(name) from None

    def predicate_extension(self, name: str) -> frozenset[int]:
        try:
            return self.predicates[name]
        except KeyError:
            raise UnknownPredicateError(name) from None

    def relation_decl(self, name: str) -> RelationDecl:
        try:
            return self.relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def _memo_tensor(self, key: str, build: Callable[..., Tensor], *args) -> Tensor:
        """The tensor stored under ``key``, built by ``build(*args)`` on first use.

        A model's extensions never change, so neither does a tensor built
        from them.  Threads that race on a miss may each build, but
        ``dict.setdefault`` keeps the first one stored and hands that same
        object to every caller.
        """
        tensor = self._tensors.get(key)
        if tensor is None:
            tensor = self._tensors.setdefault(key, build(*args))
        return tensor


def encode_atom(m: Model, name: str) -> Tensor:
    """One-hot domain vector for a declared atom."""
    return one_hot(m.atom_index(name), m.domain_size)


def encode_set(m: Model, atom_names: Iterable[str]) -> Tensor:
    """0/1 characteristic vector of a set of declared atoms."""
    v = np.zeros(m.domain_size)
    for name in atom_names:
        v[m.atom_index(name)] = 1.0
    return Tensor._wrap(v)


def _set_bits(arr: np.ndarray) -> np.ndarray:
    """``arr`` snapped to exact 0/1 by the one snap in :mod:`tensorlogic.tensor`,
    or :class:`NonCharacteristicError` if it does not denote a set: the one
    check of the 0/1 invariant of a set vector."""
    bits = _snap01(arr)
    if bits is None:
        raise NonCharacteristicError(f"set vector entries must be 0 or 1, got {arr.tolist()}")
    return bits


def decode_set(m: Model, v: Tensor) -> frozenset[str]:
    """The subset of the domain represented by a characteristic vector.

    Entries must be 0 or 1 within ``FLOAT_TOL``, as decided by the one snap
    in :mod:`tensorlogic.tensor`; anything else, NaN included, means the
    vector does not denote a set and is rejected.
    """
    if v.rank != 1 or v.shape[0] != m.domain_size:
        raise DimensionMismatchError(
            f"expected a vector of length {m.domain_size}, got shape {v.shape}"
        )
    return frozenset(compress(m.atom_names, _set_bits(v.array).tolist()))


@dataclass(frozen=True)
class TruthVec:
    """A vector in the 2-dimensional truth space.

    ``t`` weights the "true" basis vector, ``f`` the "false" one.  Crisp
    values are exactly (1, 0) or (0, 1); probabilistic values are any
    non-negative pair summing to 1.  ``extrapolated`` marks results computed
    by linear extension outside the convex hull of one-hot arguments; it is
    informational and excluded from equality.
    """

    t: float
    f: float
    extrapolated: bool = field(default=False, compare=False)

    @property
    def is_crisp(self) -> bool:
        return (abs(self.t - 1.0) <= FLOAT_TOL and abs(self.f) <= FLOAT_TOL) or (
            abs(self.t) <= FLOAT_TOL and abs(self.f - 1.0) <= FLOAT_TOL
        )

    @property
    def is_normalized(self) -> bool:
        return (
            self.t >= -FLOAT_TOL
            and self.f >= -FLOAT_TOL
            and abs(self.t + self.f - 1.0) <= FLOAT_TOL
        )

    def as_bool(self) -> bool:
        if not self.is_crisp:
            raise InvalidTruthValueError(f"{self} is not a crisp truth value")
        return self.t > self.f

    def to_tensor(self) -> Tensor:
        return Tensor([self.t, self.f])

    @classmethod
    def from_tensor(cls, v: Tensor, *, check: bool = True, extrapolated: bool = False) -> "TruthVec":
        if v.shape != (2,):
            raise DimensionMismatchError(f"a truth vector has shape (2,), got {v.shape}")
        value = cls(float(v[0]), float(v[1]), extrapolated)
        if check and not value.is_normalized:
            raise InvalidTruthValueError(f"{value} is not normalized")
        return value

    def __str__(self) -> str:
        if self.is_crisp:
            return "⊤" if self.t > self.f else "⊥"
        return f"[{self.t:.12g}, {self.f:.12g}]"


def truth_top() -> TruthVec:
    """The crisp "true" vector (1, 0)."""
    return TruthVec(1.0, 0.0)


def truth_bot() -> TruthVec:
    """The crisp "false" vector (0, 1)."""
    return TruthVec(0.0, 1.0)
