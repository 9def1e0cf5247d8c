"""Finite logical structures and their vector encodings.

A :class:`Model` fixes an ordered domain of named atoms plus predicate and
relation extensions.  The declaration order of atoms induces the basis order
of the domain vector space: atom ``i`` maps to the ``i``-th standard basis
vector, and subsets of the domain map to 0/1 characteristic vectors.  All
tensor indices downstream inherit this ordering.

Truth values live in a separate 2-dimensional space with basis "true" /
"false".  :class:`TruthVec` is deliberately a distinct type from
:class:`~tensorlogic.tensor.Tensor` even though it lowers to a 2-vector;
conversions are always explicit so domain-space and truth-space vectors
cannot be mixed by accident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .tensor import FLOAT_TOL, Tensor, one_hot


@dataclass(frozen=True)
class DomainAtom:
    """A named individual with its 0-based position in the domain ordering."""

    name: str
    index: int


@dataclass(frozen=True)
class RelationDecl:
    """An n-ary relation extension stored as index tuples."""

    arity: int
    tuples: frozenset[tuple[int, ...]]


@dataclass(frozen=True)
class Model:
    """Immutable finite structure: atoms, predicate sets, relation tuple sets.

    Extensions are stored by atom index.  Use :meth:`from_names` to build a
    model from name-based declarations; the constructor validates everything
    either way.
    """

    atoms: tuple[DomainAtom, ...]
    predicates: dict[str, frozenset[int]] = field(default_factory=dict)
    relations: dict[str, RelationDecl] = field(default_factory=dict)
    #: Tensors that plans load, keyed by load note; see :meth:`_memo_tensor`.
    _tensors: dict[str, Tensor] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if not self.atoms:
            raise DimensionMismatchError("a model needs at least one domain atom")
        names = [a.name for a in self.atoms]
        if len(set(names)) != len(names):
            raise DuplicateNameError(f"duplicate atom names in {names}")
        for i, atom in enumerate(self.atoms):
            if atom.index != i:
                raise DimensionMismatchError(
                    f"atom {atom.name!r} has index {atom.index}, expected {i}"
                )
        n = len(self.atoms)
        symbol_names = list(self.predicates) + list(self.relations)
        seen: set[str] = set()
        for name in symbol_names:
            if name in seen or name in set(names):
                raise DuplicateNameError(f"symbol name {name!r} is already declared")
            seen.add(name)
        for name, extension in self.predicates.items():
            for idx in extension:
                if not 0 <= idx < n:
                    raise UnknownAtomError(f"index {idx} in predicate {name!r}")
        for name, decl in self.relations.items():
            if decl.arity < 1:
                raise ArityError(f"relation {name!r} declared with arity {decl.arity}")
            for tup in decl.tuples:
                if len(tup) != decl.arity:
                    raise ArityError(
                        f"tuple {tup} in relation {name!r} has length {len(tup)}, "
                        f"declared arity is {decl.arity}"
                    )
                for idx in tup:
                    if not 0 <= idx < n:
                        raise UnknownAtomError(f"index {idx} in relation {name!r}")

    @classmethod
    def from_names(
        cls,
        atom_names: Iterable[str],
        predicates: Mapping[str, Iterable[str]] | None = None,
        relations: Mapping[str, tuple[int, Iterable[tuple[str, ...]]]] | None = None,
    ) -> "Model":
        """Build a model from name-based extensions.

        ``relations`` maps each relation name to ``(arity, tuples)`` where
        tuples contain atom names.
        """
        atoms = tuple(DomainAtom(name, i) for i, name in enumerate(atom_names))
        index = {a.name: a.index for a in atoms}

        def resolve(name: str, owner: str) -> int:
            if name not in index:
                raise UnknownAtomError(f"{name!r} in {owner}")
            return index[name]

        preds = {
            p: frozenset(resolve(a, f"predicate {p!r}") for a in ext)
            for p, ext in (predicates or {}).items()
        }
        rels = {
            r: RelationDecl(
                arity,
                frozenset(tuple(resolve(a, f"relation {r!r}") for a in tup) for tup in tuples),
            )
            for r, (arity, tuples) in (relations or {}).items()
        }
        return cls(atoms, preds, rels)

    @property
    def domain_size(self) -> int:
        return len(self.atoms)

    @property
    def atom_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.atoms)

    def atom_index(self, name: str) -> int:
        for atom in self.atoms:
            if atom.name == name:
                return atom.index
        raise UnknownAtomError(name)

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

    def _memo_tensor(self, key: str, build: Callable[[], Tensor]) -> Tensor:
        """The tensor stored under ``key``, built by ``build`` on first use.

        A model's extensions never change, so neither does a tensor built
        from them.  Threads that race on a miss may each build, but
        ``dict.setdefault`` keeps the first one stored and hands that same
        object to every caller.
        """
        tensor = self._tensors.get(key)
        if tensor is None:
            tensor = self._tensors.setdefault(key, build())
        return tensor


def encode_atom(m: Model, name: str) -> Tensor:
    """One-hot domain vector for a declared atom."""
    return one_hot(m.atom_index(name), m.domain_size)


def encode_set(m: Model, atom_names: Iterable[str]) -> Tensor:
    """0/1 characteristic vector of a set of declared atoms."""
    v = np.zeros(m.domain_size)
    for name in atom_names:
        v[m.atom_index(name)] = 1.0
    return Tensor(v)


def decode_set(m: Model, v: Tensor) -> frozenset[str]:
    """The subset of the domain represented by a characteristic vector.

    Entries must be 0 or 1 within ``FLOAT_TOL``; anything else means the
    vector does not denote a set and is rejected.
    """
    if v.rank != 1 or v.shape[0] != m.domain_size:
        raise DimensionMismatchError(
            f"expected a vector of length {m.domain_size}, got shape {v.shape}"
        )
    members = []
    for atom, weight in zip(m.atoms, v.array):
        if abs(weight - 1.0) <= FLOAT_TOL:
            members.append(atom.name)
        elif abs(weight) > FLOAT_TOL:
            raise NonCharacteristicError(
                f"entry {weight!r} at index {atom.index} is neither 0 nor 1"
            )
    return frozenset(members)


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
