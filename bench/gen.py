"""The benchmark's own seeded input generator and text printers.

Nothing here imports the program, so a change to the program cannot change
the inputs.  A spec is a model as plain Python data; formulas are the nested
tuples described in ``reference.py``.  Every random choice draws from a
``random.Random`` seeded by the caller and iterates only over lists, never
over sets, so one seed gives the same inputs in every process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

BINARY = ("and", "or", "implies")
SET_BINARY = ("inter", "union")
_SYMBOL = {"and": "&", "or": "|", "implies": "->", "inter": "&", "union": "|"}


@dataclass(frozen=True)
class Spec:
    """A model as name lists (for the program) and sets (for the reference)."""

    atoms: tuple[str, ...]
    predicates: dict[str, frozenset[str]]
    relations: dict[str, tuple[int, frozenset[tuple[str, ...]]]]

    def from_names_args(self) -> tuple[list, dict, dict]:
        """Positional arguments for ``Model.from_names``."""
        return (
            list(self.atoms),
            {p: sorted(ext) for p, ext in self.predicates.items()},
            {r: (arity, sorted(tuples)) for r, (arity, tuples) in self.relations.items()},
        )

    def text(self) -> str:
        """The spec in the program's model file format."""
        lines = ["domain " + " ".join(self.atoms)]
        for p, ext in self.predicates.items():
            lines.append(f"pred {p}: " + " ".join(sorted(ext)))
        for r, (arity, tuples) in self.relations.items():
            body = " ".join("(" + ", ".join(t) + ")" for t in sorted(tuples))
            lines.append(f"rel {r}/{arity}: {body}")
        return "\n".join(lines) + "\n"


def random_tuples(rng: random.Random, atoms: list[str], arity: int, count: int) -> list[tuple]:
    """``count`` distinct ``arity``-tuples of atoms, in draw order."""
    n = len(atoms)
    picks = rng.sample(range(n**arity), count)
    out = []
    for code in picks:
        tup = []
        for _ in range(arity):
            code, digit = divmod(code, n)
            tup.append(atoms[digit])
        out.append(tuple(tup))
    return out


def random_spec(
    rng: random.Random,
    n: int,
    predicates: int,
    relations: dict[str, tuple[int, float]],
    prefix: str = "e",
) -> Spec:
    """Atoms ``e0..``, predicates ``p0..`` holding each atom with probability
    1/2, and each named relation with exactly ``density`` of all tuples."""
    atoms = [f"{prefix}{i}" for i in range(n)]
    preds = {f"p{j}": frozenset(a for a in atoms if rng.random() < 0.5) for j in range(predicates)}
    rels = {
        name: (arity, frozenset(random_tuples(rng, atoms, arity, round(density * n**arity))))
        for name, (arity, density) in relations.items()
    }
    return Spec(tuple(atoms), preds, rels)


def truth_tree(rng: random.Random, leaves: int, depth: int, leaf) -> tuple:
    """A connective tree with exactly ``leaves`` leaves drawn by ``leaf(rng)``
    in left-to-right order, and nesting depth at most ``depth``."""
    if leaves > 2 ** (depth - 1):
        raise ValueError(f"{leaves} leaves do not fit in depth {depth}")
    if leaves == 1:
        node = leaf(rng)
        return ("not", node) if depth >= 2 and rng.random() < 0.25 else node
    room = 2 ** (depth - 2)
    k = rng.randint(max(1, leaves - room), min(leaves - 1, room))
    left = truth_tree(rng, k, depth - 1, leaf)
    return (rng.choice(BINARY), left, truth_tree(rng, leaves - k, depth - 1, leaf))


def set_tree(rng: random.Random, leaves: int, leaf) -> tuple:
    """An intersection/union tree with exactly ``leaves`` set leaves."""
    if leaves == 1:
        return leaf(rng)
    k = rng.randint(1, leaves - 1)
    return (rng.choice(SET_BINARY), set_tree(rng, k, leaf), set_tree(rng, leaves - k, leaf))


def formula_text(f: tuple) -> str:
    """Fully parenthesised program syntax for a formula term."""
    op = f[0]
    if op == "pred":
        return f"{f[1]}({f[2]})"
    if op == "rel":
        return f"{f[1]}({', '.join(f[2])})"
    if op == "not":
        return "~" + _wrap(f[1])
    if op in BINARY:
        return f"{_wrap(f[1])} {_SYMBOL[op]} {_wrap(f[2])}"
    if op == "all":
        return f"all {set_text(f[1])} {set_text(f[2])}"
    if op == "exists":
        return f"exists {set_text(f[1])}"
    raise ValueError(f"not a formula term: {f!r}")


def _wrap(f: tuple) -> str:
    text = formula_text(f)
    return text if f[0] in ("pred", "rel") else f"({text})"


def set_text(s: tuple) -> str:
    """Program syntax for a set expression in quantifier-argument position."""
    op = s[0]
    if op == "pset":
        return s[1]
    if op == "prel":
        return f"{s[1]}({', '.join(s[2] + ('_',))})"
    return f"({set_text(s[1])} {_SYMBOL[op]} {set_text(s[2])})"


_CHILDREN = {"not": (1,), "exists": (1,), "all": (1, 2)}
_CHILDREN.update({op: (1, 2) for op in BINARY + SET_BINARY})


def walk(f: tuple):
    """Every node of a formula or set term, parents before children."""
    yield f
    for i in _CHILDREN.get(f[0], ()):
        yield from walk(f[i])
