"""Seeded random models, formulas, and set expressions for sweeps and tests.

Models draw a domain size uniformly from [1, max_domain], put each atom in
each predicate extension with probability 1/2, and fill relation extensions
tuple-by-tuple with probability 1/2, so empty and full extensions both occur
at usable rates.  Formulas are drawn over the model's declared names only,
with quantifiers at the root and nowhere else, and set expressions built of
``&`` and ``|`` alone: the grammar takes a quantifier under any connective
and ``~`` and ``->`` in a set expression, but the seed-151 stream of these
draws is pinned by sha256, so the generator keeps the draws it has always
made.  Every AST node type is producible.
"""

from __future__ import annotations

import itertools
import random

from . import dsl
from .errors import ElementCapError
from .model import Model
from .tensor import DEFAULT_ELEMENT_CAP

#: The largest relation arity :func:`random_model` draws.
MAX_ARITY = 3


def check_relation_size(arity: int, n: int) -> None:
    """Raise :class:`ElementCapError` if a random relation of ``arity`` over
    ``n`` atoms can be above the default element cap: 2 * n**arity elements."""
    what = f"a random arity-{arity} relation over {n} atoms"
    ElementCapError.check(what, 2 * n**arity, DEFAULT_ELEMENT_CAP)


def random_model(rng: random.Random, max_domain: int = 5) -> Model:
    """A model with atoms a0..a(n-1), predicates p0 and p1, and one relation
    r0 of arity 2 to ``MAX_ARITY``.

    A relation that fails :func:`check_relation_size` raises
    :class:`ElementCapError` before any of its tuples is drawn.
    """
    n = rng.randint(1, max_domain)
    atom_names = [f"a{i}" for i in range(n)]
    predicates = {
        f"p{j}": [a for a in atom_names if rng.random() < 0.5] for j in range(2)
    }
    arity = rng.randint(2, MAX_ARITY)
    check_relation_size(arity, n)
    tuples = [
        tup for tup in itertools.product(atom_names, repeat=arity) if rng.random() < 0.5
    ]
    return Model.from_names(atom_names, predicates, {"r0": (arity, tuples)})


def random_set_expr(rng: random.Random, m: Model, max_depth: int = 2) -> dsl.Formula:
    leaf_kinds = []
    if m.predicates:
        leaf_kinds.append("pred")
    if m.relations:
        leaf_kinds.append("partial")
    if not leaf_kinds:
        raise ValueError("cannot generate set expressions over a model with no symbols")
    if max_depth <= 1 or rng.random() < 0.5:
        kind = rng.choice(leaf_kinds)
        if kind == "pred":
            return dsl.PredSet(rng.choice(sorted(m.predicates)))
        rel = rng.choice(sorted(m.relations))
        arity = m.relations[rel].arity
        bound = tuple(rng.choice(m.atom_names) for _ in range(arity - 1))
        return dsl.PartialRel(rel, bound)
    combine = dsl.Intersect if rng.random() < 0.5 else dsl.Union
    return combine(
        random_set_expr(rng, m, max_depth - 1), random_set_expr(rng, m, max_depth - 1)
    )


def random_truth_formula(rng: random.Random, m: Model, max_depth: int) -> dsl.Formula:
    if not m.predicates and not m.relations:
        raise ValueError("cannot generate formulas over a model with no symbols")
    if max_depth <= 1 or rng.random() < 0.3:
        if m.relations and (not m.predicates or rng.random() < 0.4):
            rel = rng.choice(sorted(m.relations))
            arity = m.relations[rel].arity
            return dsl.RelAtom(rel, tuple(rng.choice(m.atom_names) for _ in range(arity)))
        pred = rng.choice(sorted(m.predicates))
        return dsl.Atom(pred, rng.choice(m.atom_names))
    roll = rng.random()
    if roll < 0.25:
        return dsl.Not(random_truth_formula(rng, m, max_depth - 1))
    combine = rng.choice([dsl.And, dsl.Or, dsl.Implies])
    return combine(
        random_truth_formula(rng, m, max_depth - 1),
        random_truth_formula(rng, m, max_depth - 1),
    )


def random_formula(rng: random.Random, m: Model, max_depth: int = 3) -> dsl.Formula:
    """A bound formula over ``m``, quantified at the root with probability
    1/4 when ``m`` has a predicate."""
    if m.predicates and rng.random() < 0.25:
        set_depth = max(1, max_depth - 1)
        if rng.random() < 0.5:
            return dsl.ForAll(
                random_set_expr(rng, m, set_depth), random_set_expr(rng, m, set_depth)
            )
        return dsl.Exists(random_set_expr(rng, m, set_depth))
    return random_truth_formula(rng, m, max_depth)
