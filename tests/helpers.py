"""Shared test helpers: set referees, enumerations for the
oracle-equivalence suites, deeply nested formula texts, and a faulty tensor
path for sweeps."""

import itertools
from typing import Iterable

import numpy as np

import tensorlogic.evaluator as evaluator_module
from tensorlogic.dsl import And, Exists, ForAll, Implies, Intersect, Not, Or, Union
from tensorlogic.errors import PlanTooLargeError
from tensorlogic.evaluator import ContractionPlan, Instr
from tensorlogic.model import Model, truth_bot, truth_top
from tensorlogic.sets import SetVector, _operands
from tensorlogic.tensor import Tensor


def encode_set(m: Model, atom_names: Iterable[str]) -> Tensor:
    """0/1 characteristic vector of a set of declared atoms."""
    v = np.zeros(m.domain_size)
    for name in atom_names:
        v[m.atom_index(name)] = 1.0
    return Tensor._wrap(v)


def intersect(a: SetVector, b: SetVector) -> SetVector:
    """Set intersection as pointwise minimum."""
    x, y = _operands("intersect", a.tensor.array, b.tensor.array)
    return SetVector(Tensor._wrap(np.minimum(x, y)))


def union(a: SetVector, b: SetVector) -> SetVector:
    """Set union as pointwise maximum."""
    x, y = _operands("union", a.tensor.array, b.tensor.array)
    return SetVector(Tensor._wrap(np.maximum(x, y)))


def quantifier_plan(op, srcs, x: Tensor, y: Tensor) -> ContractionPlan:
    """A hand-built plan loading rows ``x`` and ``y`` into r0 and r1, then
    one ``op`` step over ``srcs``: no compiled plan hands a quantifier rows
    off the 0/1 grid or of unequal lengths."""
    steps = (
        Instr("load", 0, payload=x, note="x"),
        Instr("load", 1, payload=y, note="y"),
        Instr(op, 2, srcs=srcs),
    )
    return ContractionPlan(steps, 2, (x.shape, y.shape, (2,)))


def assert_contractions_are_plain_dot(plan: ContractionPlan, n: int) -> None:
    """Every ``contract`` step of ``plan``, a plan over a domain of size
    ``n``, pairs operands of rank at most 2, not both of rank 1: the branch
    of ``tensor._contract_arrays`` that is ``left.dot(right)`` as it stands,
    the product ``execute`` computes.  Every ``columnwise`` step's two
    operands are both ``(2,)``, which ``execute`` contracts with the
    connective tensor by two ``ndarray.dot`` calls, or both ``(2, n)``,
    which it combines by one einsum: the left operand's rank picks the
    kernel."""
    for op, _, srcs, _, _ in plan.steps:
        shapes = [plan.register_shapes[s] for s in srcs]
        if op == "contract":
            ranks = [len(shape) for shape in shapes]
            assert max(ranks) <= 2 and ranks != [1, 1], plan.describe()
        elif op == "columnwise":
            assert shapes[1:] in ([(2,), (2,)], [(2, n), (2, n)]), plan.describe()


def formulas_up_to_depth(depth, leaves):
    """Every connective formula of AST depth <= depth over the given leaves."""
    if depth <= 1:
        return list(leaves)
    smaller = formulas_up_to_depth(depth - 1, leaves)
    out = list(leaves)
    out.extend(Not(f) for f in smaller)
    for combine in (And, Or, Implies):
        out.extend(combine(f, g) for f in smaller for g in smaller)
    return out


def set_exprs_up_to_depth(depth, leaves):
    """Every set expression of depth <= depth over the given leaves."""
    if depth <= 1:
        return list(leaves)
    smaller = set_exprs_up_to_depth(depth - 1, leaves)
    out = list(leaves)
    for combine in (Intersect, Union):
        out.extend(combine(e, g) for e in smaller for g in smaller)
    return out


def quantified_formulas(set_exprs):
    """All root-quantified formulas over the given set expressions."""
    out = [Exists(e) for e in set_exprs]
    out.extend(ForAll(x, y) for x in set_exprs for y in set_exprs)
    return out


def leaf_valuation_models():
    """Eight two-atom models realizing every truth assignment to the leaves
    p(a), q(b), r(a, b)."""
    models = []
    for p_holds, q_holds, r_holds in itertools.product((False, True), repeat=3):
        models.append(
            Model.from_names(
                ["a", "b"],
                predicates={
                    "p": ["a"] if p_holds else [],
                    "q": ["b"] if q_holds else [],
                },
                relations={"r": (2, [("a", "b")] if r_holds else [])},
            )
        )
    return models


def signature_model_count(domain_size):
    """Number of distinct 0/1 extension combinations for the fixed signature
    of two predicates and one binary relation."""
    return 4**domain_size * 2 ** (domain_size * domain_size)


def signature_model(domain_size, index):
    """Decode an index into one model of the fixed two-predicate
    one-binary-relation signature; indices enumerate every extension combo."""
    atoms = [f"x{i}" for i in range(domain_size)]
    pairs = list(itertools.product(atoms, repeat=2))
    n_ext = 2**domain_size
    p_bits = index % n_ext
    index //= n_ext
    q_bits = index % n_ext
    r_bits = index // n_ext
    return Model.from_names(
        atoms,
        predicates={
            "p": [a for i, a in enumerate(atoms) if p_bits >> i & 1],
            "q": [a for i, a in enumerate(atoms) if q_bits >> i & 1],
        },
        relations={"r": (2, [pair for i, pair in enumerate(pairs) if r_bits >> i & 1])},
    )


def signature_models(domain_size):
    """Every model of the fixed signature over the given domain size."""
    return [
        signature_model(domain_size, i) for i in range(signature_model_count(domain_size))
    ]


# A one-atom model, and eight ways to write a formula over it that nests
# ``depth`` levels deep: name -> (text of that depth, its truth value).
ONE_ATOM_TEXT = "domain a\npred p: a\n"
DEEP_SHAPES = {
    "not": lambda d: ("~" * d + "p(a)", d % 2 == 0),
    "parens": lambda d: ("(" * d + "p(a)" + ")" * d, True),
    "and": lambda d: (" & ".join(["p(a)"] * (d + 1)), True),
    "or": lambda d: (" | ".join(["p(a)"] * (d + 1)), True),
    "implies": lambda d: (" -> ".join(["p(a)"] * (d + 1)), True),
    "exists": lambda d: ("exists (" + " & ".join(["p"] * d) + ")", True),
    # A quantifier under connectives adds no level of its own.
    "not-exists": lambda d: (
        "~" * (d // 2) + "exists (" + " & ".join(["p"] * (d - d // 2)) + ")", d // 2 % 2 == 0
    ),
    # A quantifier's parenthesized operand nests as a formula does.
    "exists-not": lambda d: ("exists (" + "~" * (d - 1) + "p)", (d - 1) % 2 == 0),
}


SWEEP_ERROR_MESSAGE = "rel:r0 needs a tensor of 99 elements, above the cap of 5"


def patch_sweep_tensor_path(monkeypatch, fail_at, lie_at=None, error=PlanTooLargeError):
    """Make the sweep's ``evaluate`` raise ``error`` on instance ``fail_at``
    and return the wrong truth value on ``lie_at``."""
    real, calls = evaluator_module.evaluate, itertools.count()

    def evaluate(f, m, **kwargs):
        index = next(calls)
        if index == fail_at:
            raise error(SWEEP_ERROR_MESSAGE)
        result = real(f, m, **kwargs)
        if index == lie_at:
            return truth_bot() if result.as_bool() else truth_top()
        return result

    monkeypatch.setattr(evaluator_module, "evaluate", evaluate)
