"""Relation applications lowered to (2, n) slices of the relation.

A plan loads only the slice of a relation that fixes every argument but the
last, never the dense (2, n^arity) tensor.  These tests check every slice
against the dense public path (``build_relation`` then ``partial_apply``),
every full application against ``apply_relation``, whole formulas against a
dense evaluator built from the function-level API, the bound on the slices a
model keeps, and the cap on what a plan loads.
"""

import itertools
import math
import random

import numpy as np
import pytest

from tensorlogic.cli import main
from tensorlogic.dsl import (
    And,
    Atom,
    Exists,
    ForAll,
    Implies,
    Intersect,
    Not,
    Or,
    PartialRel,
    PredSet,
    RelAtom,
    Union,
)
from tensorlogic.errors import ArityError, PlanTooLargeError
from tensorlogic.evaluator import compile_formula, evaluate, execute, oracle_eval
from tensorlogic.generate import random_formula, random_model
from tensorlogic.model import Model, encode_atom
from tensorlogic.sets import (
    _TRUE_ROW_PROBE,
    SetVector,
    build_set_predicate,
    exists,
    forall,
    intersect,
    predicate_vector,
    union,
)
from tensorlogic.tensor import contract
from tensorlogic.truth import (
    PredicateMatrix,
    apply_predicate,
    apply_relation,
    build_predicate,
    build_relation,
    build_relation_slice,
    connective_binary,
    connective_not,
    partial_apply,
)


def models_with_arities(seed: int, count: int, max_domain: int = 4):
    """Seeded models holding one relation of each arity 1, 2 and 3."""
    rng = random.Random(seed)
    for _ in range(count):
        names = [f"a{i}" for i in range(rng.randint(1, max_domain))]
        relations = {
            f"r{arity}": (
                arity,
                [t for t in itertools.product(names, repeat=arity) if rng.random() < 0.5],
            )
            for arity in (1, 2, 3)
        }
        predicates = {"p": [a for a in names if rng.random() < 0.5]}
        yield Model.from_names(names, predicates, relations)


def dense_slice(m: Model, rel: str, bound: tuple[str, ...]) -> PredicateMatrix:
    """The slice by the dense public path: build the whole tensor, then bind."""
    built = build_relation(m, rel)
    if not bound:
        return built
    return partial_apply(built, [encode_atom(m, b) for b in bound])


def dense_evaluate(f, m: Model):
    """A formula's truth vector by the function-level API over dense tensors."""
    match f:
        case Atom(pred, arg):
            return apply_predicate(build_predicate(m, pred), encode_atom(m, arg))
        case RelAtom(rel, args):
            built = build_relation(m, rel)
            one_hots = [encode_atom(m, a) for a in args]
            if isinstance(built, PredicateMatrix):
                return apply_predicate(built, *one_hots)
            return apply_relation(built, one_hots)
        case Not(body):
            return connective_not(dense_evaluate(body, m))
        case And() | Or() | Implies():
            kind = {And: "and", Or: "or", Implies: "implies"}[type(f)]
            return connective_binary(kind, dense_evaluate(f.left, m), dense_evaluate(f.right, m))
        case ForAll(subset, superset):
            return forall(dense_set(subset, m), dense_set(superset, m))
        case Exists(body):
            return exists(dense_set(body, m))
    raise TypeError(f"not a formula node: {f!r}")


def dense_set(e, m: Model) -> SetVector:
    match e:
        case PredSet(name):
            return predicate_vector(build_set_predicate(m, name))
        case PartialRel(rel, bound):
            return SetVector(contract(_TRUE_ROW_PROBE, dense_slice(m, rel, bound).tensor))
        case Intersect(left, right):
            return intersect(dense_set(left, m), dense_set(right, m))
        case Union(left, right):
            return union(dense_set(left, m), dense_set(right, m))
    raise TypeError(f"not a set expression node: {e!r}")


def bits(v) -> bytes:
    return np.array([v.t, v.f]).tobytes()


def slice_entries(m: Model, rel: str) -> dict:
    return {k: t for k, t in m._tensors.items() if k.startswith(f"rel:{rel}(")}


def test_every_slice_and_application_matches_the_dense_path():
    for m in models_with_arities(seed=601, count=40):
        names = m.atom_names
        for rel, decl in m.relations.items():
            for bound in itertools.product(names, repeat=decl.arity - 1):
                plan = compile_formula(Exists(PartialRel(rel, bound)), m)
                payload = plan.steps[0].payload
                expected = dense_slice(m, rel, bound).tensor.array
                assert payload.shape == expected.shape == (2, m.domain_size)
                assert payload.array.tobytes() == expected.tobytes()
                assert build_relation_slice(m, rel, bound).tensor == payload
            for args in itertools.product(names, repeat=decl.arity):
                f = RelAtom(rel, args)
                result = evaluate(f, m)
                assert bits(result) == bits(dense_evaluate(f, m))
                assert result.as_bool() == oracle_eval(f, m)
        # A predicate set is the true row of the matrix its applications load.
        plan = compile_formula(Exists(PredSet("p")), m)
        matrix, probe, row = plan.steps[:3]
        assert (matrix.note, probe.note, row.op) == ("pred:p", "true-row-probe", "contract")
        assert matrix.payload is m._tensors["pred:p"]
        register = contract(probe.payload, matrix.payload).array
        assert register.tobytes() == dense_set(PredSet("p"), m).tensor.array.tobytes()


def test_sliced_plans_match_the_dense_evaluator_and_the_oracle():
    rng = random.Random(613)
    models = list(models_with_arities(seed=617, count=100))
    models += [random_model(rng, max_domain=4) for _ in range(300)]
    for m in models:
        for _ in range(3):
            f = random_formula(rng, m, max_depth=3)
            plan = compile_formula(f, m)
            # Every load is a truth matrix, a one-hot, a connective or the
            # true-row probe, and no plan loads a relation tensor of rank above 2.
            for instr in (step for step in plan.steps if step.op == "load"):
                assert instr.note == "true-row-probe" or instr.note.startswith(
                    ("pred:", "rel:", "atom:", "conn:")
                )
                if instr.note.startswith("rel:"):
                    assert instr.payload.shape == (2, m.domain_size)
            result = execute(plan)
            assert bits(result) == bits(dense_evaluate(f, m))
            assert result.as_bool() == oracle_eval(f, m)


def test_slices_kept_on_a_model_stay_within_the_dense_tensor():
    for m in models_with_arities(seed=619, count=20):
        n = m.domain_size
        names = m.atom_names
        for rel, decl in m.relations.items():
            for bound in itertools.product(names, repeat=decl.arity - 1):
                execute(compile_formula(Exists(PartialRel(rel, bound)), m))
            loaded = dict(slice_entries(m, rel))
            # Full applications read the very slices that partial ones loaded.
            for args in itertools.product(names, repeat=decl.arity):
                execute(compile_formula(RelAtom(rel, args), m))
            assert slice_entries(m, rel) == loaded
            assert all(slice_entries(m, rel)[k] is t for k, t in loaded.items())
            assert len(loaded) <= n ** (decl.arity - 1)
            assert sum(t.size for t in loaded.values()) <= 2 * n**decl.arity
            assert all(t.rank == 2 for t in loaded.values())


def test_an_oversize_slice_is_refused_before_anything_is_stored():
    # The slice is 2 x 60 = 120 elements; the dense tensor would be 432,000.
    m = Model.from_names([f"x{i}" for i in range(60)], relations={"r": (3, [("x0", "x1", "x2")])})
    for f in (RelAtom("r", ("x0", "x1", "x2")), Exists(PartialRel("r", ("x0", "x1")))):
        with pytest.raises(PlanTooLargeError) as info:
            compile_formula(f, m, cap=119)
        assert str(info.value) == (
            "rel:r(x0,x1,_) needs a tensor of 120 elements, above the cap of 119"
        )
        assert not m._tensors
    assert evaluate(RelAtom("r", ("x0", "x1", "x2")), m, cap=120).as_bool()
    assert list(m._tensors) == ["rel:r(x0,x1,_)", "atom:x2"]


def test_a_set_of_a_slice_and_a_predicate_holds_no_register_above_2n():
    n = 80
    names = [f"a{i}" for i in range(n)]
    m = Model.from_names(
        names, {"p": names[::3]}, {"r": (3, [("a0", "a1", a) for a in names[::2]])}
    )
    f = Exists(Intersect(PartialRel("r", ("a0", "a1")), PredSet("p")))
    plan = compile_formula(f, m)
    assert max(math.prod(shape) for shape in plan.register_shapes) == 2 * n
    assert execute(plan).as_bool() == oracle_eval(f, m)


def test_a_slice_binds_every_argument_but_the_last():
    m = Model.from_names(["a", "b"], relations={"r": (3, [("a", "b", "a")])})
    with pytest.raises(ArityError):
        build_relation_slice(m, "r", ("a",))
    with pytest.raises(ArityError):
        compile_formula(Exists(PartialRel("r", ("a", "b", "a"))), m)
    assert not m._tensors


def test_describe_shows_the_slice_note(loves_model):
    plan = compile_formula(Exists(PartialRel("loves", ("j",))), loves_model)
    assert plan.describe().splitlines()[0] == "r0 <- load rel:loves(j,_)  shape (2, 2)"
    plan = compile_formula(RelAtom("loves", ("m", "j")), loves_model)
    assert plan.describe().splitlines()[:2] == [
        "r0 <- load rel:loves(m,_)  shape (2, 2)",
        "r1 <- load atom:j  shape (2,)",
    ]


@pytest.mark.parametrize(
    "formula, code",
    [("t(a0, a1, a2)", 0), ("t(a1, a0, a2)", 1), ("exists t(a3, a4, _)", 0),
     ("all t(a0, a1, _) t(a3, a4, _)", 1)],
)
def test_eval_answers_where_the_dense_relation_is_above_the_cap(tmp_path, capsys, formula, code):
    # 2 * 220^3 = 21,296,000 elements: above the default cap of 10,000,000.
    names = " ".join(f"a{i}" for i in range(220))
    path = tmp_path / "wide.model"
    path.write_text(f"domain {names}\nrel t/3: (a0, a1, a2) (a3, a4, a5) (a3, a4, a219)\n")
    assert main(["eval", "--model", str(path), "--formula", formula]) == code
    assert capsys.readouterr().err == ""
    # The dense public path still refuses it.
    assert main(["show", "--model", str(path), "t"]) == 2
    assert "needs a tensor of 21296000 elements" in capsys.readouterr().err
