"""Grammar-wide property: drawn formulas round-trip through text, agree
with the oracle on the plan path and through ``tensorlogic eval``, give the
dense evaluator's truth vector bit for bit, and compile to plans whose
contractions are all plain dots."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic.cli import main
from tensorlogic.dsl import (
    And,
    Atom,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    PartialRel,
    PredSet,
    RelAtom,
    parse_formula,
    print_formula,
    print_model,
)
from tensorlogic.evaluator import compile_formula, evaluate, oracle_eval
from tensorlogic.model import Model
from tests.helpers import assert_contractions_are_plain_dot
from tests.test_relation_slices import bits, dense_evaluate

PREDICATES = ("p", "q")


@st.composite
def models(draw):
    """1-4 atoms, predicates ``p`` and ``q``, and one or two relations of
    arity 1 to 3."""
    atoms = [f"a{i}" for i in range(draw(st.integers(1, 4)))]
    members = st.lists(st.sampled_from(atoms), unique=True)
    predicates = {name: draw(members) for name in PREDICATES}
    relations = {}
    for name in ("r", "s")[: draw(st.integers(1, 2))]:
        arity = draw(st.integers(1, 3))
        tuples = draw(st.lists(st.tuples(*[st.sampled_from(atoms)] * arity), max_size=12))
        relations[name] = (arity, tuples)
    return Model.from_names(atoms, predicates, relations)


def formulas(m):
    """Closed formulas over ``m`` in which a quantified formula may stand
    wherever an application can, under any connective, and a quantifier's
    operands are open formulas under any connective."""
    atom = st.sampled_from(m.atom_names)
    arities = sorted((r, decl.arity) for r, decl in m.relations.items())
    applications = st.one_of(
        st.builds(Atom, st.sampled_from(PREDICATES), atom),
        *(st.builds(RelAtom, st.just(r), st.tuples(*[atom] * k)) for r, k in arities),
    )
    set_leaves = st.one_of(
        st.sampled_from(PREDICATES).map(PredSet),
        *(st.builds(PartialRel, st.just(r), st.tuples(*[atom] * (k - 1))) for r, k in arities),
    )
    set_exprs = st.recursive(set_leaves, connectives, max_leaves=3)
    quantified = st.builds(Exists, set_exprs) | st.builds(ForAll, set_exprs, set_exprs)
    return st.recursive(applications | quantified, connectives, max_leaves=6)


def connectives(sub):
    """One connective over formulas drawn from ``sub``."""
    return st.one_of(
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
    )


def fully_parenthesized(f):
    """Text for ``f`` with every connective's operands, every quantifier
    operand and every quantified formula in parentheses, written without the
    printer."""
    match f:
        case Not(body):
            return f"~({fully_parenthesized(body)})"
        case And(left, right) | Or(left, right) | Implies(left, right):
            op = {And: "&", Or: "|", Implies: "->"}[type(f)]
            return f"({fully_parenthesized(left)}) {op} ({fully_parenthesized(right)})"
        case ForAll(subset, superset):
            return f"(all ({fully_parenthesized(subset)}) ({fully_parenthesized(superset)}))"
        case Exists(body):
            return f"(exists ({fully_parenthesized(body)}))"
    return print_formula(f)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar") / "drawn.model"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_drawn_formulas_round_trip_and_agree_with_the_oracle(model_path, data):
    m = data.draw(models(), label="model")
    f = data.draw(formulas(m), label="formula")
    text = print_formula(f)
    assert parse_formula(text, m) == f
    assert parse_formula(fully_parenthesized(f), m) == f
    truth = oracle_eval(f, m)
    result = evaluate(f, m)
    assert result.as_bool() is truth
    assert_contractions_are_plain_dot(compile_formula(f, m), m.domain_size)
    assert bits(result) == bits(dense_evaluate(f, m))
    model_path.write_text(print_model(m))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["eval", "--model", str(model_path), f"--formula={text}"])
    assert code == (0 if truth else 1)
