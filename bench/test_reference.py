"""Tests of the benchmark's reference evaluator.

    python3 -m pytest bench

Answers are derived by hand from the README's examples, and each connective
is checked over all crisp inputs against the classical truth tables.
"""

import itertools

import pytest

from gen import Spec
from reference import denote, holds

PEOPLE = Spec(
    ("john", "chris", "tom"),
    {"mathematician": frozenset({"john", "chris"})},
    {"loves": (2, frozenset({("john", "chris"), ("chris", "john")}))},
)
GREEK = Spec(
    ("socrates", "plato", "confucius"),
    {"greek": frozenset({"socrates", "plato"}),
     "human": frozenset({"socrates", "plato", "confucius"})},
    {},
)
BROWN_DOG = Spec(
    ("a", "b", "c"),
    {"brown": frozenset({"b", "c"}), "dog": frozenset({"a", "b"})},
    {},
)


def math(who):
    return ("pred", "mathematician", who)


def loves(*args):
    return ("rel", "loves", args)


def loved_by(who):
    return ("prel", "loves", (who,))


@pytest.mark.parametrize(
    "spec, term, expected",
    [
        # mathematician(john) & ~loves(john, tom)
        (PEOPLE, ("and", math("john"), ("not", loves("john", "tom"))), True),
        (PEOPLE, math("tom"), False),
        (PEOPLE, loves("chris", "john"), True),
        (PEOPLE, loves("john", "john"), False),
        # mathematician(john) -> loves(john, tom): true antecedent, false consequent
        (PEOPLE, ("implies", math("john"), loves("john", "tom")), False),
        (PEOPLE, ("or", math("tom"), loves("john", "chris")), True),
        # exists loves(john, _): John loves Chris
        (PEOPLE, ("exists", loved_by("john")), True),
        # exists loves(tom, _): Tom loves no one
        (PEOPLE, ("exists", loved_by("tom")), False),
        # all mathematician loves(chris, _): Chris loves John only
        (PEOPLE, ("all", ("pset", "mathematician"), loved_by("chris")), False),
        (PEOPLE, ("all", loved_by("chris"), ("pset", "mathematician")), True),
        (PEOPLE, ("exists", ("inter", ("pset", "mathematician"), loved_by("tom"))), False),
        # all greek human
        (GREEK, ("all", ("pset", "greek"), ("pset", "human")), True),
        (GREEK, ("all", ("pset", "human"), ("pset", "greek")), False),
        # exists (brown & dog): b is both
        (BROWN_DOG, ("exists", ("inter", ("pset", "brown"), ("pset", "dog"))), True),
    ],
)
def test_readme_examples(spec, term, expected):
    assert holds(term, spec) is expected


def test_set_expressions():
    assert denote(loved_by("john"), PEOPLE) == {"chris"}
    assert denote(("union", ("pset", "brown"), ("pset", "dog")), BROWN_DOG) == {"a", "b", "c"}
    assert denote(("inter", ("pset", "brown"), ("pset", "dog")), BROWN_DOG) == {"b"}


CLASSICAL = {
    "and": {(True, True): True, (True, False): False, (False, True): False, (False, False): False},
    "or": {(True, True): True, (True, False): True, (False, True): True, (False, False): False},
    "implies": {(True, True): True, (True, False): False, (False, True): True, (False, False): True},
}
CRISP = Spec(("x",), {"top": frozenset({"x"}), "bot": frozenset()}, {})


def literal(value):
    return ("pred", "top" if value else "bot", "x")


@pytest.mark.parametrize("value", [True, False])
def test_not_table(value):
    assert holds(("not", literal(value)), CRISP) is (not value)


@pytest.mark.parametrize(
    "op, a, b", [(op, a, b) for op in CLASSICAL for a, b in itertools.product([True, False], repeat=2)]
)
def test_binary_tables(op, a, b):
    assert holds((op, literal(a), literal(b)), CRISP) is CLASSICAL[op][a, b]
