"""Model and formula text formats: parsing, printing, round-trips, errors."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic.dsl import (
    _tokenize,
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
    MAX_DEPTH,
    Union,
    parse_formula,
    parse_model,
    print_formula,
    print_model,
)
from tensorlogic.errors import (
    ArityError,
    DuplicateNameError,
    EmbeddedQuantifierError,
    ParseError,
    UnknownAtomError,
    UnknownNameError,
)
from tensorlogic.evaluator import evaluate, oracle_eval
from tensorlogic.generate import random_formula, random_model
from tests.conftest import BROWN_DOG_TEXT, GREEK_TEXT, LOVES_TEXT, MATHEMATICIAN_TEXT
from tests.helpers import DEEP_SHAPES, ONE_ATOM_TEXT


class TestParseModel:
    def test_worked_example(self, mathematician_model):
        m = mathematician_model
        assert m.atom_names == ("john", "chris", "tom")
        assert m.predicate_extension("mathematician") == frozenset({0, 1})
        assert m.relations == {}

    def test_minimal_model(self):
        m = parse_model("domain a")
        assert m.domain_size == 1 and not m.predicates and not m.relations

    def test_relation_declaration(self, loves_model):
        decl = loves_model.relation_decl("loves")
        assert decl.arity == 2
        assert decl.tuples == frozenset({(0, 0), (1, 1), (1, 0)})

    def test_comments_and_blank_lines(self):
        text = """
        # a comment line
        domain a b   # trailing comment

        pred p: a
        """
        m = parse_model(text)
        assert m.atom_names == ("a", "b")
        assert m.predicate_extension("p") == frozenset({0})

    def test_empty_extensions(self):
        m = parse_model("domain a\npred p:\nrel r/2:\n")
        assert m.predicate_extension("p") == frozenset()
        assert m.relation_decl("r").tuples == frozenset()

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_model("")
        with pytest.raises(ParseError):
            parse_model("pred p: a")  # no domain first
        with pytest.raises(ParseError):
            parse_model("domain a\ndomain b")
        with pytest.raises(ParseError):
            parse_model("domain a\npred p a")  # missing colon
        with pytest.raises(ParseError):
            parse_model("domain all")  # reserved word
        with pytest.raises(DuplicateNameError):
            parse_model("domain a\npred p: a\npred p: a")
        with pytest.raises(DuplicateNameError):
            parse_model("domain a a")
        with pytest.raises(UnknownAtomError):
            parse_model("domain a\npred p: b")
        with pytest.raises(ArityError):
            parse_model("domain a\nrel r/2: (a)")
        with pytest.raises(ArityError):
            parse_model("domain a\nrel r/0:")

    def test_error_positions(self):
        with pytest.raises(ParseError) as info:
            parse_model("domain a\npred p a")
        assert info.value.line == 2

    def test_print_golden(self, loves_model):
        assert print_model(loves_model) == (
            "domain j m\nrel loves/2: (j, j) (m, j) (m, m)\n"
        )

    def test_round_trip_200_random_models(self):
        rng = random.Random(71)
        for _ in range(200):
            m = random_model(rng, max_domain=5)
            assert parse_model(print_model(m)) == m

    def test_round_trip_fixture_models(self):
        for text in (MATHEMATICIAN_TEXT, LOVES_TEXT, BROWN_DOG_TEXT, GREEK_TEXT):
            m = parse_model(text)
            assert parse_model(print_model(m)) == m


class TestParseFormula:
    def test_relation_application(self, loves_model):
        assert parse_formula("loves(m, j)", loves_model) == RelAtom("loves", ("m", "j"))

    def test_double_negation(self, mathematician_model):
        f = parse_formula("~(~mathematician(john))", mathematician_model)
        assert f == Not(Not(Atom("mathematician", "john")))
        assert parse_formula("~~mathematician(john)", mathematician_model) == f

    def test_quantified_sentences(self, greek_model, brown_dog_model):
        assert parse_formula("all greek human", greek_model) == ForAll(
            PredSet("greek"), PredSet("human")
        )
        assert parse_formula("exists (brown & dog)", brown_dog_model) == Exists(
            Intersect(PredSet("brown"), PredSet("dog"))
        )

    def test_partial_relation_set_expression(self, loves_model):
        f = parse_formula("exists loves(j, _)", loves_model)
        assert f == Exists(PartialRel("loves", ("j",)))

    def test_precedence(self, brown_dog_model):
        f = parse_formula("~brown(a) & dog(a) | brown(b) -> dog(c)", brown_dog_model)
        assert f == Implies(
            Or(
                And(Not(Atom("brown", "a")), Atom("dog", "a")),
                Atom("brown", "b"),
            ),
            Atom("dog", "c"),
        )

    def test_arrow_right_associative(self, brown_dog_model):
        f = parse_formula("brown(a) -> dog(a) -> brown(b)", brown_dog_model)
        assert f == Implies(
            Atom("brown", "a"), Implies(Atom("dog", "a"), Atom("brown", "b"))
        )

    def test_binaries_left_associative(self, brown_dog_model):
        f = parse_formula("brown(a) & dog(a) & brown(b)", brown_dog_model)
        assert f == And(
            And(Atom("brown", "a"), Atom("dog", "a")), Atom("brown", "b")
        )

    def test_set_expression_precedence(self, brown_dog_model):
        f = parse_formula("exists (brown | dog & brown)", brown_dog_model)
        assert f == Exists(Union(PredSet("brown"), Intersect(PredSet("dog"), PredSet("brown"))))

    def test_whitespace_and_comments(self, loves_model):
        f = parse_formula("loves( m , j )  # who loves whom\n", loves_model)
        assert f == RelAtom("loves", ("m", "j"))

    def test_unknown_names(self, brown_dog_model):
        with pytest.raises(UnknownNameError):
            parse_formula("green(a)", brown_dog_model)
        with pytest.raises(UnknownAtomError):
            parse_formula("brown(z)", brown_dog_model)
        with pytest.raises(UnknownNameError):
            parse_formula("exists green", brown_dog_model)

    def test_arity_errors(self, loves_model, brown_dog_model):
        with pytest.raises(ArityError):
            parse_formula("loves(j)", loves_model)
        with pytest.raises(ArityError):
            parse_formula("brown(a, b)", brown_dog_model)
        with pytest.raises(ArityError):
            parse_formula("exists loves(j, m, _)", loves_model)
        with pytest.raises(ArityError):
            parse_formula("exists loves", loves_model)

    def test_embedded_quantifiers_rejected(self, greek_model):
        for text in (
            "~all greek human",
            "greek(socrates) & exists greek",
            "(all greek human)",
            "all (all greek human) human",
        ):
            with pytest.raises(EmbeddedQuantifierError):
                parse_formula(text, greek_model)

    def test_open_slot_must_be_last(self, loves_model):
        with pytest.raises(ParseError):
            parse_formula("exists loves(_, j)", loves_model)

    def test_syntax_error_positions(self, loves_model):
        with pytest.raises(ParseError) as info:
            parse_formula("loves(m,", loves_model)
        assert info.value.line == 1 and info.value.column == 9
        with pytest.raises(ParseError):
            parse_formula("loves(m, j) loves(j, m)", loves_model)

    @pytest.mark.parametrize(
        "text, character, line, column",
        [
            ("p(zz) @", "@", 1, 7),
            ("(" * (MAX_DEPTH + 1) + "@", "@", 1, MAX_DEPTH + 2),
            ("~" * (MAX_DEPTH + 1) + "p(a)\n\u20ac", "\u20ac", 2, 1),
            ("exists q\n  %", "%", 2, 3),
            ("p(a) # @ in a comment\n& p(a) > p(a)", ">", 2, 8),
        ],
        ids=["unknown-atom", "too-deep", "too-deep-2", "unknown-name", "after-comment"],
    )
    def test_a_bad_character_outranks_earlier_errors(self, text, character, line, column):
        with pytest.raises(ParseError) as info:
            parse_formula(text, parse_model(ONE_ATOM_TEXT))
        assert type(info.value) is ParseError
        assert info.value.bare_message == f"unexpected character {character!r}"
        assert (info.value.line, info.value.column) == (line, column)

    def test_reserved_words_rejected_as_names(self, loves_model):
        with pytest.raises(ParseError):
            parse_formula("pred(j)", loves_model)


class TestPrintFormula:
    def test_minimal_parentheses(self, brown_dog_model):
        cases = [
            "~brown(a)",
            "~(brown(a) & dog(a))",
            "brown(a) & dog(a) | brown(b) -> dog(c)",
            "brown(a) -> dog(a) -> brown(b)",
            "(brown(a) -> dog(a)) -> brown(b)",
            "brown(a) & (dog(a) | brown(b))",
            "all (brown & dog) brown",
            "exists (brown | dog)",
            "exists (brown & dog & dog)",
        ]
        for text in cases:
            f = parse_formula(text, brown_dog_model)
            assert print_formula(f) == text
            assert parse_formula(print_formula(f), brown_dog_model) == f

    def test_round_trip_1000_random_formulas(self):
        rng = random.Random(73)
        for _ in range(1000):
            m = random_model(rng, max_domain=4)
            f = random_formula(rng, m, max_depth=4)
            printed = print_formula(f)
            assert parse_formula(printed, m) == f, printed

    def test_all_grammar_productions_reachable(self):
        rng = random.Random(79)
        needed = {
            Atom, RelAtom, Not, And, Or, Implies, ForAll, Exists,
            PredSet, PartialRel, Intersect, Union,
        }
        seen = set()

        def visit(node):
            seen.add(type(node))
            for attr in ("body", "left", "right", "subset", "superset"):
                child = getattr(node, attr, None)
                if child is not None and type(child) in needed:
                    visit(child)

        for _ in range(2000):
            m = random_model(rng, max_domain=3)
            visit(random_formula(rng, m, max_depth=4))
            if needed <= seen:
                break
        assert needed <= seen


class TestModelEquality:
    def test_extension_order_irrelevant(self):
        a = parse_model("domain x y\npred p: x y\n")
        b = parse_model("domain x y\npred p: y x\n")
        assert a == b

    def test_statement_order_irrelevant_for_symbols(self):
        a = parse_model("domain x\npred p:\npred q: x\n")
        b = parse_model("domain x\npred q: x\npred p:\n")
        assert a == b

    def test_domain_order_matters(self):
        assert parse_model("domain x y") != parse_model("domain y x")


# Each malformed model text with the error it must raise: class, message and
# 1-based (line, column).  An error at the end of a statement points just
# past its last token.  DuplicateNameError carries no position (0, 0 here).
MALFORMED_MODELS = [
    ("", ParseError, "empty model: expected a 'domain' statement", 1, 1),
    ("\n# only a comment\n\n", ParseError, "empty model: expected a 'domain' statement", 1, 1),
    ("pred p: a", ParseError, "model must start with a 'domain' statement", 1, 1),
    ("domain a\ndomain b", ParseError, "only one 'domain' statement is allowed", 2, 1),
    ("domain a\nfoo p: a", ParseError, "expected a 'pred' or 'rel' statement", 2, 1),
    ("domain a\n42", ParseError, "expected a 'pred' or 'rel' statement", 2, 1),
    ("domain a\npred p a", ParseError, "expected ':', found 'a'", 2, 8),
    ("domain a\nrel r 2: (a, a)", ParseError, "expected '/', found '2'", 2, 7),
    ("domain a\nrel r/: (a, a)", ParseError, "expected an arity, found ':'", 2, 7),
    ("domain a\nrel r/2 (a, a)", ParseError, "expected ':', found '('", 2, 9),
    ("domain a\nrel r/2: a", ParseError, "expected '(', found 'a'", 2, 10),
    ("domain a\nrel r/2: (a,)", ParseError, "expected an atom name, found ')'", 2, 13),
    ("domain all", ParseError, "'all' is a reserved word", 1, 8),
    ("domain a\npred exists: a", ParseError, "'exists' is a reserved word", 2, 6),
    ("domain a\nrel pred/1: (a)", ParseError, "'pred' is a reserved word", 2, 5),
    ("domain a $", ParseError, "unexpected character '$'", 1, 10),
    ("# c\n\n \ndomain a\npred p: a\nrel r/2: (a a)", ParseError, "expected ')', found 'a'", 6, 13),
    ("\n# c\ndomain a\npred p:\npred p:", DuplicateNameError, "symbol 'p' declared twice", 0, 0),
    ("domain\npred p:", ParseError, "'domain' needs at least one atom name", 1, 7),
    ("domain a\npred", ParseError, "expected a predicate name, found end of input", 2, 5),
    ("domain a\nrel r/", ParseError, "expected an arity, found end of input", 2, 7),
    ("domain a\nrel r/2", ParseError, "expected ':', found end of input", 2, 8),
    ("domain a\nrel r/2: (a, a", ParseError, "expected ')', found end of input", 2, 15),
    # An unexpected character anywhere outranks every other error.
    ("domain a\npred p: a\npred p: a\n$", ParseError, "unexpected character '$'", 4, 1),
    ("domain all\n\n  $", ParseError, "unexpected character '$'", 3, 3),
    ("pred p: a\n# $ in a comment\n-", ParseError, "unexpected character '-'", 3, 1),
    ("domain a -> >", ParseError, "unexpected character '>'", 1, 13),
]


@pytest.mark.parametrize("text,error,message,line,column", MALFORMED_MODELS)
def test_malformed_model_errors(text, error, message, line, column):
    with pytest.raises(error) as info:
        parse_model(text)
    assert type(info.value) is error
    if error is DuplicateNameError:  # carries no position
        assert str(info.value) == message
    else:
        assert info.value.bare_message == message
        assert (info.value.line, info.value.column) == (line, column)


class TestDepthLimit:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_at_the_limit_parses_and_evaluates(self, shape):
        m = parse_model(ONE_ATOM_TEXT)
        text, truth = DEEP_SHAPES[shape](MAX_DEPTH)
        f = parse_formula(text, m)
        assert evaluate(f, m).as_bool() is truth is oracle_eval(f, m)

    # One level past the limit, the error points at the token that crosses
    # it: the 101st '~', '(' or '->', the 101st '&' or '|' of a chain, and
    # for ``exists (p & ... & p)`` the parenthesis around its 100 '&'.
    @pytest.mark.parametrize(
        "shape,column",
        [("not", 101), ("parens", 101), ("and", 706), ("or", 706), ("implies", 806),
         ("exists", 8)],
    )
    def test_one_past_the_limit_is_a_positioned_error(self, shape, column):
        text, _ = DEEP_SHAPES[shape](MAX_DEPTH + 1)
        with pytest.raises(ParseError) as info:
            parse_formula("\n" + text, parse_model(ONE_ATOM_TEXT))
        assert info.value.bare_message == f"formula nests deeper than {MAX_DEPTH} levels"
        assert (info.value.line, info.value.column) == (2, column)

    def test_depth_counts_connectives_and_parentheses_together(self):
        m = parse_model(ONE_ATOM_TEXT)
        half = MAX_DEPTH // 2
        parse_formula("~(" * half + "p(a)" + ")" * half, m)
        with pytest.raises(ParseError):
            parse_formula("~(" * half + "~p(a)" + ")" * half, m)
        # A chain's first operand sits one level deeper per operator.
        chain = " & ".join(["p(a)"] * half)
        parse_formula("~" * (MAX_DEPTH - half) + "p(a) & " + chain, m)
        with pytest.raises(ParseError):
            parse_formula("~" * (MAX_DEPTH - half + 1) + "p(a) & " + chain, m)


# Fragments of model and formula text, valid and not, for texts that often
# get past the first few tokens before they go wrong.
TEXT_FRAGMENTS = [
    "domain", "pred", "rel", "exists", "all", "p", "a", "r", "(", ")", ",", ":",
    "/", "2", "_", "~", "&", "|", "->", "-", ">", "#", " ", "\t", "\n", "$",
    "\u00e9", "\u0663", "\x0b",
]
TEXTS = st.one_of(st.text(max_size=40), st.lists(st.sampled_from(TEXT_FRAGMENTS)).map("".join))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(text=TEXTS)
def test_the_tokenizer_error_is_every_parser_error(text):
    """Whenever reading all of a text's tokens fails, both parsers fail with
    that same error, whatever they would have found first."""
    try:
        list(_tokenize(text))
    except ParseError as err:
        expected = (err.bare_message, err.line, err.column)
    else:
        return
    for parse in (parse_model, lambda t: parse_formula(t, parse_model(ONE_ATOM_TEXT))):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.bare_message, info.value.line, info.value.column) == expected


@pytest.mark.parametrize(
    "text", ["(" * 3000 + "p0(e0)" + ")" * 3000, "~" * 3000 + "p0(e0)"], ids=["parens", "not"]
)
def test_deep_text_is_rejected_in_bounded_memory(text):
    # The parser gives up after about MAX_DEPTH tokens, so it needs to have
    # read no more than those.
    m = parse_model("domain e0\npred p0: e0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_formula(text, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 300_000
