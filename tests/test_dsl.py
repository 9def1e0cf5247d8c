"""Model and formula text formats: parsing, printing, round-trips, errors."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tensorlogic.dsl import (
    _accept_model,
    _parse_model_tokens,
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
    VAR,
    parse_formula,
    parse_model,
    print_formula,
    print_model,
)
from tensorlogic.errors import (
    ArityError,
    DimensionMismatchError,
    DuplicateNameError,
    EmbeddedQuantifierError,
    FormulaDepthError,
    ParseError,
    TensorLogicError,
    UnknownAtomError,
    UnknownNameError,
)
from tensorlogic.evaluator import compile_formula, evaluate, oracle_eval, oracle_set_eval
from tensorlogic.generate import random_formula, random_model
from tensorlogic.model import Model
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

    @pytest.mark.parametrize("name", ["a b", "all", "x-1", "_x"])
    @pytest.mark.parametrize("where", ["atom", "predicate", "relation"])
    def test_print_refuses_names_it_cannot_read_back(self, name, where):
        m = Model.from_names(
            ["z", name] if where == "atom" else ["z"],
            {name: ["z"]} if where == "predicate" else {"q": ["z"]},
            {name: (1, [("z",)])} if where == "relation" else {},
        )
        with pytest.raises(TensorLogicError) as info:
            print_model(m)
        assert str(info.value) == f"name {name!r} cannot be printed as model text"

    def test_print_names_the_first_unreadable_name(self):
        m = Model.from_names(["z", "a b"], {"x-1": ["z"]}, {"_x": (1, [])})
        with pytest.raises(TensorLogicError, match="'a b'"):
            print_model(m)
        m = Model.from_names(["z"], {"x-1": ["z"], "all": []}, {"_x": (1, [])})
        with pytest.raises(TensorLogicError, match="'all'"):
            print_model(m)

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

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("p(zz)", UnknownAtomError, "unknown atom: 'zz' (line 1, column 3)"),
            ("q(a)", UnknownNameError, "unknown predicate or relation: 'q' (line 1, column 1)"),
            ("exists q", UnknownNameError, "unknown predicate or relation: 'q' (line 1, column 8)"),
            ("p(a,b)", ArityError, "predicate 'p' takes 1 argument, got 2 (line 1, column 1)"),
            ("r(a)", ArityError, "relation 'r' has arity 2, got 1 argument (line 1, column 1)"),
            (
                "p(a) &\n  r(a, a, a)",
                ArityError,
                "relation 'r' has arity 2, got 3 arguments (line 2, column 3)",
            ),
            (
                "exists r",
                ArityError,
                "relation 'r' in set position needs bound arguments and an open slot, "
                "e.g. r(a, _) (line 1, column 8)",
            ),
            (
                "exists r(a, a, _)",
                ArityError,
                "partial application of 'r' (arity 2) needs 1 bound argument, got 2 "
                "(line 1, column 8)",
            ),
            ("all p r(zz, _)", UnknownAtomError, "unknown atom: 'zz' (line 1, column 9)"),
        ],
    )
    def test_binding_errors_give_the_position_of_the_name(self, text, error, message):
        m = parse_model("domain a b\npred p: a\nrel r/2: (a, b)\n")
        with pytest.raises(error) as info:
            parse_formula(text, m)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, tree, printed, truth",
        [
            ("~all greek human", Not(ForAll(PredSet("greek"), PredSet("human"))),
             "~all greek human", False),
            ("greek(socrates) & exists greek",
             And(Atom("greek", "socrates"), Exists(PredSet("greek"))),
             "greek(socrates) & exists greek", True),
            ("(all greek human)", ForAll(PredSet("greek"), PredSet("human")),
             "all greek human", True),
            # A quantifier's parenthesized operand is a formula over set
            # names, so '~' and '->' work there as '&' and '|' do.
            ("exists (human & ~greek)", Exists(And(PredSet("human"), Not(PredSet("greek")))),
             "exists (human & ~greek)", True),
            ("all greek (~human | greek)",
             ForAll(PredSet("greek"), Or(Not(PredSet("human")), PredSet("greek"))),
             "all greek (~human | greek)", True),
            ("exists (greek -> ~human)", Exists(Implies(PredSet("greek"), Not(PredSet("human")))),
             "exists (greek -> ~human)", True),
            ("~all (~greek) human", Not(ForAll(Not(PredSet("greek")), PredSet("human"))),
             "~all (~greek) human", False),
            ("all human (~greek)", ForAll(PredSet("human"), Not(PredSet("greek"))),
             "all human (~greek)", False),
        ],
        ids=["under-not", "under-and", "parenthesized", "operand-complement",
             "operand-complement-in-union", "operand-arrow", "operand-complement-as-subset",
             "operand-complement-as-superset"],
    )
    def test_a_quantifier_is_a_formula(self, greek_model, text, tree, printed, truth):
        f = parse_formula(text, greek_model)
        assert f == tree
        assert print_formula(f) == printed
        assert evaluate(f, greek_model).as_bool() is truth is oracle_eval(f, greek_model)

    def test_a_quantifier_inside_a_set_expression_is_refused(self, greek_model):
        with pytest.raises(EmbeddedQuantifierError) as info:
            parse_formula("all (all greek human) human", greek_model)
        assert info.value.bare_message == "quantifiers cannot be nested inside set expressions"
        assert (info.value.line, info.value.column) == (1, 6)

    @pytest.mark.parametrize(
        "text, error, message, column",
        [
            ("exists ~greek", ParseError, "expected a predicate or relation name, found '~'", 8),
            ("exists (greek & exists human)", EmbeddedQuantifierError,
             "quantifiers cannot be nested inside set expressions", 17),
        ],
        ids=["unparenthesized", "nested-quantifier"],
    )
    def test_quantifier_operands_stay_refused(self, greek_model, text, error, message, column):
        with pytest.raises(error) as info:
            parse_formula(text, greek_model)
        assert type(info.value) is error
        assert info.value.bare_message == message
        assert (info.value.line, info.value.column) == (1, column)

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
            "exists (brown & (dog | brown))",
            "exists (brown | dog & brown)",
            "exists ((brown | dog) & brown)",
            "exists (brown & (dog & brown))",
            "exists (brown | (dog | brown))",
            "all (brown | dog) (dog & (brown | dog))",
        ]
        for text in cases:
            f = parse_formula(text, brown_dog_model)
            assert print_formula(f) == text
            assert parse_formula(print_formula(f), brown_dog_model) == f

    # An open formula, one over VAR, stands only as a quantifier operand, and
    # an operand is always one: compile refuses any other tree.  The oracle
    # refuses VAR outside every quantifier and answers any other tree as
    # first-order logic does.
    @pytest.mark.parametrize(
        "f, error, oracle",
        [
            (Intersect(PredSet("brown"), PredSet("dog")), DimensionMismatchError, None),
            (Not(Union(PredSet("brown"), PredSet("dog"))), DimensionMismatchError, None),
            (Exists(And(Atom("brown", "a"), Atom("dog", "a"))), DimensionMismatchError, False),
            (ForAll(PredSet("dog"),
                    Union(PredSet("brown"), Or(Atom("dog", "a"), Atom("dog", "b")))),
             DimensionMismatchError, True),
            (Exists(RelAtom("near", (VAR, "b"))), TensorLogicError, True),
        ],
        ids=["set-as-formula", "set-under-not", "formula-as-set", "formula-under-union",
             "open-slot-not-last"],
    )
    def test_a_tree_compile_cannot_shape_is_refused(self, f, error, oracle):
        m = parse_model(BROWN_DOG_TEXT + "rel near/2: (a, b)\n")
        for call in (compile_formula, evaluate):
            with pytest.raises(error):
                call(f, m)
        assert not any(key.startswith("rel:") for key in m._tensors)
        if oracle is None:
            with pytest.raises(DimensionMismatchError):
                oracle_eval(f, m)
        else:
            assert oracle_eval(f, m) is oracle

    def test_round_trip_1000_random_formulas(self):
        rng = random.Random(73)
        for _ in range(1000):
            m = random_model(rng, max_domain=4)
            f = random_formula(rng, m, max_depth=4)
            printed = print_formula(f)
            assert parse_formula(printed, m) == f, printed

    def test_all_grammar_productions_reachable(self):
        # Each node type, and each kind of application, closed and open, and
        # each connective under a quantifier.
        rng = random.Random(79)
        needed = {
            (node, False) for node in (Atom, RelAtom, Not, And, Or, Implies, ForAll, Exists)
        } | {(Atom, True), (RelAtom, True), (And, True), (Or, True)}
        seen = set()

        def visit(node, quantified=False):
            if isinstance(node, Atom):
                seen.add((Atom, node.arg is VAR))
            elif isinstance(node, RelAtom):
                seen.add((RelAtom, node.args[-1] is VAR))
            else:
                seen.add((type(node), quantified))
            quantified |= isinstance(node, (ForAll, Exists))
            for attr in ("body", "left", "right", "subset", "superset"):
                child = getattr(node, attr, None)
                if child is not None:
                    visit(child, quantified)

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
# past its last token.  Errors other than ParseError carry no position (0, 0
# here).
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
    ("\n# c\ndomain a\npred p:\npred p:", DuplicateNameError, "symbol 'p' declared twice", 5, 6),
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
    ("domain a\r\ndomain b\r\n", ParseError, "only one 'domain' statement is allowed", 2, 1),
    ("# header\npred p: a", ParseError, "model must start with a 'domain' statement", 2, 1),
    ("domain a\nrel r/2: (a, all)", ParseError, "'all' is a reserved word", 2, 14),
    ("domain a\npred p: a\nrel p/1: (a)", DuplicateNameError, "symbol 'p' declared twice", 3, 5),
    ("domain a\nrel r/2: (a, a) (a)", ArityError,
     "tuple ('a',) has length 1, relation 'r' has arity 2", 2, 17),
    ("domain a\nrel r/0:", ArityError, "relation 'r' declared with arity 0", 2, 7),
    # More digits than int() reads by default (4,300).
    ("domain a\nrel r/" + "1" * 5000 + ":", ParseError, "arity has too many digits (5000)", 2, 7),
]


@pytest.mark.parametrize("text,error,message,line,column", MALFORMED_MODELS)
def test_malformed_model_errors(text, error, message, line, column):
    with pytest.raises(error) as info:
        parse_model(text)
    assert type(info.value) is error
    if not issubclass(error, ParseError):  # a binding error: the message ends with it
        assert str(info.value) == f"{message} (line {line}, column {column})"
    else:
        assert info.value.bare_message == message
        assert (info.value.line, info.value.column) == (line, column)


def _token_parse(text):
    return Model.from_names(*_parse_model_tokens(text))


def _outcome(parse, text):
    """The model ``parse`` gives for ``text``, or its error's class, message
    and position."""
    try:
        return parse(text)
    except TensorLogicError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


# Model texts at the edges of what the statement patterns accept, and whether
# they accept it: the token parser reads the rest, and raises every error.
EDGE_MODELS = {
    "crlf": ("domain a b\r\npred p: a\r\nrel r/2: (a, b)\r\n", True),
    # Only "\n" ends a statement; other line breaks are whitespace.
    "lone-cr": ("domain a\rpred p: a", False),
    "line-separators": ("domain a\x0bb\x0cc\u2028d\x85e\npred p: a\u2029b", True),
    "tab-nbsp": ("domain\ta\u00a0b\npred\u00a0p :\tb\nrel r\t/ 2 :(a,b)\u00a0(b , a)", True),
    "comment-at-end": ("domain a\npred p: a # the end", True),
    "arity-leading-zero": ("domain a\nrel r/02: (a, a)", False),
    "arity-non-ascii": ("domain a\nrel r/\u0662: (a, a)", False),
    "reserved-in-tuple": ("domain a\nrel r/2: (a, all)", False),
    "digit-first-name": ("domain a 2b\npred p: a", False),
    "underscore-first-name": ("domain a\npred p: a _a", False),
    "duplicate-symbol": ("domain a\npred p: a\nrel p/1: (a)", False),
    "tuple-too-short": ("domain a\nrel r/2: (a, a) (a)", False),
    "arity-1": ("domain a b\nrel r/1: (a) ( b )", True),
    "empty-bodies": ("domain a\npred p:\nrel r/3:   ", True),
    "two-domains": ("domain a\r\ndomain b\r\n", False),
    "no-domain": ("# header\npred p: a", False),
    # Model.from_names raises these on either path.
    "unknown-atom": ("domain a\npred p: b\nrel r/1: (c)", True),
    "symbol-is-atom": ("domain a p\npred p: a", True),
}


@pytest.mark.parametrize("case", EDGE_MODELS)
def test_edge_models_match_the_token_parser(case):
    text, accepted = EDGE_MODELS[case]
    assert (_accept_model(text) is not None) is accepted
    assert _outcome(parse_model, text) == _outcome(_token_parse, text)


def test_printed_models_take_the_accept_path():
    rng = random.Random(83)
    for _ in range(200):
        text = print_model(random_model(rng, max_domain=5))
        assert _accept_model(text) == _parse_model_tokens(text)


# Mostly valid choices, with a reserved word and a name clash now and then.
ATOM_NAMES = ["a", "b", "c", "x1", "y_2", "a", "b", "c", "all"]
SYMBOL_NAMES = ["p", "q", "r", "s", "t", "p", "q", "r", "s", "t", "a", "rel"]
GAPS = ["", "", " ", "\t", "\u00a0", "\r", " \x0c"]
SEPARATORS = [" ", " ", "  ", "\t", "\u00a0", "\x0b"]
MUTATIONS = [
    "domain", "pred", "rel", "all", "(", ")", ",", ":", "/", "0", "02", "\u0662", "a",
    "_", "$", "#", "\n", " ", "\r\n", "\r", "\x0b", "\u2028", "->", "\u00e9",
]


@st.composite
def model_texts(draw):
    """Model text from the grammar, with random whitespace and comments, then
    at most one insertion, deletion or replacement of a fragment."""
    def gap():
        return draw(st.sampled_from(GAPS))

    def sep():
        return draw(st.sampled_from(SEPARATORS))

    atoms = draw(st.lists(st.sampled_from(ATOM_NAMES), min_size=1, max_size=4))
    lines = [gap() + "domain" + "".join(sep() + a for a in atoms) + gap()]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(SYMBOL_NAMES))
        if draw(st.booleans()):
            members = draw(st.lists(st.sampled_from(atoms), max_size=3))
            body = "".join(sep() + a for a in members)
            lines.append(gap() + "pred" + sep() + name + gap() + ":" + body + gap())
        else:
            arity = draw(st.integers(1, 3))
            # The token parser also reads a leading zero and non-ASCII digits.
            arity_text = draw(st.sampled_from([str(arity)] * 4 + ["0" + str(arity),
                                                                  chr(0x0660 + arity)]))
            tuples = draw(st.lists(st.lists(st.sampled_from(atoms), min_size=arity,
                                            max_size=arity), max_size=3))
            body = "".join(
                gap() + "(" + gap() + (gap() + "," + gap()).join(t) + gap() + ")"
                for t in tuples
            )
            lines.append(
                gap() + "rel" + sep() + name + gap() + "/" + gap() + arity_text + gap() + ":"
                + body + gap()
            )
    statements = []
    for line in lines:
        if draw(st.booleans()):
            statements.append(draw(st.sampled_from(["", " ", "# note", " # $ (a"])))
        statements.append(line + draw(st.sampled_from(["", "", " # c", "#(a, b)"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(statements)
    text += draw(st.sampled_from(["", "\n", "# end"]))
    where = draw(st.integers(0, len(text)))
    fragment = draw(st.sampled_from(MUTATIONS))
    mutation = draw(st.sampled_from(["none", "none", "none", "insert", "delete", "replace"]))
    if mutation == "insert":
        text = text[:where] + fragment + text[where:]
    elif mutation == "delete":
        text = text[:where] + text[where + 1:]
    elif mutation == "replace":
        text = text[:where] + fragment + text[where + 1:]
    return text


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(text=model_texts())
def test_the_accept_path_agrees_with_the_token_parser(text):
    assert _outcome(parse_model, text) == _outcome(_token_parse, text)


class TestDepthLimit:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_at_the_limit_parses_and_evaluates(self, shape):
        m = parse_model(ONE_ATOM_TEXT)
        text, truth = DEEP_SHAPES[shape](MAX_DEPTH)
        f = parse_formula(text, m)
        assert evaluate(f, m).as_bool() is truth is oracle_eval(f, m)

    # One level past the limit, the error points at the token that crosses
    # it: the 101st '~', '(' or '->', the 101st '&' or '|' of a chain, for
    # ``exists (p & ... & p)`` the parenthesis around its 100 '&', for
    # ``~...~exists (...)`` the outermost '~', since a quantifier adds no level,
    # and for ``exists (~...~p)`` the 100th '~' inside the parenthesis.
    @pytest.mark.parametrize(
        "shape,column",
        [("not", 101), ("parens", 101), ("and", 706), ("or", 706), ("implies", 806),
         ("exists", 8), ("not-exists", 1), ("exists-not", 108)],
    )
    def test_one_past_the_limit_is_a_positioned_error(self, shape, column):
        text, _ = DEEP_SHAPES[shape](MAX_DEPTH + 1)
        with pytest.raises(ParseError) as info:
            parse_formula("\n" + text, parse_model(ONE_ATOM_TEXT))
        assert info.value.bare_message == f"formula nests deeper than {MAX_DEPTH} levels"
        assert (info.value.line, info.value.column) == (2, column)

    # An AST built in code has no depth limit, but one deeper than the
    # interpreter's stack is an engine error, not a RecursionError.
    @pytest.mark.parametrize("combine", [lambda f: Not(f), lambda f: And(f, Atom("p", "a"))],
                             ids=["not", "left-nested-and"])
    def test_an_ast_too_deep_for_the_stack_is_a_depth_error(self, combine):
        m = parse_model(ONE_ATOM_TEXT)
        f = Atom("p", "a")
        for _ in range(5000):
            f = combine(f)
        for call in (lambda: evaluate(f, m), lambda: oracle_eval(f, m),
                     lambda: print_formula(f)):
            with pytest.raises(FormulaDepthError):
                call()

    def test_a_set_expression_too_deep_for_the_stack_is_a_depth_error(self):
        m = parse_model(ONE_ATOM_TEXT)
        e = PredSet("p")
        for _ in range(5000):
            e = Intersect(e, PredSet("p"))
        for call in (lambda: oracle_set_eval(e, m), lambda: evaluate(Exists(e), m),
                     lambda: oracle_eval(Exists(e), m), lambda: print_formula(Exists(e))):
            with pytest.raises(FormulaDepthError):
                call()

    # Printing, compiling and the oracle each recurse once per level, so an
    # AST one of them takes is not too deep for the others.
    @pytest.mark.parametrize(
        "leaf, combine, root",
        [
            (Atom("p", "a"), lambda f: And(f, Atom("p", "a")), lambda f: f),
            (Atom("p", "a"), lambda f: Implies(Atom("p", "a"), f), lambda f: f),
            (PredSet("p"), lambda e: Union(PredSet("p"), e), Exists),
        ],
        ids=["left-nested-and", "right-nested-implies", "right-nested-union"],
    )
    def test_every_path_takes_an_ast_700_deep(self, leaf, combine, root):
        m = parse_model(ONE_ATOM_TEXT)
        node = leaf
        for _ in range(700):
            node = combine(node)
        f = root(node)
        assert evaluate(f, m).as_bool() is oracle_eval(f, m) is True
        assert print_formula(f).count("p") == 701

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
    "text",
    ["(" * 3000 + "p0(e0)" + ")" * 3000, "~" * 3000 + "p0(e0)", " & ".join(["p0(e0)"] * 3000)],
    ids=["parens", "not", "and-chain"],
)
def test_deep_text_is_rejected_in_bounded_memory(text):
    # The parser gives up after about MAX_DEPTH tokens, so it needs to have
    # read no more than those, of the flat chain's 14,999 as of the others.
    m = parse_model("domain e0\npred p0: e0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="nests deeper than"):
            parse_formula(text, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 300_000


# A seeded corpus for the pin below: formula and model texts built from the
# grammar, as token soup, and mutated, with comments, "\r\n", tabs, Unicode
# spaces and digits and reserved words between the tokens.
CORPUS_MODEL_TEXT = (
    "domain a b c\npred p: a b\npred q: c\nrel r/2: (a, b) (b, c)\nrel s/3: (a, b, c)\n"
)
CORPUS_GAPS = [
    " ", " ", " ", "", "  ", "\t", "\n", "\r\n", "\x0b", "\u00a0", "\u2003", " # note & p(a)\n",
]
CORPUS_FRAGMENTS = [
    *TEXT_FRAGMENTS, "q", "s", "b", "c", "zz", "rel", "2b", "a1", "_a", "00", "\u0662", "\r\n",
    "# c\n", "->", "p(a)", "(a, _)", "r(a, b)", "s(a, b, _)", "/0", "/\u0663:", ": a b",
    "(a, b)", "domain a b", "\npred q: c", "\nrel t/2: (a, a)", "\u00a0", "\x85", "\u2003",
    " & ", " | ", " -> ", "~", "(", ")", ", ", "exists p", "all q ", "p", "a", "\n", " ",
]


def _corpus_formula(rng, depth):
    """Tokens of a formula over ``CORPUS_MODEL_TEXT``: valid but for an
    unknown name, a wrong argument count or a misplaced open slot now and
    then."""
    def atom():
        return rng.choice("abc" * 8 + "z")

    def operand(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return rng.choice([
                ["p"], ["q"], ["r", "(", atom(), ",", "_", ")"],
                ["s", "(", atom(), ",", atom(), ",", "_", ")"],
            ] * 3 + [["r", "(", "_", ")"], ["s", "(", atom(), ",", "_", ",", atom(), ")"]])
        return ["(", *formula(depth - 1, in_operand=True), ")"]

    def formula(depth, in_operand=False):
        roll = rng.random()
        if in_operand and roll < 0.15:
            return operand(depth)
        if depth == 0 or roll < 0.3:
            if in_operand:
                return operand(0)
            return rng.choice([
                ["p", "(", atom(), ")"], ["q", "(", atom(), ")"],
                ["r", "(", atom(), ",", atom(), ")"],
                ["s", "(", atom(), ",", atom(), ",", atom(), ")"],
            ] * 3 + [
                ["s", "(", atom(), ",", atom(), ")"], ["p", "(", atom(), ",", atom(), ")"],
                ["t", "(", atom(), ")"],
            ])
        if roll < 0.45:
            return ["~", *formula(depth - 1, in_operand)]
        if roll < 0.55:
            return ["(", *formula(depth - 1, in_operand), ")"]
        if roll < 0.7 and not in_operand:
            if rng.random() < 0.5:
                return ["exists", *operand(depth - 1)]
            return ["all", *operand(depth - 1), *operand(depth - 1)]
        op = rng.choice(["&", "|", "->"])
        return [*formula(depth - 1, in_operand), op, *formula(depth - 1, in_operand)]

    return formula(depth)


def _corpus_model(rng):
    """Tokens of model text, one statement a line: valid but for a reserved
    word, a name clash, an unknown atom, a tuple's length or an arity now
    and then."""
    atoms = rng.sample(["a", "b", "c", "x1", "y_2", "a"], rng.randint(rng.random() > 0.05, 4))
    if rng.random() < 0.05:
        atoms.append("all")
    names = atoms + ["zz"] if rng.random() < 0.1 else atoms or ["a"]
    symbols = rng.sample(["p", "q", "r", "s", "t", "u", "p", "a"], rng.randint(0, 4))
    if rng.random() < 0.05:
        symbols.append("rel")
    lines = [["domain", *atoms]]
    for symbol in symbols:
        if rng.random() < 0.5:
            lines.append(["pred", symbol, ":", *rng.choices(names, k=rng.randint(0, 3))])
            continue
        arity = rng.randint(1, 3)
        body = []
        for _ in range(rng.randint(0, 3)):
            members = rng.choices(names, k=arity + (rng.random() < 0.1))
            body += ["(", *" , ".join(members).split(" "), ")"]
        arity_text = rng.choice([str(arity)] * 6 + ["0", "0" + str(arity), chr(0x0660 + arity)])
        lines.append(["rel", symbol, "/", arity_text, ":", *body])
    if rng.random() < 0.1:
        rng.shuffle(lines)
    return lines


def _corpus_join(rng, tokens, gaps):
    return "".join(token + rng.choice(gaps) for token in tokens)


def _corpus_mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        where = rng.randint(0, len(text))
        fragment = rng.choice(CORPUS_FRAGMENTS)
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:where] + fragment + text[where:]
        elif kind == 1:
            text = text[:where] + text[where + rng.randint(1, 4):]
        elif kind == 2:
            text = text[:where] + fragment + text[where + 1:]
        elif kind == 3:
            text = text[where:] + text[:where]
        else:
            text = text[:where]
    return text


def _corpus_texts(rng):
    """5,000 formula texts and 2,000 model texts, a third of each token soup,
    a third from the grammar and a third from the grammar and mutated."""
    formulas, models = [], []
    for i in range(5000):
        if i % 3 == 0:
            text = "".join(rng.choice(CORPUS_FRAGMENTS) for _ in range(rng.randint(0, 30)))
        else:
            text = _corpus_join(rng, _corpus_formula(rng, rng.randint(0, 5)), CORPUS_GAPS)
            if i % 3 == 2:
                text = _corpus_mutate(rng, text)
        formulas.append(text)
    model_gaps = [gap for gap in CORPUS_GAPS if gap and "\n" not in gap]
    for i in range(2000):
        if i % 3 == 0:
            text = "".join(rng.choice(CORPUS_FRAGMENTS) for _ in range(rng.randint(0, 30)))
        else:
            text = rng.choice(["\n", "\r\n", "\n\n# note\n"]).join(
                _corpus_join(rng, line, model_gaps) + rng.choice(["", "", " # c"])
                for line in _corpus_model(rng)
            )
            if i % 3 == 2:
                text = _corpus_mutate(rng, text)
        models.append(text)
    return formulas, models


def test_parse_outcomes_on_a_seeded_corpus_are_pinned():
    """The AST or model each text parses to, or its error's class, message,
    line and column, for every text of the corpus; the sha256 was taken
    before the tokenizer read tokens as regex matches."""
    formulas, models = _corpus_texts(random.Random(20))
    m = parse_model(CORPUS_MODEL_TEXT)
    outcomes = [repr(_outcome(lambda t: parse_formula(t, m), text)) for text in formulas]
    outcomes += [repr(_outcome(lambda t: print_model(parse_model(t)), text)) for text in models]
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "b87069ce004cff51b5bad878f2c5d98fb92abdd2fb8d0dd52a23b474438f10a0"
