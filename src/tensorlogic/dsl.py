"""Text formats for models and formulas, with parsers and printers.

Model files hold one statement per line: a statement ends at a newline or
at the end of the text, and blank lines are skipped.  ``#`` starts a comment
that runs to the end of the line::

    domain john chris tom          # one statement, declaration order matters
    pred mathematician: john chris # extension may be empty
    rel loves/2: (john, john) (chris, john)

Formulas are whitespace-insensitive.  Connective precedence from tightest to
loosest is ``~``, ``&``, ``|``, ``->``; the arrow is right-associative, the
other binaries left-associative::

    formula   := 'all' setarg setarg | 'exists' setarg | implies
    implies   := or ('->' implies)?
    or        := and ('|' and)*
    and       := unary ('&' unary)*
    unary     := '~' unary | primary
    primary   := name '(' name (',' name)* ')' | '(' implies ')'
    setarg    := predname | relname '(' (name ',')* '_' ')' | '(' setexpr ')'
    setexpr   := setand ('|' setand)*
    setand    := setarg ('&' setarg)*

Predicate and relation namespaces are disjoint, so the parser can tell a bare
predicate name from a relation application in set position without lookahead.

Set expressions appear only under the two quantifier keywords; a compound set
expression in argument position must be parenthesized, e.g.
``exists (brown & dog)``.  Partial application of a relation leaves exactly
one open slot, written ``_`` in the last argument position, e.g.
``exists loves(john, _)`` for "there is someone John loves".  Quantifiers are
only legal at the very top of a formula; anywhere else they raise
:class:`EmbeddedQuantifierError`.

A formula nests at most :data:`MAX_DEPTH` levels deep, counting every
connective and every pair of parentheses around its deepest atom; deeper text
is a :class:`ParseError` at the token that crosses the limit.

Model text is accepted statement by statement by whole-line patterns, and
the token parser reports every error: text that any pattern does not take is
read again by the token parser, so a model's errors, messages and positions
are the token parser's alone.  That parser, like the formula parser, reads
tokens on demand, after one check of the whole text's characters: an
unexpected character anywhere is the error reported, whatever else is wrong
before it, and formula text nested too deep is rejected after reading about
:data:`MAX_DEPTH` tokens, not all of them.

``domain``, ``pred``, ``rel``, ``all`` and ``exists`` are reserved words and
cannot name atoms, predicates, or relations.  Names start with a letter and
continue with letters, digits, or underscores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, Iterator, NamedTuple

from .errors import (
    ArityError,
    DuplicateNameError,
    EmbeddedQuantifierError,
    FormulaDepthError,
    ParseError,
    TensorLogicError,
    UnknownAtomError,
    UnknownNameError,
)
from .model import Model

RESERVED = frozenset({"domain", "pred", "rel", "all", "exists"})


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Atom:
    """Predicate applied to a single named atom."""

    pred: str
    arg: str


@dataclass(frozen=True)
class RelAtom:
    """Relation applied to a full tuple of named atoms, first argument first."""

    rel: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class PredSet:
    """A predicate's extension, used as a set."""

    name: str


@dataclass(frozen=True)
class PartialRel:
    """Relation with all arguments but the last bound; denotes the set of
    atoms that fill the open slot."""

    rel: str
    bound: tuple[str, ...]


@dataclass(frozen=True)
class Intersect:
    left: "SetExpr"
    right: "SetExpr"


@dataclass(frozen=True)
class Union:
    left: "SetExpr"
    right: "SetExpr"


SetExpr = PredSet | PartialRel | Intersect | Union


@dataclass(frozen=True)
class ForAll:
    """Subset assertion: every member of ``subset`` is in ``superset``."""

    subset: SetExpr
    superset: SetExpr


@dataclass(frozen=True)
class Exists:
    """Nonemptiness assertion for a set expression."""

    body: SetExpr


Formula = Atom | RelAtom | Not | And | Or | Implies | ForAll | Exists


# ---------------------------------------------------------------------------
# Tokenizer

#: A name, as the tokenizer and the model accept path read one.
_NAME = "[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

_TOKEN_RE = re.compile(
    rf"""(?P<ws>[^\S\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<arrow>->)
      | (?P<name>{_NAME})
      | (?P<int>\d+)
      | (?P<underscore>_)
      | (?P<sym>[(),:/~&|])
    """,
    re.VERBOSE,
)

#: The longest prefix of a text that ``_TOKEN_RE`` splits into tokens with no
#: character left over: it ends at the text's first unexpected character.
_VALID_PREFIX_RE = re.compile(r"(?:[A-Za-z\d_(),:/~&|\s]+|#[^\n]*|->)*")

#: Token kinds a model's statements are read without, and a formula's.
_MODEL_SKIP = ("ws", "comment")
_FORMULA_SKIP = ("ws", "comment", "newline")

#: Token kinds that end a model statement.
_STATEMENT_END = ("newline", "eof")


class _Token(NamedTuple):
    kind: str  # name | int | underscore | arrow | newline | ( ) , : / ~ & | eof
    text: str
    line: int
    column: int


def _tokenize(text: str, skip: tuple[str, ...] = _MODEL_SKIP) -> Iterator[_Token]:
    """The tokens of ``text`` but those of a kind in ``skip``, read on demand
    and ending in one ``eof`` token.

    Before the first token, the whole text's characters are checked, so an
    unexpected character anywhere is the error, whatever a parser would have
    found in the tokens before it.
    """
    bad = _VALID_PREFIX_RE.match(text).end()
    if bad < len(text):
        line_start = text.rfind("\n", 0, bad) + 1
        raise ParseError(
            f"unexpected character {text[bad]!r}",
            text.count("\n", 0, line_start) + 1,
            bad - line_start + 1,
        )
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind not in skip:
            value = match.group()
            yield _Token(
                value if kind == "sym" else kind, value, line, match.start() - line_start + 1
            )
        if kind == "newline":
            line += 1
            line_start = match.end()
    yield _Token("eof", "", line, len(text) - line_start + 1)


class _TokenStream:
    """One token of lookahead over a token iterator that ends in ``eof``."""

    def __init__(self, tokens: Iterator[_Token]):
        self._tokens = tokens
        self._next = next(tokens)

    def peek(self) -> _Token:
        return self._next

    def advance(self) -> _Token:
        token = self._next
        if token.kind != "eof":
            self._next = next(self._tokens)
        return token

    def at_statement_end(self) -> bool:
        return self._next.kind in _STATEMENT_END

    def expect(self, kind: str, what: str | None = None) -> _Token:
        token = self._next
        if token.kind != kind:
            expected = what or f"{kind!r}"
            found = "end of input" if token.kind in _STATEMENT_END else repr(token.text)
            raise ParseError(f"expected {expected}, found {found}", token.line, token.column)
        return self.advance()

    def error(self, message: str) -> ParseError:
        token = self._next
        return ParseError(message, token.line, token.column)


def _expect_name(stream: _TokenStream, what: str) -> _Token:
    token = stream.expect("name", what)
    if token.text in RESERVED:
        raise ParseError(f"{token.text!r} is a reserved word", token.line, token.column)
    return token


def _names_to_statement_end(stream: _TokenStream) -> list[str]:
    names = []
    while not stream.at_statement_end():
        names.append(_expect_name(stream, "an atom name").text)
    return names


# ---------------------------------------------------------------------------
# Model format


def parse_model(text: str) -> Model:
    """Parse model text into a validated :class:`Model`.

    Model text is accepted statement by statement by whole-line patterns;
    text they do not take, and every error, goes to the token parser.
    """
    declarations = _accept_model(text) or _parse_model_tokens(text)
    return Model.from_names(*declarations)


#: The head of a statement; its body follows the colon.
_PRED_RE = re.compile(rf"\s*pred\s+({_NAME})\s*:(.*)")
_REL_RE = re.compile(rf"\s*rel\s+({_NAME})\s*/\s*([1-9][0-9]{{0,3}})\s*:(.*)")
#: One item of a body, with the whitespace before it.
_NAME_ITEM_RE = re.compile(rf"\s*{_NAME}")

_Declarations = tuple[
    list[str], dict[str, list[str]], dict[str, tuple[int, list[tuple[str, ...]]]]
]


@lru_cache(maxsize=8)
def _tuple_item_re(arity: int) -> re.Pattern:
    """One ``arity``-tuple of a ``rel`` body, with the whitespace before it."""
    return re.compile(rf"\s*\(\s*{_NAME}(?:\s*,\s*{_NAME}){{{arity - 1}}}\s*\)")


def _only_items(item_re: re.Pattern, body: str) -> bool:
    """Whether ``body`` is nothing but ``item_re`` items and whitespace.

    Deleting the items match by match holds memory for one item at a time;
    one pattern repeated over the whole body would hold it for every item,
    about 50 bytes a character.
    """
    return not item_re.sub("", body).strip()


def _accept_model(text: str) -> _Declarations | None:
    """The declarations of ``text`` when every statement in it matches its
    kind's pattern, or ``None``.

    The patterns take a strict subset of the text :func:`_parse_model_tokens`
    parses without error, and give the same declarations for it: ASCII
    names that are not reserved words, symbols declared once, and an arity
    of at most four ASCII digits.
    """
    atom_names: list[str] = []
    predicates: dict[str, list[str]] = {}
    relations: dict[str, tuple[int, list[tuple[str, ...]]]] = {}
    for line in text.split("\n"):
        statement = line.partition("#")[0]
        words = statement.split(None, 1)
        if not words:
            continue
        keyword = words[0]
        if not atom_names:
            if keyword != "domain" or len(words) < 2:
                return None
            if not _only_items(_NAME_ITEM_RE, words[1]):
                return None
            atom_names = words[1].split()
            if not RESERVED.isdisjoint(atom_names):
                return None
            continue
        if keyword == "pred":
            match = _PRED_RE.fullmatch(statement)
            if match is None or not _only_items(_NAME_ITEM_RE, match[2]):
                return None
            name, members = match[1], match[2].split()
        elif keyword == "rel":
            match = _REL_RE.fullmatch(statement)
            if match is None:
                return None
            name, arity, body = match[1], int(match[2]), match[3]
            if not _only_items(_tuple_item_re(arity), body):
                return None
            # The body holds only tuples, so its names are all that the
            # brackets and commas separate.
            members = body.replace("(", " ").replace(")", " ").replace(",", " ").split()
        else:
            return None
        if (
            name in RESERVED
            or name in predicates
            or name in relations
            or not RESERVED.isdisjoint(members)
        ):
            return None
        if keyword == "pred":
            predicates[name] = members
        else:
            relations[name] = (arity, list(zip(*[iter(members)] * arity)))
    if not atom_names:
        return None
    return atom_names, predicates, relations


def _parse_model_tokens(text: str) -> _Declarations:
    """The declarations of ``text``, read token by token; the parser that
    reports every error in model text."""
    stream = _TokenStream(_tokenize(text))
    atom_names: list[str] = []
    predicates: dict[str, list[str]] = {}
    relations: dict[str, tuple[int, list[tuple[str, ...]]]] = {}
    while (head := stream.advance()).kind != "eof":
        if head.kind == "newline":
            continue
        keyword = head.text if head.kind == "name" else None
        if not atom_names:
            if keyword != "domain":
                raise ParseError(
                    "model must start with a 'domain' statement", head.line, head.column
                )
            atom_names = _names_to_statement_end(stream)
            if not atom_names:
                raise stream.error("'domain' needs at least one atom name")
            continue
        if keyword == "domain":
            raise ParseError("only one 'domain' statement is allowed", head.line, head.column)
        if keyword not in ("pred", "rel"):
            raise ParseError("expected a 'pred' or 'rel' statement", head.line, head.column)
        kind = "predicate" if keyword == "pred" else "relation"
        name_token = _expect_name(stream, f"a {kind} name")
        name = name_token.text
        if name in predicates or name in relations:
            raise DuplicateNameError(f"symbol {name!r} declared twice {_position(name_token)}")
        if keyword == "pred":
            stream.expect(":")
            predicates[name] = _names_to_statement_end(stream)
            continue
        stream.expect("/")
        token = stream.expect("int", "an arity")
        try:
            arity = int(token.text)
        except ValueError:  # more digits than int() will read
            raise ParseError(
                f"arity has too many digits ({len(token.text)})", token.line, token.column
            ) from None
        if arity < 1:
            raise ArityError(f"relation {name!r} declared with arity {arity} {_position(token)}")
        stream.expect(":")
        tuples: list[tuple[str, ...]] = []
        while not stream.at_statement_end():
            opening = stream.expect("(")
            members = [_expect_name(stream, "an atom name").text]
            while stream.peek().kind == ",":
                stream.advance()
                members.append(_expect_name(stream, "an atom name").text)
            stream.expect(")")
            if len(members) != arity:
                raise ArityError(
                    f"tuple {tuple(members)} has length {len(members)}, "
                    f"relation {name!r} has arity {arity} {_position(opening)}"
                )
            tuples.append(tuple(members))
        relations[name] = (arity, tuples)

    if not atom_names:
        raise ParseError("empty model: expected a 'domain' statement", 1, 1)
    return atom_names, predicates, relations


def print_model(m: Model) -> str:
    """Canonical model text; re-parses to an equal model.

    A name the grammar cannot read back, such as ``"a b"`` or a reserved
    word, raises :class:`TensorLogicError`; the first such name in printed
    order is the one named.
    """
    predicates, relations = sorted(m.predicates), sorted(m.relations)
    for name in (*m.atom_names, *predicates, *relations):
        if name in RESERVED or _NAME_RE.fullmatch(name) is None:
            raise TensorLogicError(f"name {name!r} cannot be printed as model text")
    lines = ["domain " + " ".join(m.atom_names)]
    index_to_name = m.atom_names
    for name in predicates:
        members = " ".join(index_to_name[i] for i in sorted(m.predicates[name]))
        lines.append(f"pred {name}:" + (f" {members}" if members else ""))
    for name in relations:
        decl = m.relations[name]
        tuples = " ".join(
            "(" + ", ".join(index_to_name[i] for i in tup) + ")"
            for tup in sorted(decl.tuples)
        )
        lines.append(f"rel {name}/{decl.arity}:" + (f" {tuples}" if tuples else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Formula parsing


#: The deepest a formula's text may nest: see :class:`_FormulaParser`.  It
#: bounds the recursion of parsing, compiling and the oracle alike.
MAX_DEPTH = 100


def _position(token: _Token) -> str:
    """Where ``token`` starts, as a :class:`ParseError` message ends."""
    return f"(line {token.line}, column {token.column})"


def _count(number: int, noun: str) -> str:
    return f"{number} {noun}" + ("" if number == 1 else "s")


def _too_deep(token: _Token) -> ParseError:
    return ParseError(
        f"formula nests deeper than {MAX_DEPTH} levels", token.line, token.column
    )


class _FormulaParser:
    """Recursive descent over one formula's tokens.

    Every production returns its node with its depth: the largest number of
    connectives and parenthesis pairs around any one atom in it, so
    ``p(a)`` has depth 0 and ``~(p(a) & p(a))`` depth 3.  A depth above
    :data:`MAX_DEPTH` is a :class:`ParseError` at the token that crosses it.
    The binary chains are loops, but ``~``, ``->`` and parentheses recurse,
    so ``open`` counts those entered and the descent stops at the limit,
    long before the interpreter's stack does.
    """

    def __init__(self, stream: _TokenStream, m: Model):
        self.stream = stream
        self.model = m
        self.open = 0
        # The tighter chain of each layer, bound here so that a level of
        # nesting costs no extra stack frame for it.
        self.and_chain = partial(self.chain, self.unary, "&", And)
        self.set_intersect = partial(self.chain, self.set_arg, "&", Intersect)

    def parse(self) -> Formula:
        token = self.stream.peek()
        if token.kind == "name" and token.text in ("all", "exists"):
            self.stream.advance()
            if token.text == "all":
                subset, _ = self.set_arg()
                superset, _ = self.set_arg()
                formula: Formula = ForAll(subset, superset)
            else:
                formula = Exists(self.set_arg()[0])
        else:
            formula, _ = self.implies()
        trailing = self.stream.peek()
        if trailing.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {trailing.text!r}", trailing.line, trailing.column
            )
        return formula

    # -- depth -------------------------------------------------------------

    def enter(self, token: _Token) -> None:
        """Descend into the body of ``token``: a ``~``, ``->`` or ``(``."""
        if self.open >= MAX_DEPTH:
            raise _too_deep(token)
        self.open += 1

    @staticmethod
    def deeper(depth: int, token: _Token) -> int:
        """Depth of the node ``token`` builds over children at most ``depth`` deep."""
        if depth >= MAX_DEPTH:
            raise _too_deep(token)
        return depth + 1

    def parenthesized(self, inner: Callable[[], tuple[Any, int]]) -> tuple[Any, int]:
        token = self.stream.advance()
        self.enter(token)
        node, depth = inner()
        self.stream.expect(")")
        self.open -= 1
        return node, self.deeper(depth, token)

    def chain(
        self, operand: Callable[[], tuple[Any, int]], op: str, node_type: type
    ) -> tuple[Any, int]:
        """A left-associative chain ``operand (op operand)*``."""
        node, depth = operand()
        while (token := self.stream.peek()).kind == op:
            self.stream.advance()
            right, right_depth = operand()
            node, depth = node_type(node, right), self.deeper(max(depth, right_depth), token)
        return node, depth

    # -- truth layer ------------------------------------------------------

    def implies(self) -> tuple[Formula, int]:
        left, depth = self.chain(self.and_chain, "|", Or)
        token = self.stream.peek()
        if token.kind != "arrow":
            return left, depth
        self.stream.advance()
        self.enter(token)
        right, right_depth = self.implies()
        self.open -= 1
        return Implies(left, right), self.deeper(max(depth, right_depth), token)

    def unary(self) -> tuple[Formula, int]:
        token = self.stream.peek()
        if token.kind != "~":
            return self.primary()
        self.stream.advance()
        self.enter(token)
        body, depth = self.unary()
        self.open -= 1
        return Not(body), self.deeper(depth, token)

    def primary(self) -> tuple[Formula, int]:
        token = self.stream.peek()
        if token.kind == "(":
            return self.parenthesized(self.implies)
        if token.kind == "name" and token.text in ("all", "exists"):
            raise EmbeddedQuantifierError(
                f"quantifier {token.text!r} is only allowed at the root of a formula",
                token.line,
                token.column,
            )
        name = _expect_name(self.stream, "a predicate or relation application")
        self.stream.expect("(", "'(' after a predicate or relation name")
        args = [self.atom_name()]
        while self.stream.peek().kind == ",":
            self.stream.advance()
            args.append(self.atom_name())
        self.stream.expect(")")
        return self.bind_application(name, tuple(args)), 0

    def atom_name(self) -> str:
        token = _expect_name(self.stream, "an atom name")
        try:
            self.model.atom_index(token.text)
        except UnknownAtomError:
            raise UnknownAtomError(token.text, _position(token)) from None
        return token.text

    def bind_application(self, name: _Token, args: tuple[str, ...]) -> Formula:
        if name.text in self.model.predicates:
            if len(args) != 1:
                raise ArityError(
                    f"predicate {name.text!r} takes 1 argument, "
                    f"got {len(args)} {_position(name)}"
                )
            return Atom(name.text, args[0])
        if name.text in self.model.relations:
            arity = self.model.relations[name.text].arity
            if len(args) != arity:
                raise ArityError(
                    f"relation {name.text!r} has arity {arity}, "
                    f"got {_count(len(args), 'argument')} {_position(name)}"
                )
            return RelAtom(name.text, args)
        raise UnknownNameError(name.text, "predicate or relation", _position(name))

    # -- set layer ---------------------------------------------------------

    def set_arg(self) -> tuple[SetExpr, int]:
        token = self.stream.peek()
        if token.kind == "(":
            return self.parenthesized(self.set_union)
        if token.kind == "name" and token.text in ("all", "exists"):
            raise EmbeddedQuantifierError(
                "quantifiers cannot be nested inside set expressions",
                token.line,
                token.column,
            )
        name = _expect_name(self.stream, "a predicate or relation name")
        # Predicates never take arguments in set position, so a following
        # '(' can only open the next quantifier argument.
        if name.text in self.model.predicates:
            return PredSet(name.text), 0
        if name.text not in self.model.relations:
            raise UnknownNameError(name.text, "predicate or relation", _position(name))
        if self.stream.peek().kind != "(":
            raise ArityError(
                f"relation {name.text!r} in set position needs bound arguments "
                f"and an open slot, e.g. {name.text}(a, _) {_position(name)}"
            )
        self.stream.advance()
        bound: list[str] = []
        while self.stream.peek().kind != "underscore":
            bound.append(self.atom_name())
            self.stream.expect(",", "',' (the open slot '_' must come last)")
        self.stream.expect("underscore")
        next_token = self.stream.peek()
        if next_token.kind == ",":
            raise ParseError(
                "the open slot '_' must be the last argument", next_token.line, next_token.column
            )
        self.stream.expect(")")
        arity = self.model.relations[name.text].arity
        if len(bound) != arity - 1:
            raise ArityError(
                f"partial application of {name.text!r} (arity {arity}) "
                f"needs {_count(arity - 1, 'bound argument')}, "
                f"got {len(bound)} {_position(name)}"
            )
        return PartialRel(name.text, tuple(bound)), 0

    def set_union(self) -> tuple[SetExpr, int]:
        return self.chain(self.set_intersect, "|", Union)


def parse_formula(text: str, m: Model) -> Formula:
    """Parse formula text against a model, binding and arity-checking names."""
    return _FormulaParser(_TokenStream(_tokenize(text, _FORMULA_SKIP)), m).parse()


# ---------------------------------------------------------------------------
# Formula printing

_PRECEDENCE = {Implies: 1, Or: 2, Union: 2, And: 3, Intersect: 3, Not: 4}
_ATOM_PRECEDENCE = 5
_SYMBOLS = {Implies: "->", Or: "|", Union: "|", And: "&", Intersect: "&"}


def _precedence(f: Formula) -> int:
    return _PRECEDENCE.get(type(f), _ATOM_PRECEDENCE)


def _format_formula(f: Formula) -> str:
    match f:
        case Atom(pred, arg):
            return f"{pred}({arg})"
        case RelAtom(rel, args):
            return f"{rel}({', '.join(args)})"
        case Not(body):
            inner = _format_formula(body)
            if _precedence(body) < _PRECEDENCE[Not]:
                inner = f"({inner})"
            return f"~{inner}"
        case And(left, right) | Or(left, right) | Implies(left, right):
            return _format_binary(f, _format_formula(left), _format_formula(right))
        case ForAll(subset, superset):
            return f"all {_format_set_arg(subset)} {_format_set_arg(superset)}"
        case Exists(body):
            return f"exists {_format_set_arg(body)}"
    raise TypeError(f"not a formula node: {f!r}")


def _format_set_arg(e: SetExpr) -> str:
    if isinstance(e, (Intersect, Union)):
        return f"({_format_set_expr(e)})"
    return _format_set_expr(e)


def _format_set_expr(e: SetExpr) -> str:
    match e:
        case PredSet(name):
            return name
        case PartialRel(rel, bound):
            return f"{rel}({', '.join(bound + ('_',))})"
        case Intersect(left, right) | Union(left, right):
            return _format_binary(e, _format_set_expr(left), _format_set_expr(right))
    raise TypeError(f"not a set expression node: {e!r}")


def _format_binary(f: Any, left_text: str, right_text: str) -> str:
    """``&``, ``|`` or ``->`` between the printed operands of ``f``, with the
    parentheses precedence needs.  ``->`` groups to the right and the others
    to the left, so an operand of equal precedence on the other side is
    parenthesized."""
    prec = _PRECEDENCE[type(f)]
    left_min, right_min = (prec + 1, prec) if isinstance(f, Implies) else (prec, prec + 1)
    if _precedence(f.left) < left_min:
        left_text = f"({left_text})"
    if _precedence(f.right) < right_min:
        right_text = f"({right_text})"
    return f"{left_text} {_SYMBOLS[type(f)]} {right_text}"


def print_formula(f: Formula) -> str:
    """Canonical formula text with minimal parentheses.

    The text re-parses to ``f`` when its nesting, counted as
    :func:`parse_formula` counts it, is at most :data:`MAX_DEPTH`; deeper
    text is a :class:`ParseError`.  A connective's parentheses add a level
    of their own, so the text can nest deeper than the AST.
    """
    try:
        return _format_formula(f)
    except RecursionError:
        raise FormulaDepthError("formula nests too deep to print") from None
