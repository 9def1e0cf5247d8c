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

    formula    := implies
    implies    := or ('->' implies)?
    or         := and ('|' and)*
    and        := unary ('&' unary)*
    unary      := '~' unary | primary
    primary    := quantifier | name '(' name (',' name)* ')' | '(' implies ')'
    quantifier := 'all' setarg setarg | 'exists' setarg
    setarg     := predname | relname '(' (name ',')* '_' ')' | '(' implies ')'

The productions of the connectives are not written out in the parser: each
connective's symbol, precedence and truth function are written once, in its
row of the table :data:`TABLE`, whose rows are negation, the one unary row
(:class:`Not`), and the binary rows of :data:`BINARY` (see :class:`_Binary`).
The parser's one precedence loop, the printer, the plans and the truth
tensors all read the rows.

Predicate and relation namespaces are disjoint, so the parser can tell a bare
predicate name from a relation application in set position without lookahead.

A quantifier's operand, its set expression, is one ``setarg``: a predicate
name, a relation with exactly one open slot, written ``_`` in the last
argument position, or a formula in parentheses.  ``exists loves(john, _)``
is "there is someone John loves".  Inside the parentheses ``~``, ``&``,
``|`` and ``->`` work as they do anywhere, but every name is read as a
``setarg`` and a quantifier raises :class:`EmbeddedQuantifierError`, so
``exists (greek & ~human)`` and ``all greek (human | ~mortal)`` parse, and a
compound operand needs its parentheses: ``exists ~greek`` is an error.  A
quantified formula is a formula like any other, so ``~all greek human`` and
``p(a) & exists q`` parse.

The AST has one sort.  A set expression is an open formula over the one free
variable :data:`VAR`: ``greek`` in set position is ``Atom("greek", VAR)``,
``loves(john, _)`` is ``RelAtom("loves", ("john", VAR))``, and the
connectives in a set expression build :class:`Not`, :class:`And`,
:class:`Or` and :class:`Implies`, as they do between formulas.
:func:`PredSet`, :func:`PartialRel`, ``Intersect`` and ``Union`` are
shorthands that build those nodes.

A formula nests at most :data:`MAX_DEPTH` levels deep, counting every
connective and every pair of parentheses around its deepest atom, but no
quantifier; deeper text is a :class:`ParseError` at the token that crosses
the limit.

Model text is accepted statement by statement by whole-line patterns, and
the token parser reports every error: text that any pattern does not take is
read again by the token parser, so a model's errors, messages and positions
are the token parser's alone.  That parser and the formula parser read one
token stream: after one check of the whole text's characters, each token is
the next match of a pattern, read only when the parser asks for it, and a
line and column are computed from a token's offset only for an error.  So an
unexpected character anywhere is the error reported, whatever else is wrong
before it, and formula text nested too deep is rejected after reading about
:data:`MAX_DEPTH` tokens, not all of them.  In formula text a whole
application with only blanks inside, such as ``r(a, b)``, is one match.  The
parser takes it as one node where it binds as written, outside a
quantifier's operand; anywhere else it reads the text again from there one
token at a time, so a formula's errors, messages and positions are those of
the one-token path alone.

``domain``, ``pred``, ``rel``, ``all`` and ``exists`` are reserved words and
cannot name atoms, predicates, or relations.  Names start with a letter and
continue with letters, digits, or underscores.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import (
    ArityError,
    DuplicateNameError,
    EmbeddedQuantifierError,
    FormulaDepthError,
    ParseError,
    TensorLogicError,
    UnknownAtomError,
    UnknownNameError,
    _count,
)
from .model import Model

RESERVED = frozenset({"domain", "pred", "rel", "all", "exists"})


# ---------------------------------------------------------------------------
# AST


class _Variable(enum.Enum):
    VAR = "VAR"


#: The one free variable of an open formula.  It is not a ``str``, so no atom
#: name can be it.
VAR = _Variable.VAR


@dataclass(frozen=True)
class Atom:
    """Predicate applied to a single named atom, or to :data:`VAR`."""

    pred: str
    arg: str | _Variable


@dataclass(frozen=True)
class RelAtom:
    """Relation applied to a full tuple of named atoms, first argument first;
    an argument may be :data:`VAR`, which a plan takes only last."""

    rel: str
    args: tuple[str | _Variable, ...]


@dataclass(frozen=True)
class Not:
    """Negation of a formula: the table's one unary row.

    As in a binary row (see :class:`_Binary`), the row is class attributes,
    not fields, so a node is ``Not(body)``: its ``symbol``, ``name`` and
    ``precedence``, which binds tighter than any binary connective's, and
    ``holds``, its classical truth function of its operand.
    """

    body: "Formula"

    symbol, name, precedence = "~", "not", 4
    holds = staticmethod(lambda body: not body)


@dataclass(frozen=True)
class _Binary:
    """A binary connective between two formulas; each subclass is one row of
    the table of connectives.

    A row is class attributes, not fields, so a node is ``And(left, right)``
    and prints as such.  The row holds the connective's ``symbol`` in formula
    text; its ``name``, which names its tensor, its load note and its
    ``truth-table``; its ``precedence``, tighter binding higher; whether it
    ``groups_right``, as ``->`` does, where the others group to the left;
    and ``holds``, its classical truth function of (left, right).  The
    parser and the printer read precedence and grouping here and nowhere
    else, and :mod:`tensorlogic.truth` derives each connective tensor from
    ``holds``.
    """

    left: "Formula"
    right: "Formula"


class And(_Binary):
    symbol, name, precedence, groups_right = "&", "and", 3, False
    holds = staticmethod(lambda left, right: left and right)


class Or(_Binary):
    symbol, name, precedence, groups_right = "|", "or", 2, False
    holds = staticmethod(lambda left, right: left or right)


class Implies(_Binary):
    symbol, name, precedence, groups_right = "->", "implies", 1, True
    holds = staticmethod(lambda left, right: not left or right)


#: The binary connectives, one row each.
BINARY = (And, Or, Implies)

#: The table of connectives, one row each, negation first, in the order that
#: :class:`tensorlogic.truth.Connective` lists them.  A row's arity is the
#: number of fields of its node.
TABLE = (Not, *BINARY)


@dataclass(frozen=True)
class ForAll:
    """Subset assertion between two open formulas over :data:`VAR`."""

    subset: "Formula"
    superset: "Formula"


@dataclass(frozen=True)
class Exists:
    """Nonemptiness assertion for an open formula over :data:`VAR`."""

    body: "Formula"


Formula = Atom | RelAtom | Not | _Binary | ForAll | Exists


# Set-position shorthands: a set expression is an open formula over VAR.


def PredSet(name: str) -> Atom:
    """A predicate's extension, used as a set: ``name(VAR)``."""
    return Atom(name, VAR)


def PartialRel(rel: str, bound: tuple[str, ...]) -> RelAtom:
    """A relation with its last argument open: ``rel(*bound, VAR)``."""
    return RelAtom(rel, (*bound, VAR))


Intersect, Union = And, Or


# ---------------------------------------------------------------------------
# Tokenizer

#: A name, as the tokenizer and the model accept path read one.
_NAME = "[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)

#: One token of model text and of formula text, with the blanks and comments
#: before it: group 1 is the token, and at the end of the text it is ``""``.
#: Formula text reads a newline as a blank, model text as a token.  The
#: blanks at the end are part of the last match, so no scan starts inside a
#: comment.
_MODEL_TOKEN_RE = re.compile(rf"(?:[^\S\n]+|#[^\n]*)*(->|{_NAME}|\d+|[_(),:/~&|\n]|\Z)")
_FORMULA_SKIP = r"\s*(?:#[^\n]*\s*)*"
_FORMULA_TOKEN = rf"{_NAME}|->|\d+|[_(),:/~&|]|\Z"
_FORMULA_TOKEN_RE = re.compile(rf"{_FORMULA_SKIP}({_FORMULA_TOKEN})")
#: The formula parser's pattern: a whole application ``name(name, ..., name)``
#: with only blanks inside, group 2 its name and group 3 its arguments, or
#: else one token as above.  Read one token at a time, such an application
#: is the same tokens.
_APPLICATION_TOKEN_RE = re.compile(
    rf"{_FORMULA_SKIP}(({_NAME})\s*\(\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*\)|{_FORMULA_TOKEN})"
)

#: The longest prefix of a text that the token patterns split into tokens with
#: no character left over: it ends at the text's first unexpected character.
_VALID_PREFIX_RE = re.compile(r"(?:[A-Za-z\d_(),:/~&|\s]+|#[^\n]*|->)*")

#: The tokens that end a model statement: a newline and the end of the text.
_STATEMENT_END = ("\n", "")


def _line_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def _tokenize(text: str, token_re: re.Pattern = _MODEL_TOKEN_RE) -> Iterator[re.Match]:
    """The matches of ``token_re`` over ``text``, read on demand; the last
    one is the end of the text.

    The whole text's characters are checked first, so an unexpected character
    anywhere is the error, whatever a parser would have found in the tokens
    before it; past the check, the matches follow one another with no
    character between them.
    """
    bad = _VALID_PREFIX_RE.match(text).end()
    if bad < len(text):
        raise ParseError(f"unexpected character {text[bad]!r}", *_line_column(text, bad))
    return token_re.finditer(text)


class _Tokens:
    """One text's tokens, read on demand, with one token of lookahead.

    ``next`` is the text of the token :meth:`advance` reads next: a name,
    digits, ``->``, one of ``_(),:/~&|``, a newline in model text, a whole
    application in formula text (see :class:`_FormulaParser`), or ``""`` at
    the end of the text.  A token read is its match of the token pattern;
    its line and column are computed from its offset, and only for an error.
    """

    def __init__(self, text: str, token_re: re.Pattern):
        self.text = text
        self._matches = _tokenize(text, token_re)
        self._next_match = next(self._matches)
        self.next: str = self._next_match[1]

    def advance(self) -> re.Match:
        """The next token's match; at the end of the text it stays there."""
        match = self._next_match
        if self.next:
            self._next_match = following = next(self._matches)
            self.next = following[1]
        return match

    def expect(self, token: str, what: str | None = None) -> re.Match:
        if self.next != token:
            raise self.unexpected(what or repr(token))
        return self.advance()

    def expect_name(self, what: str) -> re.Match:
        name = self.next
        if not name[:1].isalpha():
            raise self.unexpected(what)
        if name in RESERVED:
            raise self.error(f"{name!r} is a reserved word")
        return self.advance()

    def unexpected(self, expected: str) -> ParseError:
        found = "end of input" if self.next in _STATEMENT_END else repr(self.next)
        return self.error(f"expected {expected}, found {found}")

    def error(self, message: str, token: re.Match | None = None) -> ParseError:
        """A :class:`ParseError` at ``token``, or at the next token."""
        return ParseError(message, *self.line_column(token))

    def line_column(self, token: re.Match | None = None) -> tuple[int, int]:
        return _line_column(self.text, (token or self._next_match).start(1))

    def position(self, token: re.Match) -> str:
        """Where ``token`` starts, as the message of a binding error ends."""
        return "(line {}, column {})".format(*self.line_column(token))

    def names_to_statement_end(self) -> list[str]:
        names = []
        while self.next not in _STATEMENT_END:
            names.append(self.expect_name("an atom name")[1])
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
    tokens = _Tokens(text, _MODEL_TOKEN_RE)
    atom_names: list[str] = []
    predicates: dict[str, list[str]] = {}
    relations: dict[str, tuple[int, list[tuple[str, ...]]]] = {}
    while tokens.next:
        head = tokens.advance()
        keyword = head[1]
        if keyword == "\n":
            continue
        if not atom_names:
            if keyword != "domain":
                raise tokens.error("model must start with a 'domain' statement", head)
            atom_names = tokens.names_to_statement_end()
            if not atom_names:
                raise tokens.error("'domain' needs at least one atom name")
            continue
        if keyword == "domain":
            raise tokens.error("only one 'domain' statement is allowed", head)
        if keyword not in ("pred", "rel"):
            raise tokens.error("expected a 'pred' or 'rel' statement", head)
        kind = "predicate" if keyword == "pred" else "relation"
        name_token = tokens.expect_name(f"a {kind} name")
        name = name_token[1]
        if name in predicates or name in relations:
            raise DuplicateNameError(
                f"symbol {name!r} declared twice {tokens.position(name_token)}"
            )
        if keyword == "pred":
            tokens.expect(":")
            predicates[name] = tokens.names_to_statement_end()
            continue
        tokens.expect("/")
        if not tokens.next[:1].isdecimal():
            raise tokens.unexpected("an arity")
        token = tokens.advance()
        digits = token[1]
        try:
            arity = int(digits)
        except ValueError:  # more digits than int() will read
            raise tokens.error(f"arity has too many digits ({len(digits)})", token) from None
        if arity < 1:
            raise ArityError(
                f"relation {name!r} declared with arity {arity} {tokens.position(token)}"
            )
        tokens.expect(":")
        tuples: list[tuple[str, ...]] = []
        while tokens.next not in _STATEMENT_END:
            opening = tokens.expect("(")
            members = [tokens.expect_name("an atom name")[1]]
            while tokens.next == ",":
                tokens.advance()
                members.append(tokens.expect_name("an atom name")[1])
            tokens.expect(")")
            if len(members) != arity:
                raise ArityError(
                    f"tuple {tuple(members)} has length {len(members)}, "
                    f"relation {name!r} has arity {arity} {tokens.position(opening)}"
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

#: The binary connectives by symbol.
_BY_SYMBOL = {c.symbol: c for c in BINARY}


class _FormulaParser(_Tokens):
    """Precedence climbing over one formula's tokens.

    Every production returns its node with its depth: the largest number of
    connectives and parenthesis pairs around any one atom in it, so
    ``p(a)`` has depth 0 and ``~(p(a) & p(a))`` depth 3.  A quantifier adds
    no level: ``~exists (p & q)`` has depth 3.  A depth above
    :data:`MAX_DEPTH` is a :class:`ParseError` at the token that crosses it.
    A chain of a connective that groups to the left is a loop, but ``~``,
    one that groups to the right (``->``) and parentheses recurse, so
    ``open`` counts those entered and the descent stops at the limit, long
    before the interpreter's stack does; a parenthesis level costs
    three frames, :meth:`primary`, :meth:`expression` and :meth:`unary`.

    ``next`` may be a whole application, which :meth:`primary` takes as one
    node when it binds as written outside a quantifier's operand.  Anywhere
    else the text is read again from that token with the one-token pattern
    (:meth:`reread`), so every error, message and position comes from the
    token-by-token path.
    """

    def __init__(self, text: str, m: Model):
        super().__init__(text, _APPLICATION_TOKEN_RE)
        self.model = m
        self.open = 0
        # Whether the descent is inside a quantifier's operand, where a name
        # is a set and a quantifier is refused.
        self.in_operand = False

    def parse(self) -> Formula:
        formula, _ = self.expression(0)
        if self.next:
            self.reread()
            raise self.error(f"unexpected trailing input {self.next!r}")
        return formula

    def reread(self) -> None:
        """Read the text again with the one-token pattern from the next token
        on, when that token is a whole application."""
        if self.next[-1:] == ")" != self.next:
            self._matches = _FORMULA_TOKEN_RE.finditer(self.text, self._next_match.start(1))
            self._next_match = next(self._matches)
            self.next = self._next_match[1]

    def unexpected(self, expected: str) -> ParseError:
        self.reread()
        return super().unexpected(expected)

    # -- depth -------------------------------------------------------------

    def too_deep(self, token: re.Match) -> ParseError:
        return self.error(f"formula nests deeper than {MAX_DEPTH} levels", token)

    def enter(self, token: re.Match) -> None:
        """Descend into the body of ``token``: a ``~``, ``->`` or ``(``."""
        if self.open >= MAX_DEPTH:
            raise self.too_deep(token)
        self.open += 1

    def deeper(self, depth: int, token: re.Match) -> int:
        """Depth of the node ``token`` builds over children at most ``depth`` deep."""
        if depth >= MAX_DEPTH:
            raise self.too_deep(token)
        return depth + 1

    # -- truth layer ------------------------------------------------------

    def expression(self, floor: int) -> tuple[Formula, int]:
        """Unary operands joined by the binary connectives whose precedence
        is at least ``floor``, each grouped as its row says."""
        node, depth = self.unary()
        while (binary := _BY_SYMBOL.get(self.next)) is not None and binary.precedence >= floor:
            token = self.advance()
            if binary.groups_right:
                self.enter(token)
                right, right_depth = self.expression(binary.precedence)
                self.open -= 1
            else:
                right, right_depth = self.expression(binary.precedence + 1)
            node, depth = binary(node, right), self.deeper(max(depth, right_depth), token)
        return node, depth

    def unary(self) -> tuple[Formula, int]:
        if self.next != Not.symbol:
            return self.primary()
        token = self.advance()
        self.enter(token)
        body, depth = self.unary()
        self.open -= 1
        return Not(body), self.deeper(depth, token)

    def primary(self) -> tuple[Formula, int]:
        keyword = self.next
        # Of the tokens that end in ")", only a whole application is longer.
        if keyword[-1:] == ")" != keyword:
            node = None if self.in_operand else self.whole_application(self._next_match)
            if node is not None:
                self.advance()
                return node, 0
            self.reread()
            keyword = self.next
        if keyword == "(":
            token = self.advance()
            self.enter(token)
            node, depth = self.expression(0)
            self.expect(")")
            self.open -= 1
            return node, self.deeper(depth, token)
        if keyword in ("all", "exists"):
            if self.in_operand:
                raise EmbeddedQuantifierError(
                    "quantifiers cannot be nested inside set expressions", *self.line_column()
                )
            self.advance()
            self.in_operand = True
            subset, depth = self.primary()
            if keyword == "exists":
                node = Exists(subset)
            else:
                superset, superset_depth = self.primary()
                node, depth = ForAll(subset, superset), max(depth, superset_depth)
            self.in_operand = False
            return node, depth
        if self.in_operand:
            return self.set_name()
        name = self.expect_name("a predicate or relation application")
        self.expect("(", "'(' after a predicate or relation name")
        args = [self.atom_name()]
        while self.next == ",":
            self.advance()
            args.append(self.atom_name())
        self.expect(")")
        return self.bind_application(name, tuple(args)), 0

    def whole_application(self, token: re.Match) -> Formula | None:
        """The node of a whole application when its name and arguments bind
        as written, else ``None``: then the token-by-token path reads it."""
        name, args = token[2], token[3].replace(",", " ").split()
        m = self.model
        if (
            name in RESERVED
            or not RESERVED.isdisjoint(args)
            or not all(map(m._index.__contains__, args))
        ):
            return None
        if name in m.predicates:
            return Atom(name, args[0]) if len(args) == 1 else None
        decl = m.relations.get(name)
        if decl is not None and decl.arity == len(args):
            return RelAtom(name, tuple(args))
        return None

    def atom_name(self) -> str:
        self.reread()
        token = self.expect_name("an atom name")
        name = token[1]
        try:
            self.model.atom_index(name)
        except UnknownAtomError:
            raise UnknownAtomError(name, self.position(token)) from None
        return name

    def bind_application(self, token: re.Match, args: tuple[str, ...]) -> Formula:
        name = token[1]
        if name in self.model.predicates:
            if len(args) != 1:
                raise ArityError(
                    f"predicate {name!r} takes 1 argument, "
                    f"got {len(args)} {self.position(token)}"
                )
            return Atom(name, args[0])
        if name in self.model.relations:
            arity = self.model.relations[name].arity
            if len(args) != arity:
                raise ArityError(
                    f"relation {name!r} has arity {arity}, "
                    f"got {_count(len(args), 'argument')} {self.position(token)}"
                )
            return RelAtom(name, args)
        raise UnknownNameError(name, "predicate or relation", self.position(token))

    # -- set layer ---------------------------------------------------------

    def set_name(self) -> tuple[Formula, int]:
        """A name in a quantifier's operand: a predicate's set, or a relation
        with its last argument open."""
        token = self.expect_name("a predicate or relation name")
        name = token[1]
        # Predicates never take arguments in set position, so a following
        # '(' can only open the next quantifier argument.
        if name in self.model.predicates:
            return Atom(name, VAR), 0
        if name not in self.model.relations:
            raise UnknownNameError(name, "predicate or relation", self.position(token))
        if self.next != "(":
            raise ArityError(
                f"relation {name!r} in set position needs bound arguments "
                f"and an open slot, e.g. {name}(a, _) {self.position(token)}"
            )
        self.advance()
        bound: list[str] = []
        while self.next != "_":
            bound.append(self.atom_name())
            self.expect(",", "',' (the open slot '_' must come last)")
        self.advance()
        if self.next == ",":
            raise self.error("the open slot '_' must be the last argument")
        self.expect(")")
        arity = self.model.relations[name].arity
        if len(bound) != arity - 1:
            raise ArityError(
                f"partial application of {name!r} (arity {arity}) "
                f"needs {_count(arity - 1, 'bound argument')}, "
                f"got {len(bound)} {self.position(token)}"
            )
        return RelAtom(name, (*bound, VAR)), 0


def parse_formula(text: str, m: Model) -> Formula:
    """Parse formula text against a model, binding and arity-checking names."""
    return _FormulaParser(text, m).parse()


# ---------------------------------------------------------------------------
# Formula printing

#: Each node's precedence, tighter binding higher: a connective's is its
#: row's, and any node not listed, an application or a quantifier, binds
#: tightest.
_PRECEDENCE = {row: row.precedence for row in TABLE}
_ATOM_PRECEDENCE = 5


def _precedence(f: Formula) -> int:
    return _PRECEDENCE.get(type(f), _ATOM_PRECEDENCE)


def _format_formula(f: Formula) -> str:
    """The text of ``f``.  Each nesting level costs one frame, so an AST 700
    deep prints under the default recursion limit."""
    kind = type(f)
    if kind is Atom:
        return f.pred if f.arg is VAR else f"{f.pred}({f.arg})"
    if kind is RelAtom:
        return f"{f.rel}({', '.join('_' if a is VAR else a for a in f.args)})"
    if kind in BINARY:
        return _format_binary(f, _format_formula(f.left), _format_formula(f.right))
    if kind is Not:
        body = f.body
        inner = _format_formula(body)
        if _precedence(body) < Not.precedence:
            inner = f"({inner})"
        return f"{Not.symbol}{inner}"
    if kind is ForAll:
        return f"all {_format_operand(f.subset)} {_format_operand(f.superset)}"
    if kind is Exists:
        return f"exists {_format_operand(f.body)}"
    raise TypeError(f"not a formula node: {f!r}")


def _format_operand(f: Formula) -> str:
    """A quantifier operand, parenthesized unless it is one application."""
    text = _format_formula(f)
    return text if isinstance(f, (Atom, RelAtom)) else f"({text})"


def _format_binary(f: _Binary, left_text: str, right_text: str) -> str:
    """The symbol of ``f`` between its printed operands, with the parentheses
    its row's precedence and grouping need: an operand of equal precedence
    on the side ``f`` does not group to is parenthesized."""
    prec = f.precedence
    left_min, right_min = (prec + 1, prec) if f.groups_right else (prec, prec + 1)
    if _precedence(f.left) < left_min:
        left_text = f"({left_text})"
    if _precedence(f.right) < right_min:
        right_text = f"({right_text})"
    return f"{left_text} {f.symbol} {right_text}"


def print_formula(f: Formula) -> str:
    """Canonical formula text with minimal parentheses.

    An application to :data:`VAR` prints as a bare predicate name or with
    ``_`` in its slot.  The text re-parses to ``f`` when ``f`` is a tree
    :func:`parse_formula` can build and its nesting, counted as
    :func:`parse_formula` counts it, is at most :data:`MAX_DEPTH`; deeper
    text is a :class:`ParseError`.  A connective's parentheses add a level
    of their own, so the text can nest deeper than the AST.
    """
    try:
        return _format_formula(f)
    except RecursionError:
        raise FormulaDepthError("formula nests too deep to print") from None
