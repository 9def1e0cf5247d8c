"""Exception hierarchy shared by every layer of the engine.

All engine errors derive from :class:`TensorLogicError` so callers can catch
one type at the boundary (the CLI does exactly that).  Parse-time errors carry
source positions: a syntax error is a :class:`ParseError`, and a binding error
keeps its own class and ends its message with the position of the offending
token, as ``unknown atom: 'zz' (line 1, column 3)``.  In formula text that is
an unknown name or a wrong argument count; in model text a symbol declared
twice, a tuple of the wrong length or an arity of 0.  Everything else,
:meth:`~tensorlogic.model.Model.from_names`' own checks included, carries a
plain message.
"""

from __future__ import annotations


class TensorLogicError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(TensorLogicError):
    """Operand dimensions are incompatible for the requested operation."""


class RankError(TensorLogicError):
    """A tensor with an unsupported rank (e.g. rank 0) was requested."""


class ElementCapError(TensorLogicError):
    """A tensor would exceed the element cap; :meth:`check` is the one check."""

    @classmethod
    def check(cls, what: str, size: int, cap: int) -> None:
        """Raise ``cls`` if ``size`` elements exceed ``cap``; ``what`` names the
        tensor and is passed pre-built, so a passing check formats nothing."""
        if size > cap:
            raise cls(f"{what} needs a tensor of {size} elements, above the cap of {cap}")


class UnknownNameError(TensorLogicError):
    """A name is not declared in the model (atom, predicate, or relation);
    ``where``, if given, says where it was used."""

    def __init__(self, name: str, kind: str = "name", where: str = ""):
        super().__init__(f"unknown {kind}: {name!r}" + (f" {where}" if where else ""))
        self.name = name
        self.kind = kind


class UnknownAtomError(UnknownNameError):
    def __init__(self, name: str, where: str = ""):
        super().__init__(name, "atom", where)


class UnknownPredicateError(UnknownNameError):
    def __init__(self, name: str):
        super().__init__(name, "predicate")


class UnknownRelationError(UnknownNameError):
    def __init__(self, name: str):
        super().__init__(name, "relation")


class DuplicateNameError(TensorLogicError):
    """A name is declared more than once within a model."""


class ArityError(TensorLogicError):
    """Argument count does not match a relation's declared arity."""


class NonCharacteristicError(TensorLogicError):
    """A vector expected to have 0/1 entries has some other entry."""


class NonOneHotError(TensorLogicError):
    """A vector expected to be one-hot is not."""


class InvalidPredicateError(TensorLogicError):
    """A hand-built predicate or relation tensor violates its invariants."""


class InvalidTruthValueError(TensorLogicError):
    """A 2-vector does not encode a valid (crisp or normalized) truth value."""


class ParseError(TensorLogicError):
    """Syntax error in model or formula text.

    ``line`` and ``column`` are 1-based positions into the parsed text.  A
    binding error in formula text is an :class:`UnknownNameError` or an
    :class:`ArityError` whose message ends with the same position.
    """

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.bare_message = message
        self.line = line
        self.column = column


class EmbeddedQuantifierError(ParseError):
    """A quantifier appeared somewhere other than the root of a formula."""


class FormulaDepthError(TensorLogicError):
    """A formula nests deeper than the interpreter's recursion limit allows.

    Only an AST built in code can: :func:`~tensorlogic.dsl.parse_formula`
    holds text to :data:`~tensorlogic.dsl.MAX_DEPTH` levels.
    """


class PlanTooLargeError(ElementCapError):
    """A plan load, named by its note, would exceed the element cap."""
