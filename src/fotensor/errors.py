"""Exception types shared across the package."""


class FotensorError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FotensorError):
    """Malformed formula text. Carries the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SemanticError(FotensorError):
    """A well-formed input that violates a semantic requirement."""


class UnboundVariableError(SemanticError):
    pass


class UnknownPredicateError(SemanticError):
    pass


class ArityMismatchError(SemanticError):
    pass


class UnknownSymbolError(SemanticError):
    """A word contains a character outside the declared alphabet."""


class AssignmentError(SemanticError):
    """An assignment binds a variable to an index outside the domain."""


class ClosureError(FotensorError, AssertionError):
    """A tensor value outside {0, 1} where the semantics allows only 0 and 1,
    or min1 applied to a negative number: a fault in the evaluator, not in
    the input. Raised explicitly, so the check survives python -O."""


class StructureFormatError(FotensorError):
    """A structure document that cannot be decoded at all."""


class GornDomainError(SemanticError):
    """A tree address set that is not a valid Gorn domain."""


class DuplicateAddressError(SemanticError):
    pass
