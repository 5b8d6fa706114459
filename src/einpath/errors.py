"""Exception types shared across the package."""

__all__ = [
    "BudgetError", "EinPathError", "EinsumSyntaxError", "GenerationError",
    "InvalidContractionError", "MalformedPathError", "MissingExtentError",
    "NetworkValidationError", "TraceError", "UnsupportedArityError",
]


class EinPathError(Exception):
    """Base class for everything raised on purpose."""


class MissingExtentError(EinPathError):
    """An index has no entry in the extents map."""


class InvalidContractionError(EinPathError):
    """A stated result head is inconsistent with its operands."""


class UnsupportedArityError(EinPathError):
    """The operation only handles binary trees."""


class MalformedPathError(EinPathError):
    """An SSA path violates its structural invariants."""


class TraceError(EinPathError):
    """A repeated index on a single tensor (internal trace)."""


class EinsumSyntaxError(EinPathError):
    """An einsum string does not match the supported grammar."""


class NetworkValidationError(EinPathError):
    """A network document failed validation.

    `location` is a dotted path into the offending document, e.g.
    ``tensors[2].indices[0]``; it is also baked into the message.
    """

    def __init__(self, location, reason):
        self.location = location
        self.reason = reason
        super().__init__(f"{location}: {reason}")


class GenerationError(EinPathError):
    """The random generator could not satisfy its constraints."""


class BudgetError(EinPathError):
    """The requested search is outside the implementation's budget."""
