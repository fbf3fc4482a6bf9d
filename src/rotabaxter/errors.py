"""Exception types shared across the package.

Every error the package raises on malformed input derives from
:class:`RotabaxterError`, and each also keeps its builtin base, so a caller
may catch either.
"""


class RotabaxterError(Exception):
    """Base of every package error; ``str()`` is the message itself."""

    def __str__(self) -> str:
        # KeyError's own __str__ would quote the message
        return str(self.args[0]) if len(self.args) == 1 else super().__str__()


class ShapeMismatchError(RotabaxterError, ValueError):
    """Dimensions, arities or degrees of the inputs do not line up."""


class BoundError(RotabaxterError, ValueError):
    """A bound leaves nothing to check or search (a negative weight bound, a
    coherence order below 1, or an empty search grid), so a PASS or an empty
    result would be vacuous."""


class SearchSpaceError(RotabaxterError, ValueError):
    """A search grid, a walk over canonical words or an unshuffle table is
    larger than its cap."""


class NotMaurerCartanError(RotabaxterError, ValueError):
    """An operator failed the verification its caller requires."""


class OversizedScalarError(RotabaxterError, ValueError):
    """A scalar of a result has too many digits to be written as text."""


class SchemaError(RotabaxterError, ValueError):
    """An input file does not match the expected JSON layout."""


class UnresolvedReferenceError(RotabaxterError, KeyError):
    """A command referenced an entity that is not in the workspace."""
