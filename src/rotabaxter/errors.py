"""Exception types shared across the package."""


class ShapeMismatchError(ValueError):
    """Dimensions, arities or degrees of the inputs do not line up."""


class BoundError(ValueError):
    """A truncation bound leaves nothing to check (a negative weight bound,
    or a coherence order below 1), so a PASS would be vacuous."""


class SearchSpaceError(ValueError):
    """A search grid, a walk over canonical words or an unshuffle table is
    larger than its cap."""


class NotMaurerCartanError(ValueError):
    """An operator failed the verification its caller requires."""


class OversizedScalarError(ValueError):
    """A scalar of a result has too many digits to be written as text."""


class SchemaError(ValueError):
    """An input file does not match the expected JSON layout."""


class UnresolvedReferenceError(KeyError):
    """A command referenced an entity that is not in the workspace."""
