"""Pass/fail reports carrying reproducible witnesses."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import OversizedScalarError


@dataclass
class Report:
    """Outcome of one verification.

    ``witness`` is present exactly when the check failed and contains enough
    information (argument tuple plus the nonzero residual, as strings) to
    re-evaluate the residual independently.  ``order`` records the truncation
    bound (p_max or n_max) the check was run to, when one applies.
    """

    check: str
    ok: bool
    witness: dict | None = None
    order: int | None = None
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.ok,
            "order": self.order,
            "witness": self.witness,
        }


def scalar_text(x) -> str:
    """The text of an exact scalar in a report or an output file.

    Python refuses to turn an integer longer than its digit limit
    (``sys.get_int_max_str_digits()``) into text; that refusal becomes a
    typed error instead of a traceback.
    """
    try:
        return str(x)
    except ValueError:
        raise OversizedScalarError(
            f"a scalar of the result exceeds {sys.get_int_max_str_digits()} digits") from None


def named_residual(vec, names) -> dict:
    """The text of a vector: its nonzero coefficients, keyed by basis name."""
    return {name: scalar_text(x) for name, x in zip(names, vec) if x}


def matrix_text(m) -> list[list[str]]:
    """The text of a matrix: row-major lists of scalar text."""
    return [[scalar_text(x) for x in row] for row in m]


def _is_zero(r) -> bool:
    return all(map(_is_zero, r)) if isinstance(r, tuple) else not r


def _divided(r, den: int):
    return tuple(_divided(x, den) for x in r) if isinstance(r, tuple) else Fraction(r, den)


def first_failure(cells, residual, den: int, text=scalar_text) -> dict | None:
    """The witness of the first cell, in the order given, whose residual is
    nonzero: ``{"at": <1-based indices>, "residual": text(r / den)}``.

    Each cell is a tuple of 0-based basis indices, and ``residual(*cell)`` is
    a scalar, a vector or a matrix (a tuple of rows): den times the exact
    residual, computed on int images.  None when every residual is zero.
    """
    for cell in cells:
        r = residual(*cell)
        if not _is_zero(r):
            return {"at": [i + 1 for i in cell], "residual": text(_divided(r, den))}
    return None
