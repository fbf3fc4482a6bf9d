"""Pass/fail reports carrying reproducible witnesses."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

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


def cell_witness(walk, names=(), side: int = 0) -> dict | None:
    """``{"at": <1-based cell>, "residual": <text>}`` at the first nonzero
    residual of a :class:`~rotabaxter.graded.CellWalk`, or None: a side x side
    matrix when ``side`` is given, a vector keyed by ``names``, else a scalar."""
    hit = walk.first()
    if hit is None:
        return None
    _, cell, r = hit
    if side:
        text = matrix_text(r[k:k + side] for k in range(0, len(r), side))
    elif names:
        text = named_residual(r, names)
    else:
        text = scalar_text(r[0])
    return {"at": [i + 1 for i in cell], "residual": text}
