"""Dense exact linear algebra over Fraction, just enough for desk-scale checks,
the structure tables and action matrices of every algebra and module, and the
denominator clearing that lets the per-word kernels run on int."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import cached_property

from .combinatorics import AXIOM_WORK_CAP, parity_sign
from .errors import SearchSpaceError, ShapeMismatchError

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def basis_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


def matrix(rows) -> Matrix:
    m = tuple(tuple(fr(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ShapeMismatchError("ragged matrix")
    return m


@dataclasses.dataclass(frozen=True)
class LinearOperator:
    """Linear map between the tagged spaces, stored as a dense matrix.

    Rows are indexed by the codomain basis, columns by the domain basis, so
    the image of the j-th domain basis vector is column j.
    """

    matrix: Matrix
    domain: str = "V"
    codomain: str = "g"

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.matrix)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("operator shapes differ")
        return LinearOperator(
            tuple(vec_add(a, b) for a, b in zip(self.matrix, other.matrix)),
            self.domain,
            self.codomain,
        )


# -- cleared denominators -----------------------------------------------------
#
# Every residual and bracket the kernels sum is multilinear in its inputs, so
# multiplying each input by a common denominator of its values scales the
# output by the product of those denominators.  A kernel run on the int
# images therefore computes den * (the exact result): zero tests are unchanged
# and each nonzero coordinate is recovered by one division.


def common_denominator(values) -> int:
    """The least common denominator of exact scalars (1 for none)."""
    return math.lcm(*{x.denominator for x in values})


def as_integers(nested, den: int):
    """den * a vector, or a nested tuple of them, as plain ints; den must be
    a multiple of every denominator."""
    return tuple(as_integers(x, den) if isinstance(x, tuple)
                 else x.numerator * (den // x.denominator) for x in nested)


def divided(v, den: int) -> Vector:
    """v / den with Fraction coordinates, dividing only the nonzero ones."""
    return tuple(Fraction(x, den) if x else ZERO for x in v)


def _flatten(nested):
    for item in nested:
        if isinstance(item, tuple):
            yield from _flatten(item)
        else:
            yield item


class Clearable:
    """Mixin for a frozen dataclass whose constants form the nested tuple in
    the field named by ``_constants`` (structure constants or matrices).

    ``cleared()`` is (den, the same structure with den * constants as ints),
    den their least common denominator; it is computed once per object.
    """

    _constants = ""

    def integral(self, den: int):
        """The structure with den * constants as ints; den clears them all."""
        consts = getattr(self, self._constants)
        return dataclasses.replace(self, **{self._constants: as_integers(consts, den)})

    @cached_property
    def _cleared(self):
        den = common_denominator(_flatten(getattr(self, self._constants)))
        return den, self.integral(den)

    def cleared(self):
        return self._cleared


class Action(Clearable):
    """Mixin for a module of an algebra: a frozen dataclass with one matrix
    per algebra basis element in ``matrices``, acting on a module of
    dimension ``space_dim``."""

    _constants = "matrices"

    @cached_property
    def _square(self) -> bool:
        """Whether every matrix is square of the module dimension, decided
        once per object (see :func:`require_action`)."""
        d = self.space_dim
        return all(len(m) == d and all(len(row) == d for row in m) for m in self.matrices)


def signed_sum(n: int, terms) -> tuple:
    """Sum of s * sum_m coeffs[m] vectors[m] over (s, coeffs, vectors) in terms,
    as n ints.  For a table t, (e_i e_j) e_k is (1, t[i][j], [t[m][k] for m]),
    e_i (e_j e_k) is (1, t[j][k], t[i]), and row r of a b is (1, a[r], b)."""
    out = [0] * n
    for s, coeffs, vectors in terms:
        for c, v in zip(coeffs, vectors):
            if c:
                c *= s
                for k, x in enumerate(v):
                    out[k] += c * x
    return tuple(out)


def cleared_pair(alg, act):
    """(den, alg, act) with the constants of both as ints over one common den.

    Insertion terms (through the action) and bracket terms (through the
    algebra) then carry the same factor and can be summed in one accumulator.
    """
    da, ia = alg.cleared()
    dr, ir = act.cleared()
    if da == dr:
        return da, ia, ir
    den = math.lcm(da, dr)
    return den, alg.integral(den), act.integral(den)


# -- structure tables and action matrices ---------------------------------------
#
# A Lie bracket, an SGLA bracket and a pre-Lie product are one table t[i][j][k]
# (the coefficient of e_k in e_i . e_j), a module one matrix per algebra basis
# element.  The classes bind the kernels below as methods, so they cost no
# extra call level.


def table_from_pairs(n: int, pairs, degrees=None):
    """Dense constants from sparse data ``{(i, j): {k: coeff}}``.

    With ``degrees`` (a Lie algebra is every degree -1), a listed (i, j)
    whose mirror is unlisted gets t[j][i] = (-1)^(deg_i deg_j) t[i][j]; a
    listed mirror is taken verbatim, so broken inputs stay expressible.
    Without (a pre-Lie product), nothing is completed.
    """
    if n ** 3 > AXIOM_WORK_CAP:
        raise SearchSpaceError(f"a table on {n} basis elements has {n ** 3} entries, "
                               f"above the cap of {AXIOM_WORK_CAP}")
    zero = (ZERO,) * n  # every unlisted (i, j) shares it, so a sparse file costs n^2 refs
    t = [[zero] * n for _ in range(n)]
    for (i, j), val in pairs.items():
        row = list(zero)
        for k, coeff in val.items():
            row[k] = fr(coeff)
        t[i][j] = tuple(row)
    if degrees is not None:
        for (i, j) in pairs:
            if (j, i) not in pairs:
                s = parity_sign(degrees[i] * degrees[j])
                t[j][i] = tuple(s * x for x in t[i][j])
    return tuple(map(tuple, t))


def bilinear(self, x: Vector, y: Vector) -> Vector:
    """x . y through the table in the field named by ``self._constants``."""
    t = getattr(self, self._constants)
    n = len(t)
    out = [0] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = t[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            coef = xi * yj
            row = ti[j]
            for k in range(n):
                if row[k]:
                    out[k] += coef * row[k]
    return tuple(out)


def adjoint_matrices(t) -> tuple[Matrix, ...]:
    """ad(e_i) for each i: the matrix with (k, j) entry t[i][j][k].

    As in :func:`table_from_pairs`, every all-zero row of the result is one
    shared tuple: a plane of zero rows is one zero row repeated, and each
    row object of the table is tested once, so the adjoint of a sparse
    table costs n^2 references, not n^3 zeros."""
    zero_rows: dict = {}  # id of a row of t: whether it is all zero
    shared: dict = {}  # length: the one zero row of that length

    def is_zero(row) -> bool:
        got = zero_rows.get(id(row))
        if got is None:
            got = zero_rows[id(row)] = not any(row)
        return got

    out = []
    for plane in t:
        if all(map(is_zero, plane)):
            row = shared.setdefault(len(plane), (ZERO,) * len(plane))
            out.append((row,) * min(map(len, plane), default=0))
        else:
            out.append(tuple(col if any(col) else shared.setdefault(len(col), col)
                             for col in zip(*plane)))
    return tuple(out)


def act_basis(self, x: Vector, j: int) -> Vector:
    """rho(x) applied to the j-th basis vector of the module ``self``."""
    d = self.space_dim
    out = [0] * d
    for a, xa in enumerate(x):
        if not xa:
            continue
        m = self.matrices[a]
        for r in range(d):
            if m[r][j]:
                out[r] += xa * m[r][j]
    return tuple(out)


def require_table(n: int, t, message: str) -> int:
    """n, once the structure constants t hold one n x n plane per basis
    vector; raises ShapeMismatchError with message otherwise."""
    if len(t) != n or any(len(p) != n or any(len(r) != n for r in p) for p in t):
        raise ShapeMismatchError(message)
    return n


def require_action(n: int, act: Action) -> int:
    """The module dimension, once act has one square matrix of it per basis
    element; every check and kernel that reads an action calls it, so the
    matrices' shape is decided once per action object."""
    if len(act.matrices) != n:
        raise ShapeMismatchError("one action matrix per algebra basis element required")
    if not act._square:
        raise ShapeMismatchError("action matrices must be square of the module dimension")
    return act.space_dim

