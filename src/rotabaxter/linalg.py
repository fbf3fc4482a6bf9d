"""Dense exact linear algebra over Fraction, just enough for desk-scale checks,
the structure tables and action matrices of every algebra and module, and the
denominator clearing that lets the per-word kernels run on int."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import cached_property

from .combinatorics import parity_sign

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


def vec_scale(c, v: Vector) -> Vector:
    c = fr(c)
    return tuple(c * x for x in v)


def vec_is_zero(v: Vector) -> bool:
    return not any(v)


def matrix(rows) -> Matrix:
    m = tuple(tuple(fr(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vec_sub(x, y) for x, y in zip(a, b, strict=True))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ncols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(b))), ZERO) for j in range(ncols))
        for row in a
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a)


def mat_commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_is_zero(a: Matrix) -> bool:
    return all(not any(row) for row in a)


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
    t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), val in pairs.items():
        for k, coeff in val.items():
            t[i][j][k] = fr(coeff)
    if degrees is not None:
        for (i, j) in pairs:
            if (j, i) not in pairs:
                s = parity_sign(degrees[i] * degrees[j])
                t[j][i] = [s * x for x in t[i][j]]
    return tuple(tuple(tuple(row) for row in plane) for plane in t)


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
    """ad(e_i) for each i: the matrix with (k, j) entry t[i][j][k]."""
    return tuple(tuple(zip(*plane)) for plane in t)


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


def rho(self, x: Vector) -> Matrix:
    """The matrix of rho(x); column j is :func:`act_basis` of x on e_j."""
    return tuple(zip(*(act_basis(self, x, j) for j in range(self.space_dim))))
