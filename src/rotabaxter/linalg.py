"""Dense exact linear algebra over Fraction, just enough for desk-scale checks."""

from __future__ import annotations

from fractions import Fraction

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
