"""Bundled example algebras, representations and graded instances.

The operator catalogs are produced by the exhaustive searches at test time,
never hard-coded; the functions here only fix the ambient structures and a
deterministic, bounded selection rule for the derived operators.
"""

from __future__ import annotations

from fractions import Fraction

from .graded import GradedRepresentation, GradedVectorSpace, SGLA, graded_space, sgla
from .lie import LieAlgebra, Representation, adjoint, lie_algebra, search_rbo


def abelian(n: int) -> LieAlgebra:
    return lie_algebra([f"e{i + 1}" for i in range(n)], {})


def affine_line() -> LieAlgebra:
    """The 2-dimensional nonabelian algebra, [e1, e2] = e2."""
    return lie_algebra(["e1", "e2"], {(0, 1): {1: 1}})


def heisenberg() -> LieAlgebra:
    """The 3-dimensional algebra with [e1, e2] = e3, center spanned by e3."""
    return lie_algebra(["e1", "e2", "e3"], {(0, 1): {2: 1}})


def sl2() -> LieAlgebra:
    """sl(2) with basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    return lie_algebra(
        ["e", "f", "h"],
        {(0, 1): {2: 1}, (2, 0): {0: 2}, (2, 1): {1: -2}},
    )


def double_affine() -> LieAlgebra:
    """Two commuting copies of affine_line; dimension 4, for higher arities."""
    return lie_algebra(
        ["e1", "e2", "e3", "e4"],
        {(0, 1): {1: 1}, (2, 3): {3: 1}},
    )


def natural_rep_affine() -> Representation:
    """A non-adjoint module for affine_line: rho(e1) = E11, rho(e2) = E12."""
    return Representation(
        ("v1", "v2"),
        (
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
            ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
        ),
    )


def lie_pairs() -> list[tuple[str, LieAlgebra, Representation]]:
    """The cataloged (algebra, representation) pairs, dimensions at most 3."""
    aff = affine_line()
    heis = heisenberg()
    return [
        ("affine/adjoint", aff, adjoint(aff)),
        ("affine/natural", aff, natural_rep_affine()),
        ("heisenberg/adjoint", heis, adjoint(heis)),
    ]


def search_algebras() -> list[tuple[str, LieAlgebra]]:
    """Algebras covered by the exhaustive Rota-Baxter searches."""
    return [
        ("affine", affine_line()),
        ("heisenberg", heisenberg()),
        ("sl2", sl2()),
    ]


def rbo_catalog(grid=(-1, 0, 1), per_algebra: int = 10):
    """Curated catalog of Rota-Baxter operators found by exhaustive search.

    All operators are kept on the 2-dimensional algebra; on each
    3-dimensional algebra the catalog keeps the first ``per_algebra`` nonzero
    operators in sorted matrix order plus the zero operator, which bounds the
    downstream randomized suites while staying fully search-derived.
    """
    out = []
    for name, alg in search_algebras():
        found = search_rbo(alg, grid)
        if alg.dim > 2:
            nonzero = [op for op in found if any(any(row) for row in op.matrix)]
            zero = [op for op in found if not any(any(row) for row in op.matrix)]
            found = zero + nonzero[:per_algebra]
        out.append((name, alg, found))
    return out


def two_level_space() -> GradedVectorSpace:
    """Module with one generator in degree 0 and one in degree 1."""
    return graded_space(["a", "b"], [0, 1])


def two_level_sgla() -> SGLA:
    """Generators x1, x2 in degree 0 and y in degree 1, with [x1, x1] = y.

    The bracket has degree 1 and is graded symmetric; [Omega, Omega] = 0 is a
    genuine constraint on degree-0 elements Omega = a x1 + b x2 (it forces
    a = 0), so this instance exercises the weight-0 identity nontrivially.
    """
    space = graded_space(["x1", "x2", "y"], [0, 0, 1])
    return sgla(space, {(0, 0): {2: 1}})


def two_level_rep() -> GradedRepresentation:
    """Action of two_level_sgla on two_level_space.

    rho(x1) and rho(x2) send a to b (degree 1); rho(y) = 0 (no degree-2
    pairs exist).  Compatible with the bracket because rho(x1)^2 = 0.
    """
    space = two_level_space()
    z = Fraction(0)
    one = Fraction(1)
    rho_x1 = ((z, z), (one, z))
    rho_x2 = ((z, z), (one, z))
    rho_y = ((z, z), (z, z))
    return GradedRepresentation(space, (rho_x1, rho_x2, rho_y))


def mixed_sgla() -> SGLA:
    """A graded-symmetric bracket on generators of mixed degrees.

    Degrees are x: -1, y: 0, w: 0 and the only generating bracket is
    [x, y] = w (degree -1 + 0 + 1 = 0, graded-symmetric completion
    [y, x] = w); all other brackets vanish, which makes the Leibniz rule
    hold on every triple.  Validity is asserted by check_sgla in the tests.
    """
    space = graded_space(["x", "y", "w"], [-1, 0, 0])
    return sgla(space, {(0, 1): {2: 1}})


def three_level_sgla() -> SGLA:
    """Generators p, q, r in degrees -1, 0, 1 with a bracket in every degree.

    [p, q] = q, [q, q] = r and [p, r] = 2r (with the graded-symmetric
    completions [q, p] = q and [r, p] = -2r); every Leibniz triple closes.
    """
    space = graded_space(["p", "q", "r"], [-1, 0, 1])
    return sgla(space, {(0, 1): {1: 1}, (1, 1): {2: 1}, (0, 2): {2: 2}})


def graded_instances():
    """Graded (algebra, action) pairs used by the homotopy suites."""
    from .graded import adjoint_graded

    mixed = mixed_sgla()
    three = three_level_sgla()
    return [
        ("two-level", two_level_sgla(), two_level_rep()),
        ("mixed/adjoint", mixed, adjoint_graded(mixed)),
        ("three-level/adjoint", three, adjoint_graded(three)),
    ]
