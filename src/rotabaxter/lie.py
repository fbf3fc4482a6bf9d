"""Finite-dimensional Lie algebras by structure constants, representations by
matrices, and verification of the Rota-Baxter and relative (O-) operator
identities in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .deformation import AltMap, _walked_altmap
from .errors import BoundError, SearchSpaceError, ShapeMismatchError
from .graded import CellWalk, GradedVectorSpace, Walk, require_cells, ungraded_space
from .linalg import (
    Action,
    Clearable,
    LinearOperator,
    Matrix,
    ZERO,
    act_basis,
    adjoint_matrices,
    as_integers,
    bilinear,
    cleared_pair,
    common_denominator,
    fr,
    matrix,
    require_action,
    require_table,
    signed_sum,
    table_from_pairs,
    vec_sub,
)
from .reports import Report, cell_witness


@dataclass(frozen=True)
class LieAlgebra(Clearable):
    """Lie algebra given by structure constants on a named basis.

    ``c[i][j][k]`` is the coefficient of e_k in [e_i, e_j].  Constructors do
    not validate the axioms; run :func:`check_lie` explicitly so deliberately
    broken inputs can be represented.
    """

    basis: tuple[str, ...]
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _constants = "c"

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def space(self) -> GradedVectorSpace:
        """The space the values of an alternating map into it live on."""
        return ungraded_space(self.dim)

    @cached_property
    def _table_dim(self) -> int:
        """The dimension, once ``require_table`` passes, decided once per object."""
        return require_table(self.dim, self.c, "structure constant array does not match the basis")

    bracket = bilinear


def lie_algebra(basis, brackets) -> LieAlgebra:
    """Build a LieAlgebra from sparse data ``{(i, j): {k: coeff}}``.

    For every listed pair (i, j) whose mirror (j, i) is not listed, the
    antisymmetric completion is filled in (:func:`linalg.table_from_pairs`,
    every degree -1); explicitly listed mirrors are taken verbatim so broken
    inputs remain expressible.
    """
    basis = tuple(basis)
    return LieAlgebra(basis, table_from_pairs(len(basis), brackets, (-1,) * len(basis)))


@dataclass(frozen=True)
class Representation(Action):
    """Representation of a Lie algebra on a named vector space V.

    ``matrices[i]`` is rho(e_i), rows indexed by the codomain basis of V.
    """

    basis: tuple[str, ...]
    matrices: tuple[Matrix, ...]

    @property
    def space_dim(self) -> int:
        return len(self.basis)

    @cached_property
    def space(self) -> GradedVectorSpace:
        """The space an alternating map on the module lives on."""
        return ungraded_space(self.space_dim)

    act_basis = act_basis


def operator(rows, domain: str = "V", codomain: str = "g") -> LinearOperator:
    return LinearOperator(matrix(rows), domain, codomain)


def zero_operator(nrows: int, ncols: int, domain: str = "V", codomain: str = "g") -> LinearOperator:
    return LinearOperator(tuple((ZERO,) * ncols for _ in range(nrows)), domain, codomain)


def check_lie(alg: LieAlgebra) -> Report:
    """Verify antisymmetry and the Jacobi identity on all basis triples, on
    the int image of the constants (den times them)."""
    n = alg._table_dim
    require_cells("check-lie", n ** 3 + n ** 4)
    den, c = alg.cleared()
    c = c.c
    cols = tuple(zip(*c))  # cols[k][m] is [e_m, e_k]
    antisym = cell_witness(CellWalk(den, n, 3, lambda i, j, k: (c[i][j][k] + c[j][i][k],)))
    jacobi = cell_witness(CellWalk(
        den * den, n, 3,
        lambda i, j, k: signed_sum(n, ((1, c[i][j], cols[k]), (1, c[j][k], cols[i]),
                                       (1, c[k][i], cols[j])))), alg.basis)
    ok = antisym is None and jacobi is None
    return Report(
        "check-lie",
        ok,
        witness=antisym or jacobi,
        details={"antisymmetry_ok": antisym is None, "jacobi_ok": jacobi is None},
    )


def check_representation(alg: LieAlgebra, rep: Representation) -> Report:
    """Verify rho([e_i, e_j]) = [rho(e_i), rho(e_j)] on all basis pairs, on
    the int images of both over one den."""
    n = alg._table_dim
    d = require_action(n, rep)
    require_cells("check-rep", n * (n - 1) // 2 * d * d)
    den, alg, rep = cleared_pair(alg, rep)
    c, ms = alg.c, rep.matrices
    rows = tuple(zip(*ms))  # rows[r][k] is row r of rho(e_k)
    witness = cell_witness(CellWalk(
        den * den, n, 2,
        lambda i, j: tuple(x for r in range(d)
                           for x in signed_sum(d, ((1, c[i][j], rows[r]), (-1, ms[i][r], ms[j]),
                                                   (1, ms[j][r], ms[i])))),
        distinct=True), side=d)
    return Report("check-rep", witness is None, witness=witness)


def adjoint(alg: LieAlgebra) -> Representation:
    """Adjoint representation: rho(e_i) has (k, j) entry c[i][j][k]."""
    return Representation(alg.basis, adjoint_matrices(alg.c))


def _oop_walk(alg: LieAlgebra, rep: Representation, t: LinearOperator) -> Walk:
    """The walk of the bilinear defect of :func:`oop_defect` over the pairs
    i < j, on the int images of T (over dt) and of (alg, rep) (over ds)."""
    if t.rows != alg.dim or t.cols != rep.space_dim:
        raise ShapeMismatchError(
            f"operator is {t.rows}x{t.cols}, expected {alg.dim}x{rep.space_dim}"
        )
    d = require_action(alg._table_dim, rep)
    dt = common_denominator(x for row in t.matrix for x in row)
    cols = tuple(zip(*as_integers(t.matrix, dt)))
    ds, alg, rep = cleared_pair(alg, rep)

    def on_pair(pair):
        i, j = pair
        inner = vec_sub(rep.act_basis(cols[i], j), rep.act_basis(cols[j], i))
        return vec_sub(alg.bracket(cols[i], cols[j]), signed_sum(alg.dim, ((1, inner, cols),)))

    return Walk(dt * dt * ds, ungraded_space(d), (2,), on_pair)


def oop_defect(alg: LieAlgebra, rep: Representation, t: LinearOperator) -> AltMap:
    """Bilinear defect of the relative Rota-Baxter identity for T: V -> g.

    D(u, v) = [Tu, Tv] - T(rho(Tu) v - rho(Tv) u); T is an O-operator
    exactly when D vanishes on all basis pairs.  It runs on the int images
    of T and of (alg, rep), each value divided once, and its walk over the
    pairs is counted against the work cap first.
    """
    return _walked_altmap(_oop_walk(alg, rep, t), alg.dim)


def is_rota_baxter(alg: LieAlgebra, p: LinearOperator) -> bool:
    """Direct check of [Px, Py] = P([Px, y] + [x, Py]) on basis pairs i < j.

    inner = sum_a P_ai c[a][j] + sum_b P_bj c[i][b] is read from the table,
    and P inner is compared with [Pe_i, Pe_j] row by row; zero factors are
    skipped.  An independent early-exit twin of the adjoint O-operator
    defect, on Fraction.
    """
    n = alg._table_dim
    if p.rows != n or p.cols != n:
        raise ShapeMismatchError(f"operator is {p.rows}x{p.cols}, expected {n}x{n}")
    c, rows = alg.c, p.matrix
    cols = tuple(zip(*rows))  # cols[j] is P e_j
    c_cols = tuple(zip(*c))  # c_cols[j][a] is [e_a, e_j]
    for i in range(n):
        for j in range(i + 1, n):
            inner = [0] * n
            for x, brackets in ((cols[i], c_cols[j]), (cols[j], c[i])):
                for a, xa in enumerate(x):
                    if xa:
                        for k, y in enumerate(brackets[a]):
                            if y:
                                inner[k] += xa * y
            support = [(k, v) for k, v in enumerate(inner) if v]
            if any(sum(row[k] * v for k, v in support if row[k]) != b
                   for row, b in zip(rows, alg.bracket(cols[i], cols[j]))):
                return False
    return True


def _hits(alg: LieAlgebra, grid: tuple):
    """The Rota-Baxter operators with entries in ``grid``.  Over a sorted
    ``grid`` they come in sorted matrix order: product visits the row-major
    entries in lexicographic order."""
    n = alg.dim
    for flat in itertools.product(grid, repeat=n * n):
        mat = tuple(flat[r * n:(r + 1) * n] for r in range(n))
        cand = LinearOperator(mat, "g", "g")
        if is_rota_baxter(alg, cand):
            yield cand


SEARCH_CAP = 2_000_000


def _search_grid(alg: LieAlgebra, grid, cap: int) -> tuple:
    """The distinct grid values, sorted, once the search they span is allowed."""
    # each value once, so no candidate is searched or counted twice
    grid = tuple(sorted({fr(x) for x in grid}))
    if not grid:
        raise BoundError("search grid must be nonempty")
    if not alg._table_dim:
        raise ShapeMismatchError("the searched algebra needs a nonempty basis")
    total = len(grid) ** (alg.dim * alg.dim)
    if total > cap:
        raise SearchSpaceError(f"{total} candidates exceed the cap of {cap}")
    return grid


def iter_rbo(alg: LieAlgebra, grid):
    """Iterator over the Rota-Baxter operators with matrix entries drawn from
    the grid, in sorted matrix order, each decided when it is reached.

    Raises BoundError for an empty grid, ShapeMismatchError for a
    zero-dimensional algebra and SearchSpaceError beyond ``SEARCH_CAP``
    candidates when called, before any candidate is decided.
    """
    grid = _search_grid(alg, grid, SEARCH_CAP)
    return _hits(alg, grid)


def search_rbo(alg: LieAlgebra, grid, cap: int = SEARCH_CAP, processes: int | None = None) -> list[LinearOperator]:
    """All Rota-Baxter operators with matrix entries drawn from the grid.

    Exhaustive over |grid|^(dim^2) candidate matrices, |grid| the number of
    distinct values, in one process.  Hits come out in sorted matrix order
    with no sort step.  ``processes`` is accepted and ignored.
    Raises SearchSpaceError beyond ``cap`` candidates.
    """
    return list(_hits(alg, _search_grid(alg, grid, cap)))
