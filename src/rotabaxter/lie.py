"""Finite-dimensional Lie algebras by structure constants, representations by
matrices, and verification of the Rota-Baxter and relative (O-) operator
identities in exact rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .deformation import AltMap
from .errors import SearchSpaceError, ShapeMismatchError
from .linalg import (
    Clearable,
    Matrix,
    Vector,
    ZERO,
    act_basis,
    adjoint_matrices,
    basis_vector,
    bilinear,
    fr,
    mat_commutator,
    mat_is_zero,
    mat_sub,
    mat_vec,
    matrix,
    rho,
    table_from_pairs,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .reports import Report, named_residual, scalar_text


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

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.c[i][j]

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
class Representation(Clearable):
    """Representation of a Lie algebra on a named vector space V.

    ``matrices[i]`` is rho(e_i), rows indexed by the codomain basis of V.
    """

    basis: tuple[str, ...]
    matrices: tuple[Matrix, ...]
    _constants = "matrices"

    @property
    def space_dim(self) -> int:
        return len(self.basis)

    rho = rho
    act_basis = act_basis


@dataclass(frozen=True)
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

    def apply(self, v: Vector) -> Vector:
        return mat_vec(self.matrix, v)

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("operator shapes differ")
        return LinearOperator(
            tuple(vec_add(a, b) for a, b in zip(self.matrix, other.matrix)),
            self.domain,
            self.codomain,
        )

    def scale(self, c) -> "LinearOperator":
        c = fr(c)
        return LinearOperator(
            tuple(tuple(c * x for x in row) for row in self.matrix),
            self.domain,
            self.codomain,
        )


def operator(rows, domain: str = "V", codomain: str = "g") -> LinearOperator:
    return LinearOperator(matrix(rows), domain, codomain)


def zero_operator(nrows: int, ncols: int, domain: str = "V", codomain: str = "g") -> LinearOperator:
    return LinearOperator(tuple((ZERO,) * ncols for _ in range(nrows)), domain, codomain)


def check_lie(alg: LieAlgebra) -> Report:
    """Verify antisymmetry and the Jacobi identity on all basis triples."""
    n = alg.dim
    if len(alg.c) != n or any(len(p) != n or any(len(r) != n for r in p) for p in alg.c):
        raise ShapeMismatchError("structure constant array does not match the basis")
    antisym = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if alg.c[i][j][k] != -alg.c[j][i][k]:
                    antisym = {
                        "at": [i + 1, j + 1, k + 1],
                        "residual": scalar_text(alg.c[i][j][k] + alg.c[j][i][k]),
                    }
                    break
            if antisym:
                break
        if antisym:
            break
    jacobi = None
    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(n):
            ej = basis_vector(n, j)
            for k in range(n):
                ek = basis_vector(n, k)
                res = vec_add(
                    vec_add(
                        alg.bracket(alg.bracket(ei, ej), ek),
                        alg.bracket(alg.bracket(ej, ek), ei),
                    ),
                    alg.bracket(alg.bracket(ek, ei), ej),
                )
                if not vec_is_zero(res):
                    jacobi = {
                        "at": [i + 1, j + 1, k + 1],
                        "residual": named_residual(res, alg.basis),
                    }
                    break
            if jacobi:
                break
        if jacobi:
            break
    ok = antisym is None and jacobi is None
    return Report(
        "check-lie",
        ok,
        witness=antisym or jacobi,
        details={"antisymmetry_ok": antisym is None, "jacobi_ok": jacobi is None},
    )


def check_representation(alg: LieAlgebra, rep: Representation) -> Report:
    """Verify rho([e_i, e_j]) = [rho(e_i), rho(e_j)] on all basis pairs."""
    if len(rep.matrices) != alg.dim:
        raise ShapeMismatchError("one action matrix per algebra basis element required")
    d = rep.space_dim
    if any(len(m) != d or any(len(row) != d for row in m) for m in rep.matrices):
        raise ShapeMismatchError("action matrices must be square of the module dimension")
    witness = None
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = rep.rho(alg.bracket_basis(i, j))
            rhs = mat_commutator(rep.matrices[i], rep.matrices[j])
            res = mat_sub(lhs, rhs)
            if not mat_is_zero(res):
                witness = {
                    "at": [i + 1, j + 1],
                    "residual": [[scalar_text(x) for x in row] for row in res],
                }
                break
        if witness:
            break
    return Report("check-rep", witness is None, witness=witness)


def adjoint(alg: LieAlgebra) -> Representation:
    """Adjoint representation: rho(e_i) has (k, j) entry c[i][j][k]."""
    return Representation(alg.basis, adjoint_matrices(alg.c))


def oop_defect(alg: LieAlgebra, rep: Representation, t: LinearOperator) -> AltMap:
    """Bilinear defect of the relative Rota-Baxter identity for T: V -> g.

    D(u, v) = [Tu, Tv] - T(rho(Tu) v - rho(Tv) u); T is an O-operator
    exactly when D vanishes on all basis pairs.
    """
    if t.rows != alg.dim or t.cols != rep.space_dim:
        raise ShapeMismatchError(
            f"operator is {t.rows}x{t.cols}, expected {alg.dim}x{rep.space_dim}"
        )
    entries = {}
    for i in range(rep.space_dim):
        ti = t.column(i)
        for j in range(i + 1, rep.space_dim):
            tj = t.column(j)
            inner = vec_sub(rep.act_basis(ti, j), rep.act_basis(tj, i))
            val = vec_sub(alg.bracket(ti, tj), t.apply(inner))
            if not vec_is_zero(val):
                entries[(i, j)] = val
    return AltMap(2, rep.space_dim, alg.dim, entries)


def is_rota_baxter(alg: LieAlgebra, p: LinearOperator) -> bool:
    """Direct check of [Px, Py] = P([Px, y] + [x, Py]) on basis pairs.

    Equivalent to the O-operator defect (with the adjoint action) vanishing;
    kept as an independent early-exit implementation.
    """
    n = alg.dim
    if p.rows != n or p.cols != n:
        raise ShapeMismatchError(f"operator is {p.rows}x{p.cols}, expected {n}x{n}")
    cols = [p.column(j) for j in range(n)]
    for i in range(n):
        pi = cols[i]
        for j in range(i + 1, n):
            pj = cols[j]
            lhs = alg.bracket(pi, pj)
            inner = vec_add(alg.bracket(pi, basis_vector(n, j)),
                            alg.bracket(basis_vector(n, i), pj))
            if lhs != p.apply(inner):
                return False
    return True


def _search_chunk(alg: LieAlgebra, grid: tuple, n: int, first_entries) -> list[LinearOperator]:
    found = []
    for head in first_entries:
        for rest in itertools.product(grid, repeat=n * n - 1):
            flat = (head,) + rest
            mat = tuple(flat[r * n:(r + 1) * n] for r in range(n))
            cand = LinearOperator(mat, "g", "g")
            if is_rota_baxter(alg, cand):
                found.append(cand)
    return found


def search_rbo(alg: LieAlgebra, grid, cap: int = 2_000_000, processes: int | None = None) -> list[LinearOperator]:
    """All Rota-Baxter operators with matrix entries drawn from the grid.

    Exhaustive over |grid|^(dim^2) candidate matrices; the result is sorted
    by matrix entries so sequential and parallel runs agree byte for byte.
    Raises SearchSpaceError beyond ``cap`` candidates.
    """
    grid = tuple(fr(x) for x in grid)
    if not grid:
        raise ValueError("search grid must be nonempty")
    n = alg.dim
    total = len(grid) ** (n * n)
    if total > cap:
        raise SearchSpaceError(f"{total} candidates exceed the cap of {cap}")
    if processes and processes > 1 and len(grid) > 1:
        # imported here: the process pool pulls in multiprocessing, pickle,
        # socket and logging, which a sequential search never needs
        from concurrent.futures import ProcessPoolExecutor

        chunks = [grid[i::processes] for i in range(processes)]
        chunks = [ch for ch in chunks if ch]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = pool.map(_search_chunk, itertools.repeat(alg), itertools.repeat(grid),
                             itertools.repeat(n), chunks)
        found = [op for part in parts for op in part]
    else:
        found = _search_chunk(alg, grid, n, grid)
    found.sort(key=lambda op: op.matrix)
    return found
