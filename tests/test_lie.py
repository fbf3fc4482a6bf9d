import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter import catalog, lie
from rotabaxter.catalog import (
    abelian,
    affine_line,
    double_affine,
    heisenberg,
    natural_rep_affine,
    rbo_catalog,
    search_algebras,
    sl2,
)
from rotabaxter.errors import BoundError, SearchSpaceError, ShapeMismatchError
from rotabaxter.lie import (
    LieAlgebra,
    LinearOperator,
    adjoint,
    check_lie,
    check_representation,
    is_rota_baxter,
    iter_rbo,
    lie_algebra,
    oop_defect,
    operator,
    search_rbo,
    zero_operator,
)
from rotabaxter.linalg import ZERO, basis_vector, matrix


def mat_vec(a, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a)


def direct_rbo_check(alg, p):
    """Oracle: the weight-zero Rota-Baxter identity by raw matrix algebra."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            px = mat_vec(p.matrix, basis_vector(n, i))
            py = mat_vec(p.matrix, basis_vector(n, j))
            lhs = alg.bracket(px, py)
            inner_1 = alg.bracket(px, basis_vector(n, j))
            inner_2 = alg.bracket(basis_vector(n, i), py)
            rhs = mat_vec(p.matrix, tuple(a + b for a, b in zip(inner_1, inner_2)))
            if lhs != rhs:
                return False
    return True


def test_check_lie_abelian():
    assert check_lie(abelian(3)).ok


def test_check_lie_catalog():
    for name, alg in search_algebras():
        rep = check_lie(alg)
        assert rep.ok, name


def test_check_lie_antisymmetry_failure():
    broken = lie_algebra(["e1", "e2"], {(0, 1): {0: 1}, (1, 0): {0: 1}})
    rep = check_lie(broken)
    assert not rep.ok
    assert not rep.details["antisymmetry_ok"]
    assert rep.witness["at"] == [1, 2, 1]


def test_check_lie_jacobi_failure():
    broken = lie_algebra(
        ["e1", "e2", "e3"],
        {(0, 1): {2: 1}, (0, 2): {0: 1}},
    )
    rep = check_lie(broken)
    assert not rep.ok
    assert rep.details["antisymmetry_ok"]
    assert not rep.details["jacobi_ok"]


def test_adjoint_matrices_affine():
    ad = adjoint(affine_line())
    assert ad.matrices[0] == matrix([[0, 0], [0, 1]])
    assert ad.matrices[1] == matrix([[0, 0], [-1, 0]])


def test_adjoint_heisenberg_single_entry():
    ad = adjoint(heisenberg())
    assert ad.matrices[0] == matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])


def test_adjoint_is_representation_for_catalog():
    for alg in [affine_line(), heisenberg(), sl2(), double_affine(), abelian(2)]:
        assert check_representation(alg, adjoint(alg)).ok


def test_zero_representation_ok():
    alg = affine_line()
    zero = lie_algebra(["v1", "v2"], {})
    rep = natural_rep_affine()
    from rotabaxter.lie import Representation

    zrep = Representation(("v1", "v2"), (matrix([[0, 0], [0, 0]]),) * 2)
    assert check_representation(alg, zrep).ok
    assert check_representation(alg, rep).ok


def test_representation_failure_witness():
    from rotabaxter.lie import Representation

    alg = affine_line()
    bad = Representation(("v1", "v2"), (matrix([[1, 0], [0, 0]]), matrix([[1, 0], [0, 0]])))
    rep = check_representation(alg, bad)
    assert not rep.ok
    assert rep.witness["at"] == [1, 2]


def test_oop_defect_zero_operator():
    alg = affine_line()
    assert oop_defect(alg, adjoint(alg), zero_operator(2, 2)).is_zero()


def test_oop_defect_known_rbo():
    alg = affine_line()
    p = operator([[0, 1], [0, 0]], "g", "g")  # P(e1)=0, P(e2)=e1
    assert oop_defect(alg, adjoint(alg), p).is_zero()
    assert is_rota_baxter(alg, p)


def test_oop_defect_identity_operator():
    alg = affine_line()
    ident = operator([[1, 0], [0, 1]], "g", "g")
    defect = oop_defect(alg, adjoint(alg), ident)
    assert defect.eval((0, 1)) == (Fraction(0), Fraction(-1))
    assert not is_rota_baxter(alg, ident)


def test_oop_defect_antisymmetry():
    rng = random.Random(1)
    alg = heisenberg()
    rep = adjoint(alg)
    for _ in range(10):
        mat = [[Fraction(rng.randrange(-2, 3)) for _ in range(3)] for _ in range(3)]
        t = LinearOperator(matrix(mat))
        d = oop_defect(alg, rep, t)
        for i in range(3):
            for j in range(3):
                lhs = d.eval((i, j))
                rhs = tuple(-x for x in d.eval((j, i)))
                assert lhs == rhs


def test_is_rota_baxter_matches_defect_route():
    rng = random.Random(2)
    for name, alg in search_algebras():
        rep = adjoint(alg)
        for _ in range(25):
            mat = [[Fraction(rng.randrange(-1, 2)) for _ in range(alg.dim)]
                   for _ in range(alg.dim)]
            p = LinearOperator(matrix(mat), "g", "g")
            assert is_rota_baxter(alg, p) == oop_defect(alg, rep, p).is_zero()


def test_oop_scaling_invariance():
    # If T is an O-operator, so is every scalar multiple.
    alg = affine_line()
    rep = adjoint(alg)
    found = search_rbo(alg, (-1, 0, 1))
    for op in found:
        for lam in (Fraction(-1), Fraction(2), Fraction(1, 3)):
            scaled = LinearOperator(tuple(tuple(lam * x for x in row) for row in op.matrix),
                                    op.domain, op.codomain)
            assert oop_defect(alg, rep, scaled).is_zero()


def test_search_rbo_matches_direct_oracle_affine():
    alg = affine_line()
    grid = (Fraction(-1), Fraction(0), Fraction(1))
    found = search_rbo(alg, grid)
    expected = []
    for flat in itertools.product(grid, repeat=4):
        p = LinearOperator((flat[0:2], flat[2:4]), "g", "g")
        if direct_rbo_check(alg, p):
            expected.append(p.matrix)
    assert sorted(op.matrix for op in found) == sorted(expected)
    assert len(found) == 15


# Rescaled-basis copies: on the basis lam_i e_i the constants read
# lam_i lam_j / lam_k c_ij^k and an operator P reads lam_j / lam_k P_kj, so the
# searched operators stay Rota-Baxter while both carry non-unit denominators.
SCALES = (Fraction(2), Fraction(1, 3), Fraction(-3, 2), Fraction(5, 7), Fraction(-1), Fraction(1))
ENTRIES = (Fraction(1, 2), Fraction(-2, 3), Fraction(3), Fraction(-1), Fraction(1))
RESCALED = [name for name, _ in search_algebras()] + ["abelian"]


def rescaled(alg, lam):
    n = alg.dim
    return LieAlgebra(alg.basis, tuple(
        tuple(tuple(lam[i] * lam[j] / lam[k] * alg.c[i][j][k] for k in range(n)) for j in range(n))
        for i in range(n)))


# no deadline: the first draw on each algebra runs its full-grid search
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_rota_baxter_agrees_with_the_direct_oracle(data):
    # direct_rbo_check walks every ordered pair (i = j and j < i too) with
    # mat_vec; is_rota_baxter walks i < j, reads the table's rows and stops
    # at the first row that differs.  Drawn operators are rational
    # with at least a third of their entries zero, searched operators
    # (rescaled with the basis, then scaled), or those with one entry moved.
    name = data.draw(st.sampled_from(RESCALED))
    base = abelian(3) if name == "abelian" else dict(search_algebras())[name]
    n = base.dim
    lam = data.draw(st.lists(st.sampled_from(SCALES), min_size=n, max_size=n))
    alg = rescaled(base, lam)
    kind = data.draw(st.sampled_from(("drawn", "searched", "moved")))
    if kind == "drawn" or name == "abelian":
        flat = data.draw(st.lists(st.sampled_from(ENTRIES), min_size=n * n, max_size=n * n))
        for at in data.draw(st.sets(st.integers(0, n * n - 1), min_size=-(-n * n // 3))):
            flat[at] = Fraction(0)
        mat = [flat[r * n:(r + 1) * n] for r in range(n)]
    else:
        found = exhaustive(name, (-1, 0, 1))
        searched = found[data.draw(st.integers(0, len(found) - 1))]
        s = data.draw(st.sampled_from(SCALES))
        mat = [[s * lam[j] / lam[k] * searched[k][j] for j in range(n)] for k in range(n)]
        if kind == "moved":
            k, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            mat[k][j] += data.draw(st.sampled_from(ENTRIES))
    p = LinearOperator(matrix(mat), "g", "g")
    assert is_rota_baxter(alg, p) == direct_rbo_check(alg, p)


def test_search_rbo_zero_one_grid_contains_spec_examples():
    alg = affine_line()
    found = {op.matrix for op in search_rbo(alg, (0, 1))}
    assert len(found) == 5
    assert matrix([[0, 1], [0, 0]]) in found  # P(e1)=0, P(e2)=e1
    assert matrix([[0, 0], [0, 0]]) in found


def test_search_rbo_abelian_one_dim():
    found = search_rbo(abelian(1), (0, 1))
    assert len(found) == 2


def test_search_rbo_searches_each_grid_value_once():
    # a repeated value, however written, adds no candidate and no operator
    alg = affine_line()
    assert [op.matrix for op in search_rbo(alg, (0, 0))] == [matrix([[0, 0], [0, 0]])]
    want = [op.matrix for op in search_rbo(alg, (0, 1))]
    assert len(want) == 5
    for grid in ((0, 1, 1), ("0", "1/1", "2/2"), (1, 0, 1, 0)):
        assert [op.matrix for op in search_rbo(alg, grid)] == want
    assert [op.matrix for op in search_rbo(alg, (0, 1, 1), processes=2)] == want
    # the cap counts the 2^4 distinct candidates, not 3^4
    assert len(search_rbo(alg, (0, 1, 1), cap=16)) == 5
    with pytest.raises(SearchSpaceError, match="16 candidates"):
        search_rbo(alg, (0, 1, 1), cap=15)


def test_search_rbo_empty_grid():
    with pytest.raises(ValueError):
        search_rbo(affine_line(), ())


def test_search_rbo_cap():
    with pytest.raises(SearchSpaceError):
        search_rbo(sl2(), (-1, 0, 1), cap=100)


def test_search_rbo_parallel_agrees():
    # the search sorts its grid, not its hits: every grid order, sequential
    # or split over two workers, gives the one sorted list
    for alg, values in ((affine_line(), (-1, 0, 1)), (sl2(), (0, 1))):
        want = sorted(op.matrix for op in search_rbo(alg, values))
        for grid in itertools.permutations(values):
            for processes in (None, 2):
                assert [op.matrix for op in search_rbo(alg, grid, processes=processes)] == want


def count_decided(monkeypatch):
    """Count the candidates the search decides, through lie.is_rota_baxter."""
    calls = []

    def counted(alg, p):
        calls.append(p.matrix)
        return is_rota_baxter(alg, p)

    monkeypatch.setattr(lie, "is_rota_baxter", counted)
    return calls


def test_iter_rbo_refuses_before_deciding_a_candidate(monkeypatch):
    calls = count_decided(monkeypatch)
    with pytest.raises(ValueError, match="nonempty"):
        iter_rbo(affine_line(), ())
    with pytest.raises(SearchSpaceError, match="10077696 candidates"):
        iter_rbo(heisenberg(), range(6))
    with pytest.raises(ShapeMismatchError, match="nonempty basis"):
        iter_rbo(lie_algebra([], {}), (0, 1))
    assert calls == []


def test_the_searches_refuse_a_malformed_table_before_deciding_a_candidate(monkeypatch):
    # one plane of constants for two basis vectors: the table check runs
    # once per algebra, before the first candidate
    z = (Fraction(0), Fraction(0))
    bad = LieAlgebra(("a", "b"), ((z, z),))
    calls = count_decided(monkeypatch)
    with pytest.raises(ShapeMismatchError, match="structure constant"):
        search_rbo(bad, (0, 1))
    with pytest.raises(ShapeMismatchError, match="structure constant"):
        iter_rbo(bad, (0, 1))
    monkeypatch.setattr(catalog, "search_algebras", lambda: [("bad", bad)])
    with pytest.raises(ShapeMismatchError, match="structure constant"):
        rbo_catalog((0, 1))
    assert calls == []
    with pytest.raises(ShapeMismatchError, match="structure constant"):
        is_rota_baxter(bad, zero_operator(2, 2, "g", "g"))


@functools.lru_cache(maxsize=None)
def exhaustive(name, grid):
    alg = dict(search_algebras())[name]
    return [op.matrix for op in search_rbo(alg, grid)]


def catalog_oracle(grid, k):
    """zero + nonzero[:k] of each exhaustive search; everything in dimension 2."""
    out = []
    for name, alg in search_algebras():
        found = exhaustive(name, grid)
        if alg.dim > 2:
            nonzero = [m for m in found if any(any(row) for row in m)]
            zero = [m for m in found if not any(any(row) for row in m)]
            found = zero + nonzero[:k]
        out.append((name, found))
    return out


def catalog_matrices(catalog):
    return [(name, [op.matrix for op in ops]) for name, _, ops in catalog]


@pytest.mark.parametrize("grid", [(0, 1), (1, 0), (-1, 1), (0,), (Fraction(1, 2), 0, -2)],
                         ids=str)
def test_rbo_catalog_stops_early_on_the_exhaustive_selection(grid):
    for k in (0, 1, 10, 100):
        assert catalog_matrices(rbo_catalog(grid, k)) == catalog_oracle(grid, k)


def test_rbo_catalog_default_grid_matches_the_exhaustive_selection():
    # on heisenberg the zero operator is candidate 9,842 of 19,683, after
    # the 10th nonzero hit (candidate 840), yet it still comes first
    catalog = rbo_catalog()
    assert catalog_matrices(catalog) == catalog_oracle((-1, 0, 1), 10)
    assert [len(ops) for _, _, ops in catalog] == [15, 11, 11]
    assert all(op.domain == op.codomain == "g" for _, _, ops in catalog for op in ops)


def test_rbo_catalog_decides_candidates_up_to_its_last_kept_operator(monkeypatch):
    calls = count_decided(monkeypatch)
    assert [len(ops) for _, _, ops in rbo_catalog((0, 1))] == [5, 11, 9]
    # affine 16; heisenberg to its 10th nonzero hit, the 21st candidate;
    # sl2 has 8 nonzero, so all 512
    assert len(calls) == 16 + 21 + 512
    calls.clear()
    # per_algebra 0 keeps the zero operator and scans no 3-dimensional grid
    assert [len(ops) for _, _, ops in rbo_catalog((0, 1), 0)] == [5, 1, 1]
    assert len(calls) == 16


def test_rbo_catalog_refuses_a_negative_per_algebra():
    with pytest.raises(BoundError, match="per_algebra"):
        rbo_catalog((0, 1), -1)


def test_shape_errors():
    alg = affine_line()
    with pytest.raises(ShapeMismatchError):
        oop_defect(alg, adjoint(alg), zero_operator(3, 3))
    with pytest.raises(ShapeMismatchError):
        is_rota_baxter(alg, zero_operator(3, 3))
    # the affine adjoint action has 2 matrices, heisenberg 3 basis elements
    with pytest.raises(ShapeMismatchError, match="one action matrix per algebra basis element"):
        oop_defect(heisenberg(), adjoint(alg), zero_operator(3, 2))
    ragged = lie.Representation(("v1", "v2"), (matrix([[1, 0], [0, 1]]), ((1, 0), (0,))))
    with pytest.raises(ShapeMismatchError, match="square of the module dimension"):
        oop_defect(alg, ragged, zero_operator(2, 2))


def test_oop_defect_refuses_a_module_of_dimension_448_before_any_pair(monkeypatch):
    # its walk over the pairs i < j counts 3 + d^2 steps: 200,707 at d = 448,
    # above the cap of 200,000, and 199,812 at d = 447
    from rotabaxter.graded import CANONICAL_WORD_CAP, _walk_steps, ungraded_space

    assert _walk_steps(ungraded_space(447), 2) == 3 + 447 ** 2 <= CANONICAL_WORD_CAP
    calls = []
    for cls, name in ((lie.LieAlgebra, "bracket"), (lie.Representation, "act_basis")):
        kernel = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, kernel=kernel: calls.append(args) or kernel(*args))
    d = 448
    zero = (Fraction(0),) * d
    rep = lie.Representation(tuple(f"v{i + 1}" for i in range(d)), ((zero,) * d,))
    with pytest.raises(SearchSpaceError, match="a walk to weight 2 needs at least 200707 steps"):
        oop_defect(abelian(1), rep, zero_operator(1, d))
    assert not calls


def test_a_short_structure_table_is_a_shape_error_of_the_module_checks():
    # one 1 x 2 plane for two basis elements: the representation check and
    # the O-operator defect compare the table with the basis before reading it
    alg = lie.LieAlgebra(("a", "b"), (((0, 1),),))
    rep = lie.Representation(("u", "v"), (matrix([[1, 0], [0, 1]]),) * 2)
    for run in (lambda: check_representation(alg, rep),
                lambda: oop_defect(alg, rep, zero_operator(2, 2))):
        with pytest.raises(ShapeMismatchError, match="structure constant array does not match"):
            run()
