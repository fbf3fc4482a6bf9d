"""The work cap of the six structure-axiom checks.

Each check counts its work in closed form, as its basis cells times the
coordinates of each cell's residual summed over its parts, right after its
shape guards and before it clears its constants.  Above
``AXIOM_WORK_CAP`` it raises a ``SearchSpaceError`` that names it.  The
inputs are zero tables whose rows and planes are shared, so a table of any
dimension costs almost nothing to build, and a check that starts its scan
meets a ``Scanned`` error at its first cleared constant or residual.
"""

import time
from fractions import Fraction

import pytest

from rotabaxter import graded, lie, linalg, prelie
from rotabaxter.combinatorics import AXIOM_WORK_CAP
from rotabaxter.errors import SearchSpaceError


class Scanned(Exception):
    """Raised where a check starts to compute residuals."""


def names(n):
    return tuple(f"e{i + 1}" for i in range(n))


def zero_matrix(n):
    return ((Fraction(0),) * n,) * n


def zero_table(n):
    return (zero_matrix(n),) * n


def zero_lie(n):
    return lie.LieAlgebra(names(n), zero_table(n))


def zero_sgla(n):
    return graded.SGLA(graded.concentrated(names(n), -1), zero_table(n))


def zero_grep(n):
    return graded.GradedRepresentation(graded.concentrated(names(n), -1), (zero_matrix(n),) * n)


# name: (the module whose signed_sum sums the residuals, the check on its
# zero input of dimension n, with an n-dimensional module where it has one,
# and the work it counts there)
CHECKS = {
    "check-lie": (lie, lambda n: lie.check_lie(zero_lie(n)), lambda n: n ** 3 + n ** 4),
    "check-rep": (lie, lambda n: lie.check_representation(zero_lie(n), lie.adjoint(zero_lie(n))),
                  lambda n: n * (n - 1) // 2 * n * n),
    "check-prelie": (prelie,
                     lambda n: prelie.check_prelie(prelie.PreLieProduct(names(n), zero_table(n))),
                     lambda n: n ** 4),
    "check-sgla": (graded, lambda n: graded.check_sgla(zero_sgla(n)),
                   lambda n: 2 * n ** 3 + n ** 4),
    "check-sdgla": (graded, lambda n: graded.check_sdgla(zero_sgla(n), zero_matrix(n)),
                    lambda n: n ** 2 + n ** 3),
    "check-graded-rep": (graded, lambda n: graded.check_graded_rep(zero_sgla(n), zero_grep(n)),
                         lambda n: n ** 4),
}


def scan_fails(monkeypatch, module):
    """Make the check module's signed_sum and every cleared() raise Scanned."""
    def scanned(*args):
        raise Scanned

    monkeypatch.setattr(module, "signed_sum", scanned)
    monkeypatch.setattr(linalg.Clearable, "cleared", scanned)


def first_refused(work):
    n = 1
    while work(n) <= AXIOM_WORK_CAP:
        n += 1
    return n


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_a_check_above_the_work_cap_is_refused_before_its_first_cell(monkeypatch, name):
    module, check, work = CHECKS[name]
    n = first_refused(work)
    scan_fails(monkeypatch, module)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError) as refused:
        check(n)
    assert time.perf_counter() - start < 1
    assert str(refused.value) == (f"{name} needs {work(n)} residual coordinates over basis "
                                  f"cells, above the cap of {AXIOM_WORK_CAP}")


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_the_work_cap_admits_a_64_dimensional_table(monkeypatch, name):
    # the largest admitted dimension too, so the count is the closed form
    module, check, work = CHECKS[name]
    scan_fails(monkeypatch, module)
    for n in (64, first_refused(work) - 1):
        assert work(n) <= AXIOM_WORK_CAP
        with pytest.raises(Scanned):
            check(n)


def test_a_sparse_120_dimensional_algebra_is_refused_before_its_first_cell(monkeypatch):
    # 120^3 + 120^4 coordinates for check-lie, C(120, 2) 120^2 for its adjoint
    alg = lie.lie_algebra(names(120), {})
    rep = lie.adjoint(alg)
    scan_fails(monkeypatch, lie)
    for check, work in ((lambda: lie.check_lie(alg), 209_088_000),
                        (lambda: lie.check_representation(alg, rep), 102_816_000)):
        start = time.perf_counter()
        with pytest.raises(SearchSpaceError, match=f"needs {work} residual coordinates"):
            check()
        assert time.perf_counter() - start < 1


def test_a_table_above_the_work_cap_is_refused_before_it_is_built():
    # 271^3 entries are admitted, 272^3 are not
    assert 271 ** 3 <= AXIOM_WORK_CAP < 272 ** 3
    for n in (272, 1000):
        with pytest.raises(SearchSpaceError, match=f"a table on {n} basis elements has "
                                                    f"{n ** 3} entries, above the cap"):
            linalg.table_from_pairs(n, {})


def test_every_unlisted_pair_of_a_table_shares_one_zero_row():
    # a file of 240 names and no brackets is 240^2 references to one row, not
    # 240^3 zeros, so its check is refused in O(file) memory
    t = linalg.table_from_pairs(240, {})
    assert len(t) == 240 and all(len(plane) == 240 for plane in t)
    rows = {id(row) for plane in t for row in plane}
    assert len(rows) == 1 and t[0][0] == (Fraction(0),) * 240
    # so does its adjoint, whose matrices transpose the table's planes
    ad = linalg.adjoint_matrices(t)
    assert len(ad) == 240 and all(len(m) == 240 for m in ad)
    assert len({id(row) for m in ad for row in m}) == 1 and ad[0][0] == (Fraction(0),) * 240
    # a listed pair and its completed mirror get rows of their own
    t = linalg.table_from_pairs(3, {(0, 1): {2: 1}}, degrees=(-1, -1, -1))
    assert t[0][1] == (0, 0, 1) and t[1][0] == (0, 0, -1) and t[2][2] == (0, 0, 0)
    assert len({id(row) for plane in t for row in plane}) == 3
    # ad(e_i) has (k, j) entry t[i][j][k]: only the rows k = 2 of ad(e_1)
    # and ad(e_2) are nonzero, and every other row is the one zero row
    ad = linalg.adjoint_matrices(t)
    assert ad[0][2] == (0, 1, 0) and ad[1][2] == (-1, 0, 0)
    assert all(not any(row) for i, m in enumerate(ad) for k, row in enumerate(m)
               if (i, k) not in ((0, 2), (1, 2)))
    assert len({id(row) for m in ad for row in m}) == 3
