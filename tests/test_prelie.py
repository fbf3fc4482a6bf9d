import random
import time
from fractions import Fraction

import pytest

from rotabaxter import graded
from rotabaxter.catalog import affine_line, heisenberg, lie_pairs
from rotabaxter.combinatorics import parity_sign
from rotabaxter.deformation import AltMap, courant_bracket
from rotabaxter.errors import NotMaurerCartanError, SearchSpaceError, ShapeMismatchError
from rotabaxter.lie import (
    Representation,
    adjoint,
    check_lie,
    operator,
    search_rbo,
    zero_operator,
)
from rotabaxter.prelie import (
    COMPOSE_NORMALIZATION,
    HookedMap,
    check_phi_homomorphism,
    check_prelie,
    circ,
    hook_of_product,
    induce_prelie,
    mn_bracket,
    phi,
    prelie_product,
)

from helpers import (
    action_matrix,
    commutator_algebra,
    eval_last_insert,
    random_altmap,
    random_hooked,
)


def rng():
    return random.Random(20)


def test_check_prelie_commutative_associative():
    # e_i * e_j = e_1 for all i, j is associative and commutative.
    p = prelie_product(["e1", "e2"], {(i, j): {0: 1} for i in range(2) for j in range(2)})
    assert check_prelie(p).ok


def test_check_prelie_induced_product():
    p = prelie_product(["e1", "e2"], {(1, 1): {1: 1}})
    assert check_prelie(p).ok


def test_check_prelie_failure_witness():
    p = prelie_product(["e1", "e2"], {(0, 0): {1: 1}, (1, 0): {0: 1}})
    rep = check_prelie(p)
    assert not rep.ok
    assert rep.witness is not None
    # re-evaluating the left-symmetry residual at the witness reproduces it
    i, j, k = (x - 1 for x in rep.witness["at"])
    from rotabaxter.linalg import basis_vector, vec_sub

    ei, ej, ek = (basis_vector(2, t) for t in (i, j, k))
    res = vec_sub(
        vec_sub(p.product(p.product(ei, ej), ek), p.product(ei, p.product(ej, ek))),
        vec_sub(p.product(p.product(ej, ei), ek), p.product(ej, p.product(ei, ek))),
    )
    assert any(res)


def test_hooked_eval_signs():
    h = HookedMap(2, 3, {((0, 1), 2): (Fraction(1), Fraction(0), Fraction(0))})
    assert h.eval((1, 0), 2) == (Fraction(-1), Fraction(0), Fraction(0))
    assert h.eval((0, 0), 2) == (Fraction(0),) * 3
    assert h.eval((0, 1), 0) == (Fraction(0),) * 3


def test_circ_zero_and_arity():
    r = rng()
    a = random_hooked(r, 1, 2)
    z = HookedMap.zero(1, 2)
    assert circ(a, z).is_zero()
    assert circ(z, a).is_zero()
    b = random_hooked(r, 2, 3)
    c = random_hooked(r, 1, 3)
    assert circ(b, c).arity == 3


def test_compose_normalization_pinned():
    # The global sign of the compose is fixed by the bracket homomorphism
    # law; this freezes the hand expansion for two 1-ary hooked maps:
    # (a o b)(u1, u2, w) = -[ a(b(u1,u2), w) - a(b(u2,u1), w)
    #                         - a(u1, b(u2,w)) + a(u2, b(u1,w)) ].
    assert COMPOSE_NORMALIZATION == -1
    r = rng()
    for dim in (2, 3):
        a = random_hooked(r, 1, dim)
        b = random_hooked(r, 1, dim)
        got = circ(a, b)
        for u1 in range(dim):
            for u2 in range(dim):
                for w in range(dim):
                    want = a.eval_insert(b.eval((u1,), u2), (), w)
                    want = tuple(x - y for x, y in zip(want, a.eval_insert(b.eval((u2,), u1), (), w)))
                    want = tuple(x - y for x, y in zip(want, eval_last_insert(a, (u1,), b.eval((u2,), w))))
                    want = tuple(x + y for x, y in zip(want, eval_last_insert(a, (u2,), b.eval((u1,), w))))
                    assert got.eval((u1, u2), w) == tuple(-x for x in want)


def test_mn_bracket_graded_skew():
    r = rng()
    for dim in (2, 3):
        for _ in range(6):
            a = random_hooked(r, r.randrange(3), dim)
            b = random_hooked(r, r.randrange(3), dim)
            if a.arity + b.arity > 4:
                continue
            lhs = mn_bracket(a, b)
            rhs = mn_bracket(b, a).scale(-parity_sign(a.arity * b.arity))
            assert lhs == rhs


def test_mn_bracket_graded_jacobi():
    r = rng()
    for dim in (2, 3):
        for _ in range(8):
            arities = [r.randrange(3) for _ in range(3)]
            if sum(arities) > 4:
                continue
            a, b, c = (random_hooked(r, k, dim) for k in arities)
            lhs = mn_bracket(a, mn_bracket(b, c))
            r1 = mn_bracket(mn_bracket(a, b), c)
            r2 = mn_bracket(b, mn_bracket(a, c)).scale(parity_sign(arities[0] * arities[1]))
            assert lhs == r1 + r2


@pytest.mark.parametrize("arities", [(1, 1), (2, 1)])
def test_mn_bracket_reuses_each_maps_int_image(monkeypatch, arities):
    # each map clears its values once; a second bracket of the same maps
    # reads the stored images and computes no denominator again
    r = rng()
    a, b = (random_hooked(r, k, 3) for k in arities)
    calls = []
    common_denominator = graded.common_denominator

    def counting(values):
        calls.append(1)
        return common_denominator(values)

    monkeypatch.setattr(graded, "common_denominator", counting)
    first = mn_bracket(a, b)
    assert len(calls) == 2
    assert mn_bracket(a, b) == first and len(calls) == 2


def test_self_bracket_is_twice_compose_for_odd_arity():
    r = rng()
    a = random_hooked(r, 1, 2)
    assert mn_bracket(a, a) == circ(a, a) + circ(a, a)


def test_prelie_iff_square_zero():
    # A bilinear product is pre-Lie exactly when its hooked map squares to
    # zero under the bracket.
    r = rng()
    good = prelie_product(["e1", "e2"], {(1, 1): {1: 1}})
    assert mn_bracket(hook_of_product(good), hook_of_product(good)).is_zero()
    hits = 0
    for _ in range(50):
        mu = {}
        for i in range(2):
            for j in range(2):
                mu[(i, j)] = {k: Fraction(r.randrange(-1, 2)) for k in range(2)}
        p = prelie_product(["e1", "e2"], mu)
        h = hook_of_product(p)
        agrees = check_prelie(p).ok == mn_bracket(h, h).is_zero()
        assert agrees
        hits += check_prelie(p).ok
    assert hits < 50  # most random products fail


def test_phi_zero_map():
    alg = affine_line()
    rep = adjoint(alg)
    assert phi(AltMap.zero(2, 2, 2), rep).is_zero()


@pytest.mark.parametrize("dim_cod", [1, 3])
def test_phi_refuses_values_outside_the_algebra_of_the_action(dim_cod):
    rep = adjoint(affine_line())  # two action matrices
    f = AltMap(1, 2, dim_cod, {(0,): (1,) + (0,) * (dim_cod - 1),
                               (1,): (0,) * (dim_cod - 1) + (2,)})
    with pytest.raises(ShapeMismatchError, match="algebra of the representation"):
        phi(f, rep)
    with pytest.raises(ShapeMismatchError, match="algebra of the representation"):
        phi(AltMap.zero(1, 2, dim_cod), rep)


def test_phi_of_operator_is_induced_product():
    alg = affine_line()
    rep = adjoint(alg)
    p = operator([[0, 1], [0, 0]], "g", "g")  # P(e1)=0, P(e2)=e1
    hook = phi(AltMap.from_operator(p), rep)
    prod = induce_prelie(p, alg, rep)
    assert hook == hook_of_product(prod)
    assert all(hook.eval((i,), j) == prod.mu[i][j] for i in range(2) for j in range(2))


def test_phi_spot_value_on_defect_map():
    # Compose the matrices by hand for a 2-ary map.
    alg = affine_line()
    rep = adjoint(alg)
    f = AltMap(2, 2, 2, {(0, 1): (Fraction(1), Fraction(2))})
    hook = phi(f, rep)
    m = action_matrix(rep, (Fraction(1), Fraction(2)))
    for w in range(2):
        assert hook.eval((0, 1), w) == tuple(m[r][w] for r in range(2))


def test_phi_homomorphism_random_pairs():
    r = rng()
    for name, alg, rep in lie_pairs():
        for _ in range(8):
            f = random_altmap(r, r.randrange(3), rep.space_dim, alg.dim)
            g = random_altmap(r, r.randrange(3), rep.space_dim, alg.dim)
            assert check_phi_homomorphism(f, g, alg, rep)


def test_phi_homomorphism_on_mc_elements():
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap.from_operator(operator([[0, 1], [0, 0]], "g", "g"))
    lhs = phi(courant_bracket(t, t, alg, rep), rep)
    rhs = mn_bracket(phi(t, rep), phi(t, rep))
    assert lhs.is_zero() and rhs.is_zero()


def test_induce_prelie_zero():
    alg = affine_line()
    rep = adjoint(alg)
    p = induce_prelie(zero_operator(2, 2), alg, rep)
    assert all(not any(p.mu[i][j]) for i in range(2) for j in range(2))


def test_induce_prelie_spec_examples():
    alg = affine_line()
    rep = adjoint(alg)
    p1 = induce_prelie(operator([[0, 1], [0, 0]], "g", "g"), alg, rep)
    assert p1.mu[1][1] == (Fraction(0), Fraction(1))  # e2*e2 = e2
    assert all(not any(p1.mu[i][j]) for i in range(2) for j in range(2) if (i, j) != (1, 1))
    p2 = induce_prelie(operator([[0, 0], [1, 0]], "g", "g"), alg, rep)
    assert p2.mu[0][0] == (Fraction(0), Fraction(-1))  # e1*e1 = -e2
    assert check_prelie(p1).ok and check_prelie(p2).ok


def test_induce_prelie_rejects_non_operator():
    alg = affine_line()
    rep = adjoint(alg)
    with pytest.raises(NotMaurerCartanError):
        induce_prelie(operator([[1, 0], [0, 1]], "g", "g"), alg, rep)


def test_induced_products_pass_check_and_commutator_is_lie():
    for name, alg in (("affine", affine_line()), ("heisenberg", heisenberg())):
        rep = adjoint(alg)
        for op in search_rbo(alg, (-1, 0, 1))[:25]:
            p = induce_prelie(op, alg, rep)
            assert check_prelie(p).ok
            assert check_lie(commutator_algebra(p)).ok



def test_space_mismatch():
    a = HookedMap.zero(1, 2)
    b = HookedMap.zero(1, 3)
    with pytest.raises(ShapeMismatchError):
        circ(a, b)


def test_a_phi_check_above_the_work_cap_is_refused_before_phi_is_built():
    # two arity-3 maps on a 40-dimensional module: the walk of arity 6 is
    # refused before phi of the two maps, C(40, 3) * 40 = 395,200 action
    # columns and seconds of work, is built
    alg = heisenberg()
    zero = ((0,) * 40,) * 40
    rep = Representation(tuple(f"v{i + 1}" for i in range(40)), (zero,) * alg.dim)
    rng = random.Random(5)
    f, g = (random_altmap(rng, 3, 40, alg.dim) for _ in range(2))
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError, match="above the cap of 200000"):
        check_phi_homomorphism(f, g, alg, rep)
    assert time.perf_counter() - start < 1
