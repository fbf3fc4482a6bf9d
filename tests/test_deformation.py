import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotabaxter.catalog import affine_line, heisenberg, lie_pairs
from rotabaxter.combinatorics import sign as perm_sign
from rotabaxter.combinatorics import parity_sign
from rotabaxter.deformation import (
    AltMap,
    courant_bracket,
    d_T,
    deformation_check,
    mc_residual,
)
from rotabaxter.errors import NotMaurerCartanError, SearchSpaceError, ShapeMismatchError
from rotabaxter.lie import Representation, adjoint, oop_defect, operator, search_rbo

from helpers import random_altmap


def catalog_pairs():
    return lie_pairs()


def hand_bracket_11(f, g, alg, rep):
    """Oracle for arity (1,1): the bracket expanded by hand.

    [[f,g]](u,v) = [fu,gv] - [fv,gu] - f(rho(gu)v - rho(gv)u)
                 - g(rho(fu)v - rho(fv)u).
    """
    from rotabaxter.linalg import vec_sub

    entries = {}
    dim = f.dim_dom
    for u in range(dim):
        for v in range(u + 1, dim):
            fu, fv = f.eval((u,)), f.eval((v,))
            gu, gv = g.eval((u,)), g.eval((v,))
            val = vec_sub(alg.bracket(fu, gv), alg.bracket(fv, gu))
            val = vec_sub(val, f.eval_insert(vec_sub(rep.act_basis(gu, v),
                                                     rep.act_basis(gv, u)), ()))
            val = vec_sub(val, g.eval_insert(vec_sub(rep.act_basis(fu, v),
                                                     rep.act_basis(fv, u)), ()))
            entries[(u, v)] = val
    return AltMap(2, dim, f.dim_cod, entries)


def test_eval_alt_signs():
    f = AltMap(2, 3, 2, {(0, 1): (Fraction(1), Fraction(0))})
    assert f.eval((1, 0)) == (Fraction(-1), Fraction(0))
    assert f.eval((0, 0)) == (Fraction(0), Fraction(0))
    g = AltMap(3, 3, 1, {(0, 1, 2): (Fraction(1),)})
    assert g.eval((0, 2, 1)) == (Fraction(-1),)


def test_altmap_arity_mismatch():
    f = AltMap(2, 3, 2, {})
    with pytest.raises(ShapeMismatchError):
        f.eval((0,))
    with pytest.raises(ShapeMismatchError):
        AltMap(2, 3, 2, {(1, 0): (Fraction(1), Fraction(0))})


@given(st.permutations(list(range(3))), st.integers(0, 999))
def test_eval_alt_is_alternating(perm, seed):
    f = random_altmap(random.Random(seed), 3, 4, 2)
    base = (0, 1, 3)
    args = tuple(base[p] for p in perm)
    assert f.eval(args) == tuple(perm_sign(tuple(perm)) * x for x in f.eval(base))


def test_bracket_bilinearity_zero():
    alg = affine_line()
    rep = adjoint(alg)
    z = AltMap.zero(1, 2, 2)
    g = random_altmap(random.Random(0), 1, 2, 2)
    assert courant_bracket(z, g, alg, rep).is_zero()
    assert courant_bracket(g, z, alg, rep).is_zero()


def test_bracket_arity_one_matches_hand_expansion():
    rng = random.Random(3)
    for name, alg, rep in catalog_pairs():
        for _ in range(10):
            f = random_altmap(rng, 1, rep.space_dim, alg.dim)
            g = random_altmap(rng, 1, rep.space_dim, alg.dim)
            assert courant_bracket(f, g, alg, rep) == hand_bracket_11(f, g, alg, rep)


def test_self_bracket_is_twice_defect():
    rng = random.Random(4)
    for name, alg, rep in catalog_pairs():
        for _ in range(10):
            t = random_altmap(rng, 1, rep.space_dim, alg.dim)
            br = courant_bracket(t, t, alg, rep)
            d = oop_defect(alg, rep, t.to_operator())
            assert br == d + d
            assert mc_residual(t, alg, rep) == d


def test_graded_skew_symmetry():
    rng = random.Random(5)
    for name, alg, rep in catalog_pairs():
        for n in range(3):
            for m in range(3):
                f = random_altmap(rng, n, rep.space_dim, alg.dim)
                g = random_altmap(rng, m, rep.space_dim, alg.dim)
                lhs = courant_bracket(f, g, alg, rep)
                rhs = courant_bracket(g, f, alg, rep).scale(-parity_sign(n * m))
                assert lhs == rhs


def test_graded_jacobi_arity_grading():
    rng = random.Random(6)
    for name, alg, rep in catalog_pairs():
        for _ in range(8):
            arities = [rng.randrange(3) for _ in range(3)]
            if sum(arities) > 4:
                continue
            f, g, h = (random_altmap(rng, a, rep.space_dim, alg.dim) for a in arities)
            lhs = courant_bracket(f, courant_bracket(g, h, alg, rep), alg, rep)
            r1 = courant_bracket(courant_bracket(f, g, alg, rep), h, alg, rep)
            r2 = courant_bracket(g, courant_bracket(f, h, alg, rep), alg, rep) \
                .scale(parity_sign(arities[0] * arities[1]))
            assert lhs == r1 + r2


def test_mc_residual_requires_arity_one():
    with pytest.raises(ShapeMismatchError):
        mc_residual(AltMap.zero(2, 2, 2), affine_line(), adjoint(affine_line()))


def test_operators_and_deformations_are_one_ary_maps():
    alg = affine_line()
    f = AltMap(2, 2, 2, {(0, 1): (Fraction(1), Fraction(0))})
    with pytest.raises(ShapeMismatchError) as exc:
        f.to_operator()
    assert str(exc.value) == "only 1-ary maps correspond to operators"
    with pytest.raises(ShapeMismatchError) as exc:
        deformation_check(f, f, alg, adjoint(alg))
    assert str(exc.value) == "deformations are 1-ary maps"


def test_mc_residual_catalog_rbos_vanish():
    alg = affine_line()
    rep = adjoint(alg)
    for op in search_rbo(alg, (-1, 0, 1)):
        assert mc_residual(AltMap.from_operator(op), alg, rep).is_zero()


def test_mc_residual_identity_not_operator():
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap.from_operator(operator([[1, 0], [0, 1]], "g", "g"))
    res = mc_residual(t, alg, rep)
    assert res.eval((0, 1)) == (Fraction(0), Fraction(-1))


def test_d_T_squares_to_zero():
    rng = random.Random(7)
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap.from_operator(operator([[0, 1], [0, 0]], "g", "g"))
    assert d_T(t, t, alg, rep).is_zero()
    for arity in (0, 1, 2):
        f = random_altmap(rng, arity, 2, 2)
        assert d_T(t, d_T(t, f, alg, rep), alg, rep).is_zero()


def test_d_T_zero_base():
    alg = affine_line()
    rep = adjoint(alg)
    z = AltMap.zero(1, 2, 2)
    f = random_altmap(random.Random(8), 2, 2, 2)
    assert d_T(z, f, alg, rep).is_zero()


def test_d_T_rejects_non_operator_base():
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap.from_operator(operator([[1, 0], [0, 1]], "g", "g"))
    f = random_altmap(random.Random(9), 1, 2, 2)
    with pytest.raises(NotMaurerCartanError):
        d_T(t, f, alg, rep)
    d_T(t, f, alg, rep, force=True)


def test_d_T_is_a_degree_one_derivation():
    # d_T [[f, g]] = [[d_T f, g]] + (-1)^(arity f) [[f, d_T g]]; the exponent
    # is the same arity grading that the bracket's skew and Jacobi laws use.
    rng = random.Random(10)
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap.from_operator(operator([[0, 1], [0, 0]], "g", "g"))
    for _ in range(12):
        f = random_altmap(rng, rng.randrange(3), 2, 2)
        g = random_altmap(rng, rng.randrange(2), 2, 2)
        lhs = d_T(t, courant_bracket(f, g, alg, rep), alg, rep)
        rhs = courant_bracket(d_T(t, f, alg, rep), g, alg, rep) + \
            courant_bracket(f, d_T(t, g, alg, rep), alg, rep).scale(parity_sign(f.arity))
        assert lhs == rhs


def test_deformation_check_zero_and_doubling():
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap.from_operator(operator([[0, 1], [0, 0]], "g", "g"))
    zero = AltMap.zero(1, 2, 2)
    assert deformation_check(t, zero, alg, rep)
    assert deformation_check(t, t, alg, rep)  # doubling: 2T is an O-operator


def test_deformation_check_matches_direct_mc():
    rng = random.Random(11)
    for name, alg, rep in catalog_pairs():
        base_ops = [op for op in search_rbo(alg, (-1, 0, 1))
                    if rep.space_dim == alg.dim] if rep.space_dim == alg.dim else []
        candidates = [AltMap.from_operator(op) for op in base_ops[:5]]
        if rep.space_dim != alg.dim:
            candidates = [AltMap.zero(1, rep.space_dim, alg.dim)]
        for t in candidates:
            if not mc_residual(t, alg, rep).is_zero():
                continue
            for _ in range(20):
                tp = random_altmap(rng, 1, rep.space_dim, alg.dim)
                assert deformation_check(t, tp, alg, rep) == \
                    mc_residual(t + tp, alg, rep).is_zero()


def test_a_bracket_above_the_work_cap_is_refused_at_once():
    # two arity-3 maps on a 20-dimensional module: the C(20, 6) = 38,760
    # words of arity 6 and those below count 333,287 steps, above the cap
    alg = heisenberg()
    zero = ((0,) * 20,) * 20
    rep = Representation(tuple(f"v{i + 1}" for i in range(20)), (zero,) * alg.dim)
    rng = random.Random(5)
    f, g = (random_altmap(rng, 3, 20, alg.dim) for _ in range(2))
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError, match="above the cap of 200000"):
        courant_bracket(f, g, alg, rep)
    assert time.perf_counter() - start < 1


def test_a_bracket_above_the_module_dimension_is_zero():
    # arities 4 + 3 on a 3-dimensional module leave no word to walk: the
    # bracket is the zero map, and no cap refuses it
    alg = heisenberg()
    rep = adjoint(alg)
    g = random_altmap(random.Random(7), 3, 3, 3)
    assert not g.is_zero()
    assert courant_bracket(AltMap(4, 3, 3), g, alg, rep) == AltMap.zero(7, 3, 3)


def test_space_mismatch():
    alg = affine_line()
    rep = adjoint(alg)
    f = AltMap.zero(1, 3, 2)
    with pytest.raises(ShapeMismatchError):
        courant_bracket(f, f, alg, rep)


@pytest.mark.parametrize("extra", [-1, 1])
def test_an_action_needs_one_matrix_per_algebra_basis_element(extra):
    alg = affine_line()
    rep = adjoint(alg)
    # one matrix too few (read past its end) or one too many (never read)
    mats = rep.matrices[:extra] if extra < 0 else rep.matrices + rep.matrices[:1]
    rep = Representation(rep.basis, mats)
    t = random_altmap(random.Random(8), 1, 2, 2)
    tp = random_altmap(random.Random(9), 1, 2, 2)
    for check in (lambda: courant_bracket(t, tp, alg, rep), lambda: mc_residual(t, alg, rep),
                  lambda: deformation_check(t, tp, alg, rep),
                  lambda: d_T(t, tp, alg, rep, force=True)):
        with pytest.raises(ShapeMismatchError, match="one action matrix per algebra"):
            check()
