"""Acceptance suite: every criterion runs at its stated bound, exactly (zero
tolerance, rational arithmetic), and prints one pass/fail line with its
wall-clock time.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time
from fractions import Fraction

from rotabaxter.catalog import (
    graded_instances,
    lie_pairs,
    rbo_catalog,
    search_algebras,
    two_level_rep,
    two_level_sgla,
)
from rotabaxter.combinatorics import parity_sign
from rotabaxter.deformation import (
    AltMap,
    courant_bracket,
    deformation_check,
    mc_residual,
)
from rotabaxter.embed import homotopy_operator_from_linear
from rotabaxter.graded import adjoint_graded, from_lie, from_representation
from rotabaxter.homotopy import (
    check_prelie_infinity,
    homotopy_oop_residual,
    induce_prelie_infinity,
    is_homotopy_oop,
    mc_check_homotopy,
    search_homotopy_operators,
)
from rotabaxter.lie import LinearOperator, adjoint, check_lie, check_representation, \
    is_rota_baxter, oop_defect, search_rbo
from rotabaxter.prelie import (
    check_phi_homomorphism,
    check_prelie,
    hook_of_product,
    induce_prelie,
    mn_bracket,
    prelie_product,
)
from rotabaxter.lie import LieAlgebra
from rotabaxter.linalg import matrix

from helpers import (
    embed_pair,
    expand_low_identities,
    omega,
    prelie_infinity_from_product,
    random_altmap,
    random_homotopy_operator,
    random_sym_family,
    shifted_bracket,
)


def _report(number, label, started, budget):
    elapsed = time.monotonic() - started
    print(f"[acceptance] {number}. {label}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def elementary_altmaps(dim_dom, dim_cod, max_arity=2):
    """A spanning set: single-entry, single-coordinate maps of each arity."""
    out = []
    for arity in range(max_arity + 1):
        for word in itertools.combinations(range(dim_dom), arity):
            for k in range(dim_cod):
                vec = tuple(Fraction(1) if t == k else Fraction(0)
                            for t in range(dim_cod))
                out.append(AltMap(arity, dim_dom, dim_cod, {word: vec}))
    return out


def test_criterion_1_gla_axioms():
    """Graded skew-symmetry and graded Jacobi of the deformation bracket."""
    started = time.monotonic()
    pairs = lie_pairs()
    assert len(pairs) == 3 and all(alg.dim <= 3 for _, alg, _ in pairs)
    for name, alg, rep in pairs:
        basis_maps = elementary_altmaps(rep.space_dim, alg.dim)
        # bilinearity makes the elementary maps exhaustive for "all f, g, h"
        for f in basis_maps:
            for g in basis_maps:
                lhs = courant_bracket(f, g, alg, rep)
                rhs = courant_bracket(g, f, alg, rep) \
                    .scale(-parity_sign(f.arity * g.arity))
                assert lhs == rhs, (name, "skew", f.arity, g.arity)
        for f in basis_maps:
            for g in basis_maps:
                for h in basis_maps:
                    if f.arity + g.arity + h.arity > rep.space_dim:
                        continue  # every term lands in arity > dim: zero maps
                    lhs = courant_bracket(f, courant_bracket(g, h, alg, rep), alg, rep)
                    r1 = courant_bracket(courant_bracket(f, g, alg, rep), h, alg, rep)
                    r2 = courant_bracket(g, courant_bracket(f, h, alg, rep), alg, rep) \
                        .scale(parity_sign(f.arity * g.arity))
                    assert lhs == r1 + r2, (name, "jacobi", f.arity, g.arity, h.arity)
    _report(1, "deformation bracket is a graded Lie bracket", started, 10)


def test_criterion_2_mc_characterization():
    """mc_residual(T) = 0 exactly when the operator defect vanishes."""
    started = time.monotonic()
    rng = random.Random(2024)
    total = 0
    for name, alg in search_algebras():
        rep = adjoint(alg)
        for op in search_rbo(alg, (-1, 0, 1)):
            t = AltMap.from_operator(op)
            assert mc_residual(t, alg, rep).is_zero()
            assert oop_defect(alg, rep, op).is_zero()
            total += 1
    assert total >= 600  # the searches really ran
    for _ in range(50):
        name, alg, rep = lie_pairs()[rng.randrange(3)]
        t = random_altmap(rng, 1, rep.space_dim, alg.dim)
        assert mc_residual(t, alg, rep).is_zero() == \
            oop_defect(alg, rep, t.to_operator()).is_zero()
    _report(2, "Maurer-Cartan elements are exactly the O-operators", started, 30)


def test_criterion_3_deformation_theorem():
    """deformation_check(T, T') iff T + T' satisfies the identity itself."""
    started = time.monotonic()
    rng = random.Random(3030)
    checked = 0
    for name, alg, ops in rbo_catalog():
        rep = adjoint(alg)
        for op in ops:
            t = AltMap.from_operator(op)
            for _ in range(100):
                tp = random_altmap(rng, 1, rep.space_dim, alg.dim)
                lhs = deformation_check(t, tp, alg, rep)
                rhs = mc_residual(t + tp, alg, rep).is_zero()
                assert lhs == rhs
                checked += 1
    assert checked >= 3000
    _report(3, "deformations are twisted Maurer-Cartan elements", started, 30)


def test_criterion_4_prelie_bridge():
    """Induced products, the bracket homomorphism, and square-zero products."""
    started = time.monotonic()
    rng = random.Random(4040)
    for name, alg, ops in rbo_catalog():
        rep = adjoint(alg)
        for op in ops:
            assert check_prelie(induce_prelie(op, alg, rep)).ok
    draws = 0
    pairs = lie_pairs()
    while draws < 100:
        name, alg, rep = pairs[draws % 3]
        f = random_altmap(rng, rng.randrange(3), rep.space_dim, alg.dim)
        g = random_altmap(rng, rng.randrange(3), rep.space_dim, alg.dim)
        assert check_phi_homomorphism(f, g, alg, rep)
        draws += 1
    passing = 0
    for i in range(50):
        dim = 2 + i % 2
        names = [f"e{t + 1}" for t in range(dim)]
        mu = {(a, b): {k: Fraction(rng.randrange(-1, 2)) for k in range(dim)}
              for a in range(dim) for b in range(dim)}
        p = prelie_product(names, mu)
        h = hook_of_product(p)
        assert check_prelie(p).ok == mn_bracket(h, h).is_zero()
        passing += check_prelie(p).ok
    assert passing < 50  # most random products fail, as they should
    _report(4, "pre-Lie bridge (induced products and homomorphism)", started, 60)


def test_criterion_5_graded_layer():
    """Valid embeddings pass; perturbations fail; the shifted bracket obeys
    the symmetric-bracket axioms on random homogeneous families."""
    from rotabaxter.graded import check_sgla

    started = time.monotonic()
    rng = random.Random(5050)
    algebras = search_algebras()
    for name, alg in algebras:
        assert check_sgla(from_lie(alg)).ok
    for _ in range(20):
        name, alg = algebras[rng.randrange(len(algebras))]
        c = [[[x for x in row] for row in plane] for plane in alg.c]
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        c[i][j][k] += rng.choice((1, -1, Fraction(1, 2)))
        broken = LieAlgebra(alg.basis, tuple(tuple(tuple(r) for r in p) for p in c))
        from rotabaxter.graded import check_sgla

        assert not check_sgla(from_lie(broken)).ok
    for name, alg, rep in graded_instances():
        assert all(-1 <= d <= 1 for d in rep.space.degrees)
        for _ in range(6):
            dm, dn, dk = (rng.choice([-2, -1, 0, 1]) for _ in range(3))
            f = random_sym_family(rng, rep.space, alg.space, dm, 2)
            g = random_sym_family(rng, rep.space, alg.space, dn, 2)
            h = random_sym_family(rng, rep.space, alg.space, dk, 2)
            assert shifted_bracket(f, g, alg, rep, 4) == \
                shifted_bracket(g, f, alg, rep, 4).scale(parity_sign(dm * dn))
            lhs = shifted_bracket(f, shifted_bracket(g, h, alg, rep, 4), alg, rep, 4)
            r1 = shifted_bracket(shifted_bracket(f, g, alg, rep, 4), h, alg, rep, 4) \
                .scale(parity_sign(dm + 1))
            r2 = shifted_bracket(g, shifted_bracket(f, h, alg, rep, 4), alg, rep, 4) \
                .scale(parity_sign((dm + 1) * (dn + 1)))
            assert lhs == r1 + r2
    _report(5, "graded layer (embeddings and bracket axioms)", started, 60)


def test_criterion_6_homotopy_mc():
    """mc_check_homotopy agrees with the residual check up to weight 4."""
    started = time.monotonic()
    rng = random.Random(6060)
    for name, alg, ops in rbo_catalog():
        galg = from_lie(alg)
        grep = from_representation(adjoint(alg))
        for op in ops:
            t = homotopy_operator_from_linear(op, galg, grep.space)
            assert mc_check_homotopy(t, galg, grep, 4)
            assert is_homotopy_oop(t, galg, grep, 4)
    alg2, rep2 = two_level_sgla(), two_level_rep()
    found = search_homotopy_operators(alg2, rep2, (-1, 0, 1), max_weight=2, p_max=4)
    assert found and any(any(omega(t)) for t in found)
    for t in found:
        assert mc_check_homotopy(t, alg2, rep2, 4)
    failures = 0
    while failures < 50:
        name, alg, rep = graded_instances()[failures % len(graded_instances())]
        t = random_homotopy_operator(rng, rep.space, alg.space, 2)
        mc = mc_check_homotopy(t, alg, rep, 4)
        res = is_homotopy_oop(t, alg, rep, 4)
        assert mc == res
        if not res:
            failures += 1
    _report(6, "homotopy Maurer-Cartan characterization (weight 4)", started, 120)


def test_criterion_7_low_order_expansion():
    """The hand-expanded identities match the general formula at weights
    0, 1, 2 term for term."""
    started = time.monotonic()
    rng = random.Random(7070)
    instances = graded_instances()
    for i in range(100):
        name, alg, rep = instances[i % len(instances)]
        t = random_homotopy_operator(rng, rep.space, alg.space, 2)
        r0, r1, r2 = expand_low_identities(t, alg, rep)
        gen = homotopy_oop_residual(t, alg, rep, 2)
        assert (r0, r1, r2) == (gen[0], gen[1], gen[2])
    _report(7, "low-order expansion of the homotopy identities", started, 30)


def test_criterion_8_induced_homotopy_prelie():
    """Every verified homotopy operator induces a structure passing the
    coherence check; the embedded case reproduces the ungraded product."""
    started = time.monotonic()
    alg2, rep2 = two_level_sgla(), two_level_rep()
    found = search_homotopy_operators(alg2, rep2, (-1, 0, 1), max_weight=2, p_max=4)
    for t in found:
        p = induce_prelie_infinity(t, alg2, rep2, 4)
        assert check_prelie_infinity(p, 4).ok
    for name, alg, ops in rbo_catalog():
        galg = from_lie(alg)
        grep = from_representation(adjoint(alg))
        for op in ops:
            t = homotopy_operator_from_linear(op, galg, grep.space)
            p = induce_prelie_infinity(t, galg, grep, 4)
            assert check_prelie_infinity(p, 4).ok
            want = prelie_infinity_from_product(induce_prelie(op, alg, adjoint(alg)))
            assert p.op(2) == want.op(2)
            assert all(p.op(k).is_zero() for k in range(1, p.truncation + 1) if k != 2)
    _report(8, "induced homotopy pre-Lie structures (order 4)", started, 60)


def test_criterion_9_reduction_coherence():
    """Every graded/homotopy check agrees verdict-for-verdict with its
    ungraded counterpart on embedded data."""
    started = time.monotonic()
    rng = random.Random(9090)
    from rotabaxter.graded import check_graded_rep, check_sgla

    for name, alg in search_algebras():
        assert check_lie(alg).ok == check_sgla(from_lie(alg)).ok
        rep = adjoint(alg)
        assert check_representation(alg, rep).ok == \
            check_graded_rep(from_lie(alg), from_representation(rep)).ok
    for _ in range(10):
        name, alg = search_algebras()[rng.randrange(3)]
        c = [[[x for x in row] for row in plane] for plane in alg.c]
        i, j, k = (rng.randrange(alg.dim) for _ in range(3))
        c[i][j][k] += 1
        broken = LieAlgebra(alg.basis, tuple(tuple(tuple(r) for r in p) for p in c))
        assert check_lie(broken).ok == check_sgla(from_lie(broken)).ok
    for name, alg in search_algebras():
        rep = adjoint(alg)
        galg, grep = embed_pair(alg, rep)
        for _ in range(15):
            mat = [[Fraction(rng.randrange(-1, 2)) for _ in range(alg.dim)]
                   for _ in range(alg.dim)]
            op = LinearOperator(matrix(mat), "g", "g")
            verdict = oop_defect(alg, rep, op).is_zero()
            t = homotopy_operator_from_linear(op, galg, grep.space)
            assert is_rota_baxter(alg, op) == verdict
            assert mc_residual(AltMap.from_operator(op), alg, rep).is_zero() == verdict
            assert is_homotopy_oop(t, galg, grep, 4) == verdict
            assert mc_check_homotopy(t, galg, grep, 4) == verdict
            assert is_homotopy_oop(t, galg, adjoint_graded(galg), 4) == verdict
    for _ in range(20):
        dim = rng.choice((2, 3))
        names = [f"e{t + 1}" for t in range(dim)]
        mu = {(a, b): {k: Fraction(rng.randrange(-1, 2)) for k in range(dim)}
              for a in range(dim) for b in range(dim)}
        p = prelie_product(names, mu)
        assert check_prelie(p).ok == \
            check_prelie_infinity(prelie_infinity_from_product(p), 3).ok
    _report(9, "reduction coherence (graded verdicts match ungraded)", started, 120)
