import itertools
import random
from fractions import Fraction

import pytest

from rotabaxter.catalog import (
    affine_line,
    graded_instances,
    lie_pairs,
    search_algebras,
    search_rbo,
    two_level_rep,
    two_level_sgla,
)
from rotabaxter.combinatorics import koszul_sign, parity_sign
from rotabaxter.deformation import AltMap, courant_bracket, mc_residual, random_altmap
from rotabaxter.embed import (
    alt_from_sym,
    embed_pair,
    family_from_alt,
    homotopy_operator_from_linear,
    hook_family_from_hooked,
    prelie_infinity_from_product,
)
from rotabaxter.errors import (
    BoundError,
    NotMaurerCartanError,
    SearchSpaceError,
    ShapeMismatchError,
    TruncationExceededError,
)
from rotabaxter.graded import concentrated, from_lie, from_representation, graded_space
from rotabaxter.homotopy import (
    GradedHookedMap,
    GradedHookFamily,
    GradedSymFamily,
    GradedSymMap,
    HomotopyOperator,
    PreLieInfinity,
    bracket_on_word,
    canonical_words,
    check_prelie_infinity,
    check_psi_homomorphism,
    expand_low_identities,
    graded_bracket,
    homotopy_oop_residual,
    hook_bracket,
    hook_compose_on_word,
    induce_prelie_infinity,
    is_homotopy_oop,
    is_homotopy_rbo,
    mc_check_homotopy,
    prelie_infinity_residual,
    psi,
    random_homotopy_operator,
    random_sym_family,
    residual_on_word,
    search_homotopy_operators,
    shifted_bracket,
    word_degree,
)
from rotabaxter.lie import adjoint, is_rota_baxter, oop_defect, operator
from rotabaxter.prelie import (
    HookedMap,
    check_prelie,
    induce_prelie,
    mn_bracket,
    phi,
    random_hooked,
)


def test_eval_sym_signs():
    space = graded_space(["a", "b", "c"], [1, 1, 0])
    target = graded_space(["x"], [2])
    f = GradedSymMap(space, target, 2, 0, {(0, 1): (Fraction(1),)})
    assert f.eval((1, 0)) == (Fraction(-1),)      # odd-odd swap
    assert f.eval((0, 0)) == (Fraction(0),)       # odd repeat vanishes
    g = GradedSymMap(space, target, 2, 1, {(0, 2): (Fraction(1),)})
    assert g.eval((2, 0)) == (Fraction(1),)       # odd-even swap keeps the sign


def test_sym_map_validation():
    space = graded_space(["a", "b"], [1, 0])
    target = graded_space(["x"], [2])
    with pytest.raises(ShapeMismatchError):
        GradedSymMap(space, target, 2, 0, {(0, 0): (Fraction(1),)})  # odd repeat
    with pytest.raises(ShapeMismatchError):
        GradedSymMap(space, target, 2, 0, {(1, 0): (Fraction(1),)})  # not sorted
    with pytest.raises(ShapeMismatchError):
        GradedSymMap(space, target, 1, 0, {(0,): (Fraction(1),)})    # degree 1 != 2


MIXED = graded_space(["a", "b", "c"], [-1, 0, 1])
FLAT = concentrated(["e1", "e2", "e3"], -1)
ONE, NIL = Fraction(1), Fraction(0)
# The four spellings of the one map container, as (constructor on entries,
# space, target, degree, free last argument or None).  A weight-2 value on
# the word (0, 1) is homogeneous in the target slot given by good_value.
MAP_SPELLINGS = {
    "AltMap": (lambda w, e: AltMap(w, 3, 3, e), FLAT, FLAT, lambda w: w - 1, None),
    "HookedMap": (lambda w, e: HookedMap(w, 3, e), FLAT, FLAT, lambda w: w, 2),
    "GradedSymMap": (lambda w, e: GradedSymMap(MIXED, MIXED, w, 1, e),
                     MIXED, MIXED, lambda w: 1, None),
    "GradedHookedMap": (lambda w, e: GradedHookedMap(MIXED, w, 1, e),
                        MIXED, MIXED, lambda w: 1, 1),
}


@pytest.mark.parametrize("spelling", sorted(MAP_SPELLINGS))
def test_map_spellings_share_validation_and_koszul_eval(spelling):
    build, space, target, degree, last = MAP_SPELLINGS[spelling]

    def key(word, at=last):
        return word if at is None else (word, at)

    def homogeneous(word, at=last):
        want = word_degree(space, word) + degree(len(word))
        want += 0 if at is None else space.degrees[at]
        return tuple(Fraction(len(word) + k + 1) if target.degrees[k] == want else NIL
                     for k in range(target.dim))

    good = homogeneous((0, 1))
    assert not build(2, {key((0, 1)): good}).is_zero()
    malformed = [
        {key((0, 1, 2)): good},          # wrong key length
        {key((0, 3)): good},             # index out of range
        {key((1, 0)): good},             # not in canonical order
        {key((0, 0)): good},             # repeated odd-degree index
        {key((0, 1)): good + (ONE,)},    # wrong value length
    ]
    if len(set(target.degrees)) > 1:
        malformed.append({key((0, 1)): tuple(ONE - x for x in good)})  # inhomogeneous
    for entries in malformed:
        with pytest.raises(ShapeMismatchError):
            build(2, entries)

    # eval on shuffled arguments is the Koszul sign times the stored value
    lasts = [None] if last is None else range(space.dim)
    entries = {key(word, at): homogeneous(word, at)
               for word in canonical_words(space, 3) for at in lasts}
    f = build(3, entries)
    with pytest.raises(ShapeMismatchError):  # a last argument exactly when there is a free slot
        f.eval((0, 1, 2), *((0,) if last is None else ()))
    for args in itertools.product(range(space.dim), repeat=3):
        order = sorted(range(3), key=args.__getitem__)
        word = tuple(args[t] for t in order)
        eps = koszul_sign(tuple(order), [space.degrees[i] for i in args])
        for at in lasts:
            stored = entries.get(key(word, at), (NIL,) * target.dim)
            extra = () if at is None else (at,)
            assert f.eval(args, *extra) == tuple(eps * x for x in stored)


def _failing_mixed_operator():
    """A random homotopy operator on mixed/adjoint that fails at weight <= 4."""
    name, alg, rep = graded_instances()[1]
    t = random_homotopy_operator(random.Random(5), rep.space, alg.space, 2)
    assert name == "mixed/adjoint" and not is_homotopy_oop(t, alg, rep, 4)
    return t, alg, rep


@pytest.mark.parametrize("call", [
    lambda t, a, r: is_homotopy_oop(t, a, r, -1),
    lambda t, a, r: mc_check_homotopy(t, a, r, -1),
    lambda t, a, r: homotopy_oop_residual(t, a, r, -1),
    lambda t, a, r: is_homotopy_rbo(t, a, -1),
    lambda t, a, r: graded_bracket(t, t, a, r, -1),
    lambda t, a, r: check_psi_homomorphism(t, t, a, r, -1),
    lambda t, a, r: hook_bracket(psi(t, r), psi(t, r), -1),
    lambda t, a, r: induce_prelie_infinity(t, a, r, -1, force=True),
    lambda t, a, r: search_homotopy_operators(a, r, (0,), max_weight=0, p_max=-1),
    lambda t, a, r: check_prelie_infinity(induce_prelie_infinity(t, a, r, force=True), 0),
], ids=["is_homotopy_oop", "mc_check_homotopy", "homotopy_oop_residual", "is_homotopy_rbo",
        "graded_bracket", "check_psi_homomorphism", "hook_bracket", "induce_prelie_infinity",
        "search_homotopy_operators", "check_prelie_infinity"])
def test_bound_below_first_weight_is_rejected(call):
    t, alg, rep = _failing_mixed_operator()
    with pytest.raises(BoundError):
        call(t, alg, rep)


def test_homotopy_operator_truncation():
    space = graded_space(["a"], [0])
    target = graded_space(["x"], [0])
    comp1 = GradedSymMap(space, target, 1, 0, {(0,): (Fraction(1),)})
    comp3 = GradedSymMap(space, target, 3, 0, {(0, 0, 0): (Fraction(1),)})
    t = HomotopyOperator(space, target, {1: comp1, 3: comp3}, truncation=2)
    assert t.component(3).is_zero()
    assert not t.component(1).is_zero()


def _instances():
    return graded_instances()


def test_bracket_zero():
    for name, alg, rep in _instances():
        z = GradedSymFamily(rep.space, alg.space, 0, {})
        f = random_sym_family(random.Random(1), rep.space, alg.space, 0, 2)
        assert graded_bracket(f, z, alg, rep, 3).is_zero()
        assert graded_bracket(z, f, alg, rep, 3).is_zero()


def test_bracket_suspended_gla_skew():
    rng = random.Random(40)
    for name, alg, rep in _instances():
        for _ in range(10):
            dm, dn = rng.choice([-2, -1, 0, 1]), rng.choice([-2, -1, 0, 1])
            f = random_sym_family(rng, rep.space, alg.space, dm, 2)
            g = random_sym_family(rng, rep.space, alg.space, dn, 2)
            lhs = graded_bracket(f, g, alg, rep, 4)
            rhs = graded_bracket(g, f, alg, rep, 4).scale(-parity_sign((dm + 1) * (dn + 1)))
            assert lhs == rhs


def test_bracket_suspended_gla_jacobi():
    rng = random.Random(41)
    for name, alg, rep in _instances():
        for _ in range(8):
            dm, dn, dk = (rng.choice([-1, 0, 1]) for _ in range(3))
            f = random_sym_family(rng, rep.space, alg.space, dm, 2)
            g = random_sym_family(rng, rep.space, alg.space, dn, 2)
            h = random_sym_family(rng, rep.space, alg.space, dk, 2)
            lhs = graded_bracket(f, graded_bracket(g, h, alg, rep, 4), alg, rep, 4)
            r1 = graded_bracket(graded_bracket(f, g, alg, rep, 4), h, alg, rep, 4)
            r2 = graded_bracket(g, graded_bracket(f, h, alg, rep, 4), alg, rep, 4) \
                .scale(parity_sign((dm + 1) * (dn + 1)))
            assert lhs == r1 + r2


def test_shifted_bracket_is_graded_symmetric_with_leibniz():
    # The decalage transport satisfies the symmetric-bracket axioms verbatim.
    rng = random.Random(42)
    for name, alg, rep in _instances():
        for _ in range(8):
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


def test_bracket_reduces_to_ungraded():
    rng = random.Random(43)
    for lname, alg_u, rep_u in lie_pairs():
        galg, grep = embed_pair(alg_u, rep_u)
        for _ in range(8):
            n, m = rng.randrange(3), rng.randrange(3)
            f = random_altmap(rng, n, rep_u.space_dim, alg_u.dim)
            g = random_altmap(rng, m, rep_u.space_dim, alg_u.dim)
            want = courant_bracket(f, g, alg_u, rep_u)
            got = graded_bracket(family_from_alt(f, grep.space, galg.space),
                                 family_from_alt(g, grep.space, galg.space),
                                 galg, grep, p_max=6)
            if want.is_zero():
                assert got.is_zero()
            else:
                assert got.components.keys() == {n + m}
                assert alt_from_sym(got.component(n + m)) == want


def test_bracket_word_expression_is_graded_symmetric():
    # Evaluating the bracket expression on permuted words agrees with the
    # Koszul-signed value on the sorted word, so storing canonical words
    # loses nothing.
    rng = random.Random(44)
    for name, alg, rep in _instances():
        f = random_sym_family(rng, rep.space, alg.space, 0, 2)
        g = random_sym_family(rng, rep.space, alg.space, 1, 2)
        for p in range(1, 4):
            for word in itertools.product(range(rep.space.dim), repeat=p):
                order = sorted(range(p), key=lambda t: word[t])
                sorted_word = tuple(word[t] for t in order)
                if any(a == b and rep.space.degrees[a] % 2
                       for a, b in zip(sorted_word, sorted_word[1:])):
                    continue
                degs = tuple(rep.space.degrees[i] for i in word)
                eps = koszul_sign(tuple(order), degs)
                lhs = bracket_on_word(f, g, alg, rep, word)
                rhs = tuple(eps * x for x in bracket_on_word(f, g, alg, rep, sorted_word))
                assert lhs == rhs


def test_residual_zero_operator():
    for name, alg, rep in _instances():
        z = HomotopyOperator(rep.space, alg.space, {})
        assert is_homotopy_oop(z, alg, rep, 4)
        assert all(v.is_zero() for v in homotopy_oop_residual(z, alg, rep, 4).values())


def test_residual_weight_zero_is_half_omega_bracket():
    rng = random.Random(45)
    for name, alg, rep in _instances():
        for _ in range(5):
            t = random_homotopy_operator(rng, rep.space, alg.space, 2)
            omega = t.omega()
            want = tuple(Fraction(1, 2) * x for x in alg.bracket(omega, omega))
            assert residual_on_word(t, alg, rep, ()) == want


def test_residual_matches_half_self_bracket():
    rng = random.Random(46)
    for name, alg, rep in _instances():
        for _ in range(6):
            t = random_homotopy_operator(rng, rep.space, alg.space, 2)
            br = graded_bracket(t, t, alg, rep, 4)
            res = homotopy_oop_residual(t, alg, rep, 4)
            for p in range(5):
                assert br.component(p) == res[p] + res[p]


def test_mc_biconditional_random():
    rng = random.Random(47)
    for name, alg, rep in _instances():
        for _ in range(15):
            t = random_homotopy_operator(rng, rep.space, alg.space, 2)
            assert mc_check_homotopy(t, alg, rep, 4) == is_homotopy_oop(t, alg, rep, 4)


def test_embedded_catalog_operators_are_homotopy_operators():
    for name, alg_u in search_algebras():
        galg = from_lie(alg_u)
        grep = from_representation(adjoint(alg_u))
        for op in search_rbo(alg_u, (-1, 0, 1))[:12]:
            t = homotopy_operator_from_linear(op, galg, grep.space)
            assert is_homotopy_oop(t, galg, grep, 4)
            assert mc_check_homotopy(t, galg, grep, 4)
            assert is_homotopy_rbo(t, galg, 4)


def test_perturbed_embedded_operator_fails_with_witness():
    alg_u = affine_line()
    galg = from_lie(alg_u)
    grep = from_representation(adjoint(alg_u))
    op = operator([[0, 1], [1, 1]], "g", "g")  # d^2 = -bc fails: 1 != -1
    assert not is_rota_baxter(alg_u, op)
    t = homotopy_operator_from_linear(op, galg, grep.space)
    res = homotopy_oop_residual(t, galg, grep, 3)
    assert not all(v.is_zero() for v in res.values())
    # the nonzero residual sits at weight 2, mirroring the bilinear defect
    assert not res[2].is_zero()


def test_expand_low_identities_matches_general():
    rng = random.Random(48)
    for name, alg, rep in _instances():
        for _ in range(20):
            t = random_homotopy_operator(rng, rep.space, alg.space, 2)
            r0, r1, r2 = expand_low_identities(t, alg, rep)
            gen = homotopy_oop_residual(t, alg, rep, 2)
            assert (r0, r1, r2) == (gen[0], gen[1], gen[2])


def test_expand_low_identities_zero_cases():
    space, target = two_level_rep().space, two_level_sgla().space
    alg, rep = two_level_sgla(), two_level_rep()
    z = HomotopyOperator(space, target, {}, truncation=2)
    assert all(r.is_zero() for r in expand_low_identities(z, alg, rep))
    omega_only = HomotopyOperator(
        space, target,
        {0: GradedSymMap(space, target, 0, 0, {(): (Fraction(0), Fraction(1), Fraction(0))})},
        truncation=2,
    )
    r0, r1, r2 = expand_low_identities(omega_only, alg, rep)
    # [x2, x2] = 0 in this algebra, so all three identities close
    assert r0.is_zero() and r1.is_zero() and r2.is_zero()
    # with Omega = x1 the weight-0 residual is [x1, x1]/2 = y/2; the weight-1
    # and weight-2 identities still close because T_1 = T_2 = 0
    bad_omega = HomotopyOperator(
        space, target,
        {0: GradedSymMap(space, target, 0, 0, {(): (Fraction(1), Fraction(0), Fraction(0))})},
        truncation=2,
    )
    r0, r1, r2 = expand_low_identities(bad_omega, alg, rep)
    assert r0.eval(()) == (Fraction(0), Fraction(0), Fraction(1, 2))
    assert r1.is_zero() and r2.is_zero()


def test_expand_low_identities_needs_truncation_two():
    alg, rep = two_level_sgla(), two_level_rep()
    t = HomotopyOperator(rep.space, alg.space, {}, truncation=1)
    with pytest.raises(TruncationExceededError):
        expand_low_identities(t, alg, rep)


def test_grid_search_two_level():
    alg, rep = two_level_sgla(), two_level_rep()
    found = search_homotopy_operators(alg, rep, (-1, 0, 1), max_weight=2, p_max=4)
    assert found, "search must produce verified operators"
    nonzero_omega = [t for t in found if any(t.omega())]
    assert nonzero_omega, "instances with a nonzero weight-0 part must exist"
    # [Omega, Omega] = 0 forces the x1-coefficient of Omega to vanish
    for t in found:
        assert t.omega()[0] == 0
    with pytest.raises(SearchSpaceError):
        search_homotopy_operators(alg, rep, (-1, 0, 1), max_weight=2, cap=10)


def test_grid_search_operators_induce_prelie_infinity():
    alg, rep = two_level_sgla(), two_level_rep()
    found = search_homotopy_operators(alg, rep, (-1, 0, 1), max_weight=2, p_max=4)
    checked_nonzero_m1 = False
    for t in found:
        p = induce_prelie_infinity(t, alg, rep, 4)
        assert check_prelie_infinity(p, 4).ok
        if any(t.omega()) and not p.op(1).is_zero():
            checked_nonzero_m1 = True
    assert checked_nonzero_m1, "a unary operation m_1 = rho(Omega) must occur"


def test_induce_prelie_infinity_rejects_unverified():
    alg, rep = two_level_sgla(), two_level_rep()
    space, target = rep.space, alg.space
    bad = HomotopyOperator(
        space, target,
        {0: GradedSymMap(space, target, 0, 0, {(): (Fraction(1), Fraction(0), Fraction(0))})},
        truncation=2,
    )
    assert not is_homotopy_oop(bad, alg, rep, 2)
    with pytest.raises(NotMaurerCartanError):
        induce_prelie_infinity(bad, alg, rep, 2)
    induce_prelie_infinity(bad, alg, rep, 2, force=True)


def test_embedded_operator_induces_ungraded_product():
    alg_u = affine_line()
    rep_u = adjoint(alg_u)
    galg, grep = embed_pair(alg_u, rep_u)
    op = operator([[0, 1], [0, 0]], "g", "g")
    t = homotopy_operator_from_linear(op, galg, grep.space)
    p = induce_prelie_infinity(t, galg, grep, 4)
    want = prelie_infinity_from_product(induce_prelie(op, alg_u, rep_u))
    assert p.op(2) == want.op(2)
    assert sorted(p.ops) == [2]  # every other operation vanishes
    assert check_prelie_infinity(p, 4).ok


def test_prelie_infinity_clause_ii_reduces_to_left_symmetry():
    rng = random.Random(49)
    names = ["e1", "e2"]
    for _ in range(25):
        mu = {(i, j): {k: Fraction(rng.randrange(-1, 2)) for k in range(2)}
              for i in range(2) for j in range(2)}
        from rotabaxter.prelie import prelie_product

        p_u = prelie_product(names, mu)
        p_g = prelie_infinity_from_product(p_u)
        assert check_prelie(p_u).ok == check_prelie_infinity(p_g, 3).ok


def test_prelie_infinity_coherence_equals_hook_square():
    # The coherence residual of the operations built from a degree-1 hooked
    # family equals minus the self-compose of the family, so squaring to
    # zero under the bracket is the same as the identities holding.
    rng = random.Random(50)
    alg, rep = two_level_sgla(), two_level_rep()
    space = rep.space
    for _ in range(10):
        comps = {}
        for w in range(3):
            entries = {}
            for word in canonical_words(space, w):
                for last in range(space.dim):
                    from rotabaxter.homotopy import word_degree

                    want = word_degree(space, word) + space.degrees[last] + 1
                    vec = [Fraction(0)] * space.dim
                    hit = False
                    for k in range(space.dim):
                        if space.degrees[k] == want and rng.random() < 0.7:
                            vec[k] = Fraction(rng.choice([1, -1, 2]))
                            hit = True
                    if hit and any(vec):
                        entries[(word, last)] = tuple(vec)
            if entries:
                comps[w] = GradedHookedMap(space, w, 1, entries)
        fam = GradedHookFamily(space, 1, comps)
        if fam.is_zero():
            continue
        pli = PreLieInfinity(space, 3, {w + 1: c for w, c in fam.components.items()})
        for n in range(1, 4):
            for word in itertools.product(range(space.dim), repeat=n - 1):
                for last in range(space.dim):
                    res = prelie_infinity_residual(pli, word, last)
                    comp = hook_compose_on_word(fam, fam, word, last)
                    assert tuple(res) == tuple(-x for x in comp)


def test_psi_zero_and_degree():
    alg, rep = two_level_sgla(), two_level_rep()
    z = GradedSymFamily(rep.space, alg.space, 0, {})
    assert psi(z, rep).is_zero()
    f = random_sym_family(random.Random(51), rep.space, alg.space, 0, 2)
    assert psi(f, rep).degree == 1


def test_psi_homomorphism_random():
    rng = random.Random(52)
    for name, alg, rep in _instances():
        for _ in range(10):
            dm, dn = rng.choice([-1, 0, 1]), rng.choice([-1, 0, 1])
            f = random_sym_family(rng, rep.space, alg.space, dm, 2)
            g = random_sym_family(rng, rep.space, alg.space, dn, 2)
            assert check_psi_homomorphism(f, g, alg, rep, 3)


def test_psi_sends_mc_to_mc():
    alg, rep = two_level_sgla(), two_level_rep()
    found = search_homotopy_operators(alg, rep, (-1, 0, 1), max_weight=1, p_max=4)
    for t in found[:8]:
        hooks = psi(t, rep)
        assert hook_bracket(hooks, hooks, 4).is_zero()


def test_hook_bracket_reduces_to_ungraded_mn():
    rng = random.Random(53)
    space = graded_space(["v1", "v2"], [-1, -1])
    for _ in range(10):
        a = random_hooked(rng, rng.randrange(3), 2)
        b = random_hooked(rng, rng.randrange(3), 2)
        if a.arity + b.arity > 4:
            continue
        got = hook_bracket(hook_family_from_hooked(a, space),
                           hook_family_from_hooked(b, space), 5)
        want = mn_bracket(a, b)
        if want.is_zero():
            assert got.is_zero()
        else:
            assert got.components.keys() == {a.arity + b.arity}
            assert dict(got.component(a.arity + b.arity).entries) == dict(want.entries)


def test_phi_agrees_with_psi_on_embeddings():
    rng = random.Random(54)
    alg_u = affine_line()
    rep_u = adjoint(alg_u)
    galg, grep = embed_pair(alg_u, rep_u)
    for _ in range(6):
        f = random_altmap(rng, rng.randrange(3), 2, 2)
        hook_u = phi(f, rep_u)
        hook_g = psi(family_from_alt(f, grep.space, galg.space), grep)
        if hook_u.is_zero():
            assert hook_g.is_zero()
        else:
            assert dict(hook_g.component(f.arity).entries) == dict(hook_u.entries)


def test_reduction_coherence_verdicts():
    # Embedded data must agree verdict-for-verdict with the ungraded checks.
    rng = random.Random(55)
    for name, alg_u in search_algebras():
        rep_u = adjoint(alg_u)
        galg, grep = embed_pair(alg_u, rep_u)
        for _ in range(10):
            mat = [[Fraction(rng.randrange(-1, 2)) for _ in range(alg_u.dim)]
                   for _ in range(alg_u.dim)]
            op = operator(mat, "g", "g")
            t_alt = AltMap.from_operator(op)
            t_hop = homotopy_operator_from_linear(op, galg, grep.space)
            ungraded = oop_defect(alg_u, rep_u, op).is_zero()
            assert is_rota_baxter(alg_u, op) == ungraded
            assert mc_residual(t_alt, alg_u, rep_u).is_zero() == ungraded
            assert is_homotopy_oop(t_hop, galg, grep, 4) == ungraded
            assert mc_check_homotopy(t_hop, galg, grep, 4) == ungraded
            assert is_homotopy_rbo(t_hop, galg, 4) == ungraded
