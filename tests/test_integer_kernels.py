"""The whole checks clear denominators and run their per-word kernels on int.

Structures and maps here carry non-unit denominators (1/2, -1/3, 5/12 and
primes above 10^6), in the algebra and in the action separately, so the
common-denominator bookkeeping is exercised.  Each whole check is compared
with its per-word function run directly on the Fraction inputs, and the
independent oracles are compared with each other.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rotabaxter.catalog import graded_instances, lie_pairs, sl2
from rotabaxter.combinatorics import parity_sign, signed_unshuffles, split_table
from rotabaxter.deformation import (
    AltMap,
    _mc_walk,
    _twisted_walk,
    courant_bracket,
    deformation_check,
    mc_residual,
)
from rotabaxter.embed import homotopy_operator_from_linear
from rotabaxter import homotopy
from rotabaxter.errors import SearchSpaceError, ShapeMismatchError
from rotabaxter.graded import (
    GradedRepresentation,
    SGLA,
    SparseFamily,
    check_graded_rep,
    check_sgla,
    graded_space,
)
from rotabaxter.homotopy import (
    HomotopyOperator,
    bracket_on_word,
    canonical_words,
    _mc_witness,
    _psi_witness,
    check_prelie_infinity,
    check_psi_homomorphism,
    graded_bracket,
    homotopy_oop_residual,
    hook_bracket,
    hook_compose,
    hook_compose_lasts,
    hook_compose_on_word,
    induce_prelie_infinity,
    is_homotopy_oop,
    mc_check_homotopy,
    prelie_infinity_residual,
    psi,
    psi_homomorphism_defect,
    residual_on_word,
)
from rotabaxter.linalg import cleared_pair
from rotabaxter.lie import (
    LieAlgebra,
    LinearOperator,
    Representation,
    adjoint,
    check_lie,
    check_representation,
    is_rota_baxter,
    search_rbo,
)
from rotabaxter.prelie import (
    _phi_witness,
    check_phi_homomorphism,
    circ,
    mn_bracket,
    phi,
    phi_homomorphism_defect,
)
from rotabaxter.reports import named_residual

from helpers import (
    courant_on_word,
    embed_pair,
    eval_last_insert,
    expand_low_identities,
    family_from_alt,
    hook_family_from_hooked,
    random_altmap,
    random_homotopy_operator,
    random_hooked,
    random_sym_family,
    vec_scale,
)

BIG = 1_000_003
BIGGER = 1_000_033
SCALES = (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 12), Fraction(BIG),
          Fraction(1, BIG), Fraction(-7, BIGGER), Fraction(1))
POOL = (Fraction(1, 2), Fraction(-1, 3), Fraction(5, 12), Fraction(1, BIG),
        Fraction(2, BIGGER), Fraction(-3), Fraction(1))

scales = st.lists(st.sampled_from(SCALES), min_size=3, max_size=3)
rngs = st.randoms(use_true_random=False)


def deform_witness(t, tp, alg, rep):
    """(word, value) where the twisted walk of ``deform`` first finds a
    nonzero value, or None."""
    found = _twisted_walk(t, tp, alg, rep).first()
    return found and found[1:]


def rescaled_constants(c, a):
    """Structure constants in the basis a_i e_i: c'_ij^k = a_i a_j c_ij^k / a_k."""
    n = len(a)
    return tuple(tuple(tuple(c[i][j][k] * a[i] * a[j] / a[k] for k in range(n))
                       for j in range(n)) for i in range(n))


def rescaled_action(mats, a, d):
    """Action matrices for the algebra basis a_i e_i and the module basis d_r v_r."""
    n = len(d)
    return tuple(tuple(tuple(m[r][s] * a[i] * d[s] / d[r] for s in range(n))
                       for r in range(n)) for i, m in enumerate(mats))


def rescaled_operator(matrix, a):
    """An operator on g in the basis a_i e_i: P'_kj = P_kj a_j / a_k."""
    n = len(a)
    return tuple(tuple(matrix[k][j] * a[j] / a[k] for j in range(n)) for k in range(n))


NATURAL_SL2 = (((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1)))
SL2_RBOS = [op.matrix for op in search_rbo(sl2(), (0, 1))]


def sl2_pair(a, d):
    """sl2 in a rescaled basis with its natural module in another one; the
    algebra and the action have different denominators."""
    base = sl2()
    alg = LieAlgebra(base.basis, rescaled_constants(base.c, a))
    mats = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in NATURAL_SL2)
    rep = Representation(("v1", "v2"), rescaled_action(mats, a, d[:2]))
    return alg, rep


def graded_pair(name, a, d):
    alg, rep = {n: (g, r) for n, g, r in graded_instances()}[name]
    galg = SGLA(alg.space, rescaled_constants(alg.b, a))
    grep = GradedRepresentation(rep.space, rescaled_action(rep.matrices, a, d[:rep.space.dim]))
    return galg, grep


def scaled(nested, k):
    return tuple(scaled(x, k) if isinstance(x, tuple) else k * x for x in nested)


def all_fractions(m):
    return all(type(x) is Fraction for v in m.entries.values() for x in v)


def family_entries(fam):
    return {(w, k): v for w, comp in fam.components.items() for k, v in comp.entries.items()}


@settings(max_examples=60, deadline=None)
@given(scales, scales, rngs)
def test_courant_bracket_matches_the_graded_word_kernel(a, d, rng):
    alg, rep = sl2_pair(a, d)
    assert check_lie(alg).ok and check_representation(alg, rep).ok
    for module in (rep, adjoint(alg)):
        galg, grep = embed_pair(alg, module)
        n = rng.randrange(module.space_dim)
        m = rng.randrange(module.space_dim - n + 1)
        f = random_altmap(rng, n, module.space_dim, alg.dim, pool=POOL)
        g = random_altmap(rng, m, module.space_dim, alg.dim, pool=POOL)
        got = courant_bracket(f, g, alg, module)
        assert all_fractions(got)
        fam_f = family_from_alt(f, grep.space, galg.space)
        fam_g = family_from_alt(g, grep.space, galg.space)
        # courant_bracket runs the graded kernel too, so the permutation-signed
        # sum is the independent oracle
        for word in itertools.combinations(range(module.space_dim), n + m):
            assert got.eval(word) == bracket_on_word(fam_f, fam_g, galg, grep, word)
            assert got.eval(word) == courant_on_word(f, g, alg, module, word)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4), rngs)
def test_circ_and_mn_bracket_match_the_raw_compose(n, m, dim, rng):
    # the ungraded compose runs the graded kernel, so the oracle is the raw
    # unshuffle sum on V concentrated in degree -1, which reads no kernel
    a = random_hooked(rng, n, dim, pool=POOL)
    b = random_hooked(rng, m, dim, pool=POOL)
    got, br = circ(a, b), mn_bracket(a, b)
    assert all_fractions(got) and all_fractions(br)
    space = a.space
    assert set(space.degrees) == {-1}
    fa, fb = hook_family_from_hooked(a, space), hook_family_from_hooked(b, space)
    s = parity_sign(n * m)
    for word in itertools.combinations(range(dim), n + m):
        for last in range(dim):
            ab = raw_hook_compose(fa, fb, word, last)
            ba = raw_hook_compose(fb, fa, word, last)
            assert got.eval(word, last) == ab
            assert br.eval(word, last) == tuple(x - s * y for x, y in zip(ab, ba))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("two-level", "mixed/adjoint", "three-level/adjoint")),
       scales, scales, st.integers(-1, 1), st.integers(-1, 1), rngs)
def test_graded_checks_match_their_word_kernels(name, a, d, df, dg, rng):
    alg, rep = graded_pair(name, a, d)
    assert check_sgla(alg).ok and check_graded_rep(alg, rep).ok
    p_max = 3
    f = random_sym_family(rng, rep.space, alg.space, df, 2, pool=POOL)
    g = random_sym_family(rng, rep.space, alg.space, dg, 2, pool=POOL)
    br = graded_bracket(f, g, alg, rep, p_max)
    want = {}
    for p in range(p_max + 1):
        for word in canonical_words(rep.space, p):
            val = bracket_on_word(f, g, alg, rep, word)
            if any(val):
                want[(p, word)] = val
    assert family_entries(br) == want
    assert all(all_fractions(c) for c in br.components.values())

    t = random_homotopy_operator(rng, rep.space, alg.space, 2, pool=POOL)
    res = homotopy_oop_residual(t, alg, rep, p_max)
    for p in range(p_max + 1):
        assert all_fractions(res[p])
        for word in canonical_words(rep.space, p):
            assert res[p].eval(word) == residual_on_word(t, alg, rep, word)
    assert is_homotopy_oop(t, alg, rep, p_max) == all(r.is_zero() for r in res.values())
    assert mc_check_homotopy(t, alg, rep, p_max) == is_homotopy_oop(t, alg, rep, p_max)
    for r, low in zip(res.values(), expand_low_identities(t, alg, rep)):
        assert r == low

    ha, hb = psi(f, rep), psi(g, rep)
    comp = hook_compose(ha, hb, p_max)
    want = {}
    for p in range(p_max + 1):
        for word in canonical_words(rep.space, p):
            for last in range(rep.space.dim):
                val = hook_compose_on_word(ha, hb, word, last)
                if any(val):
                    want[(p, (word, last))] = val
    assert family_entries(comp) == want
    assert all(all_fractions(c) for c in comp.components.values())

    pinf = induce_prelie_infinity(t, alg, rep, p_max, force=True)
    report = check_prelie_infinity(pinf, 3)
    witness = None
    for n in range(1, 4):
        for word in itertools.product(range(rep.space.dim), repeat=n - 1):
            for last in range(rep.space.dim):
                val = prelie_infinity_residual(pinf, word, last)
                if witness is None and any(val):
                    witness = {"part": "coherence", "n": n,
                               "at": [i + 1 for i in word] + [last + 1],
                               "residual": named_residual(val, rep.space.basis)}
    assert report.ok == (witness is None)
    assert report.witness == witness


@settings(max_examples=60, deadline=None)
@given(scales, st.sampled_from(SCALES), st.integers(0, len(SL2_RBOS) - 1),
       st.integers(0, len(SL2_RBOS) - 1), st.booleans(), rngs)
def test_deformation_and_homotopy_oracles_agree(a, lam, i, j, random_delta, rng):
    alg, _ = sl2_pair(a, a)
    rep = adjoint(alg)
    # a multiple of a Rota-Baxter operator in a rescaled basis is again one
    ops = [tuple(tuple(lam * x for x in row) for row in rescaled_operator(m, a))
           for m in (SL2_RBOS[i], SL2_RBOS[j])]
    t = AltMap.from_operator(LinearOperator(ops[0], "g", "g"))
    if random_delta:
        tp = random_altmap(rng, 1, 3, 3, pool=POOL)
    else:
        tp = AltMap.from_operator(LinearOperator(ops[1], "g", "g")) - t
    total = (t + tp).to_operator()
    expected = is_rota_baxter(alg, LinearOperator(total.matrix, "g", "g"))
    assert deformation_check(t, tp, alg, rep) == expected
    assert mc_residual(t + tp, alg, rep).is_zero() == expected
    assert all_fractions(mc_residual(t + tp, alg, rep))

    galg, grep = embed_pair(alg, rep)
    hop = homotopy_operator_from_linear(LinearOperator(total.matrix, "g", "g"), galg,
                                        grep.space)
    assert mc_check_homotopy(hop, galg, grep, 3) == expected
    assert is_homotopy_oop(hop, galg, grep, 3) == expected


def assert_exit_is_first_word_of_the_full_bracket(t, alg, rep, p_max):
    full = graded_bracket(t, t, alg, rep, p_max)
    found = _mc_witness(t, alg, rep, p_max)
    assert mc_check_homotopy(t, alg, rep, p_max) == full.is_zero() == (found is None)
    if found is None:
        return True
    weight, word, value = found
    first = full.weights()[0]
    assert (weight, word) == (first, sorted(full.component(first).entries)[0])
    assert value == vec_scale(Fraction(1, 2), full.component(weight).eval(word))
    assert value == residual_on_word(t, alg, rep, word)  # the witness replays
    return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("two-level", "mixed/adjoint", "three-level/adjoint")),
       scales, scales, st.integers(0, 2), st.sampled_from((0.2, 0.7)), rngs)
def test_mc_check_homotopy_exits_at_the_first_word_of_the_full_bracket(
        name, a, d, max_weight, density, rng):
    alg, rep = graded_pair(name, a, d)
    t = random_homotopy_operator(rng, rep.space, alg.space, max_weight, pool=POOL,
                                 density=density)
    assert_exit_is_first_word_of_the_full_bracket(t, alg, rep, 3)


@settings(max_examples=60, deadline=None)
@given(scales, st.sampled_from(SCALES), st.integers(0, len(SL2_RBOS) - 1), st.booleans(),
       rngs)
def test_mc_check_homotopy_exit_on_embedded_catalog_operators(a, lam, i, perturb, rng):
    alg, _ = sl2_pair(a, a)
    galg, grep = embed_pair(alg, adjoint(alg))
    matrix = [[lam * x for x in row] for row in rescaled_operator(SL2_RBOS[i], a)]
    if perturb:
        matrix[rng.randrange(3)][rng.randrange(3)] += rng.choice(POOL)
    hop = homotopy_operator_from_linear(LinearOperator(matrix, "g", "g"), galg, grep.space)
    passed = assert_exit_is_first_word_of_the_full_bracket(hop, galg, grep, 3)
    assert passed == is_rota_baxter(alg, LinearOperator(matrix, "g", "g"))


@settings(max_examples=60, deadline=None)
@given(scales, st.sampled_from(SCALES), st.integers(0, len(SL2_RBOS) - 1),
       st.integers(0, len(SL2_RBOS) - 1), st.sampled_from(("rbo", "delta", "random")), rngs)
def test_deformation_check_matches_the_full_maps(a, lam, i, j, kind, rng):
    alg, _ = sl2_pair(a, a)
    rep = adjoint(alg)
    ops = [tuple(tuple(lam * x for x in row) for row in rescaled_operator(m, a))
           for m in (SL2_RBOS[i], SL2_RBOS[j])]
    t = AltMap.from_operator(LinearOperator(ops[0], "g", "g"))
    if kind == "random":  # a base that need not be an O-operator
        t = random_altmap(rng, 1, 3, 3, pool=POOL)
    if kind == "rbo":
        tp = AltMap.from_operator(LinearOperator(ops[1], "g", "g")) - t
    else:
        tp = random_altmap(rng, 1, 3, 3, pool=POOL)
    lin = courant_bracket(t, tp, alg, rep)
    quad = courant_bracket(tp, tp, alg, rep).scale(Fraction(1, 2))
    assert deformation_check(t, tp, alg, rep) == (lin + quad).is_zero()
    half = courant_bracket(t, t, alg, rep).scale(Fraction(1, 2))
    assert mc_residual(t, alg, rep) == half
    assert all_fractions(mc_residual(t, alg, rep))
    assert _mc_walk(t, alg, rep).vanishes() == half.is_zero()


@pytest.mark.parametrize("values, den", [
    ((Fraction(1, 2), Fraction(-1, 3), Fraction(5, 12)), 12),
    ((Fraction(1, BIG), Fraction(BIG), Fraction(-2, BIGGER)), BIG * BIGGER),
    ((Fraction(1), Fraction(-2), Fraction(0)), 1),
])
def test_cleared_maps_are_integer_multiples(values, den):
    f = AltMap(1, 3, 3, {(0,): values, (2,): tuple(reversed(values))})
    assert f.cleared()[0] == den
    fi = f.cleared()[1]
    assert all(type(x) is int for v in fi.entries.values() for x in v)
    assert fi == f.scale(den)
    fam = HomotopyOperator(f.space, f.target, {}, truncation=2)
    assert fam.cleared() == (1, fam)


def test_algebra_and_action_share_one_denominator():
    a = (Fraction(1, 2), Fraction(1), Fraction(1))
    d = (Fraction(1), Fraction(1, 3))
    alg, rep = sl2_pair(a, d + (Fraction(1),))
    assert (alg.cleared()[0], rep.cleared()[0]) == (2, 6)
    assert alg.cleared() is alg.cleared()  # computed once per structure
    den, ia, ir = cleared_pair(alg, rep)
    assert den == 6
    assert all(type(x) is int for plane in ia.c for row in plane for x in row)
    assert ia.c == scaled(alg.c, 6) and ir.matrices == scaled(rep.matrices, 6)


# -- the int image stored on each map and family

def image_by_hand(m):
    """(den, {key: den * value as ints}) of a map, or of a family keyed by
    (weight, key), from its values."""
    entries = family_entries(m) if isinstance(m, SparseFamily) else m.entries
    den = math.lcm(*{x.denominator for v in entries.values() for x in v})
    return den, {k: tuple(int(x * den) for x in v) for k, v in entries.items()}


def assert_own_image(m):
    den, image = m.cleared()
    got = family_entries(image) if isinstance(m, SparseFamily) else image.entries
    assert (den, got) == image_by_hand(m)
    assert all(type(x) is int for v in got.values() for x in v)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SCALES + (Fraction(-1),)), rngs)
def test_each_map_and_family_clears_once_and_derived_ones_clear_their_own(c, rng):
    _, alg, rep = graded_instances()[1]
    f, g = (random_altmap(rng, 2, 3, 3, pool=POOL) for _ in range(2))
    t, u = (random_homotopy_operator(rng, rep.space, alg.space, 2, pool=POOL)
            for _ in range(2))
    fam = random_sym_family(rng, rep.space, alg.space, 1, 2, pool=POOL)
    parents = (f, g, t, u, fam)
    for m in parents:
        first = m.cleared()
        assert m.cleared() is first  # the pair is stored, not recomputed
        assert_own_image(m)
    derived = [f.scale(c), f + g, f - g, -f, f._like(dict(g.entries)), f.scale(1),
               t.scale(c), t + u, t - u, t._like(dict(u.components)), t.scale(1),
               fam.scale(c), fam._like(dict(fam.components)),
               t.component(1).scale(c), t.component(2) + u.component(2)]
    for m in derived:
        # computed for the result, not copied from the parent it came from
        assert all(m.cleared() is not p.cleared() for p in parents)
        assert_own_image(m)


@settings(max_examples=40, deadline=None)
@given(scales, st.sampled_from(SCALES), st.integers(0, len(SL2_RBOS) - 1),
       st.integers(0, len(SL2_RBOS) - 1), rngs)
def test_the_oracles_agree_on_warm_operators_and_what_is_made_from_them(a, lam, i, j, rng):
    alg, _ = sl2_pair(a, a)
    rep = adjoint(alg)
    galg, grep = embed_pair(alg, rep)
    mats = [rescaled_operator(SL2_RBOS[k], a) for k in (i, j)]
    mats.append(random_altmap(rng, 1, 3, 3, pool=POOL).to_operator().matrix)
    t, s, delta = (AltMap.from_operator(LinearOperator(m, "g", "g")) for m in mats)
    ht, hs, hd = (homotopy_operator_from_linear(LinearOperator(m, "g", "g"), galg, grep.space)
                  for m in mats)
    # the warm-up stores the int images of the two operators
    assert mc_check_homotopy(ht, galg, grep, 3) and is_homotopy_oop(hs, galg, grep, 3)
    assert mc_residual(t, alg, rep).is_zero() and deformation_check(t, s - t, alg, rep)
    for _ in range(2):  # the first round clears the results, the second reads them
        for total, hop in ((t.scale(lam), ht.scale(lam)), (t + delta, ht + hd),
                           (s - t + t, hs - ht + ht), (t - delta, ht - hd)):
            expected = is_rota_baxter(alg, total.to_operator())
            assert mc_residual(total, alg, rep).is_zero() == expected
            assert mc_check_homotopy(hop, galg, grep, 3) == expected
            assert is_homotopy_oop(hop, galg, grep, 3) == expected
        for tp in (delta, s - t, t.scale(lam) - t):
            assert deformation_check(t, tp, alg, rep) == mc_residual(t + tp, alg, rep).is_zero()


GRADED = ("two-level", "mixed/adjoint", "three-level/adjoint")


def broken_action(rep, rng, kind):
    """The action with one nonzero entry scaled ("scale", still homogeneous,
    usually no longer an action) or one zero entry set ("fill", usually
    inhomogeneous); "valid" leaves it alone."""
    mats = [[list(row) for row in m] for m in rep.matrices]
    cells = [(i, r, c) for i, m in enumerate(mats) for r, row in enumerate(m)
             for c in range(len(row))]
    if kind == "scale":
        i, r, c = rng.choice([x for x in cells if mats[x[0]][x[1]][x[2]]])
        mats[i][r][c] *= rng.choice((Fraction(2), Fraction(-1), Fraction(1, 3)))
    elif kind == "fill":
        i, r, c = rng.choice([x for x in cells if not mats[x[0]][x[1]][x[2]]])
        mats[i][r][c] = rng.choice(POOL)
    return GradedRepresentation(rep.space, tuple(tuple(map(tuple, m)) for m in mats))


def outcome(check, *args):
    """What a check returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except ShapeMismatchError as exc:
        return type(exc), str(exc)


def family_psi_check(f, g, alg, rep, p_max):
    """The whole-family comparison: psi([[f, g]]) == [psi(f), psi(g)]."""
    lhs = psi(graded_bracket(f, g, alg, rep, p_max), rep)
    rhs = hook_bracket(psi(f, rep), psi(g, rep), p_max)
    return lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRADED), scales, scales, st.integers(-1, 1), st.integers(-1, 1),
       st.sampled_from(("scale", "valid", "scale", "fill", "scale", "other space",
                        "same family")),
       st.integers(1, 3), rngs)
def test_the_word_by_word_psi_check_matches_the_family_comparison(
        name, a, d, df, dg, kind, p_max, rng):
    alg, rep = graded_pair(name, a, d)
    rep = broken_action(rep, rng, kind)
    f = random_sym_family(rng, rep.space, alg.space, df, 2, pool=POOL)
    g = f if kind == "same family" else random_sym_family(rng, rep.space, alg.space, dg, 2,
                                                          pool=POOL)
    if kind == "other space":
        f = random_sym_family(
            rng, graded_space(rep.space.basis, [d + 1 for d in rep.space.degrees]),
            alg.space, df, 2, pool=POOL)
    want = outcome(family_psi_check, f, g, alg, rep, p_max)
    assert outcome(check_psi_homomorphism, f, g, alg, rep, p_max) == want
    if want is not False:
        return
    # the witness is the first key of the whole-family defect, and its value
    weight, word, last, value = _psi_witness(f, g, alg, rep, p_max)
    defect = psi_homomorphism_defect(f, g, alg, rep, p_max)
    first = min((w, key) for w, comp in defect.components.items() for key in comp.entries)
    assert (weight, (word, last)) == first
    assert value == defect.component(weight).eval(word, last)


def test_the_psi_check_runs_the_bracket_once_per_canonical_word(monkeypatch):
    calls = []
    kernel = homotopy._bracket_on_canonical
    monkeypatch.setattr(homotopy, "_bracket_on_canonical",
                        lambda *args: calls.append(args[-1]) or kernel(*args))
    rng = random.Random(7)
    verdicts = []
    for name in GRADED:
        alg, rep = graded_pair(name, (Fraction(1, 2), Fraction(1), Fraction(-1, 3)),
                               (Fraction(5, 12), Fraction(1), Fraction(2)))
        for kind in ("valid", "scale"):
            action = broken_action(rep, rng, kind)
            f = random_sym_family(rng, rep.space, alg.space, 0, 2, pool=POOL)
            g = random_sym_family(rng, rep.space, alg.space, 1, 2, pool=POOL)
            # only a weight of f plus a weight of g has a term on either side
            reach = {a + b for a in f.components for b in g.components}
            words = [w for p in range(4) if p in reach for w in canonical_words(rep.space, p)]
            want = family_psi_check(f, g, alg, action, 3)
            calls.clear()
            verdicts.append(check_psi_homomorphism(f, g, alg, action, 3))
            assert verdicts[-1] == want
            assert calls == words
    assert False in verdicts  # so a FAIL, too, evaluated every word once


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GRADED), scales, scales, st.integers(-1, 1), st.integers(-1, 1), rngs)
def test_the_all_lasts_kernel_matches_the_composed_family(name, a, d, df, dg, rng):
    alg, rep = graded_pair(name, a, d)
    space, p_max = rep.space, 3
    f = random_sym_family(rng, space, alg.space, df, 2, pool=POOL)
    g = random_sym_family(rng, space, alg.space, dg, 2, pool=POOL)
    ha, hb = psi(f, rep), psi(g, rep)
    comp = hook_compose(ha, hb, p_max)
    for p in range(p_max + 1):
        for word in canonical_words(space, p):
            got = hook_compose_lasts(ha, hb, word)
            assert got == [comp.component(p).eval(word, last) for last in range(space.dim)]
    # eval_lasts is eval at every last argument, on words in any order
    for m in list(ha.components.values()) + list(hb.components.values()):
        for args in itertools.product(range(space.dim), repeat=m.weight):
            want = {last: m.eval(args, last) for last in range(space.dim)}
            assert m.eval_lasts(args) == {k: v for k, v in want.items() if any(v)}


# -- the graded kernels against reference loops over the raw unshuffle tables
#
# The kernels sum each distinct rearranged word once; these loops are the sums
# term by term, over every unshuffle, reading every weight through component().

def add_into(out, c, vec):
    for k, x in enumerate(vec):
        out[k] += c * x


def raw_bracket(f, g, alg, rep, word):
    degs = [f.space.degrees[i] for i in word]
    par, p, m, n = tuple(d % 2 for d in degs), len(word), f.degree, g.degree
    out = [0] * alg.dim
    for l in range(p):
        for s, eps in signed_unshuffles((l, 1, p - l - 1), par):
            u = [word[i] for i in s]
            ins = rep.act_basis(g.component(l).eval(u[:l]), u[l])
            add_into(out, -eps, f.component(p - l).eval_insert(ins, u[l + 1:]))
            ins = rep.act_basis(f.component(l).eval(u[:l]), u[l])
            add_into(out, parity_sign((m + 1) * (n + 1)) * eps,
                     g.component(p - l).eval_insert(ins, u[l + 1:]))
    for a in range(p + 1):
        for s, eps in signed_unshuffles((a, p - a), par):
            u = [word[i] for i in s]
            d1 = sum(degs[i] for i in s[:a])
            add_into(out, -parity_sign(n * d1 + m + 1) * eps,
                     alg.bracket(f.component(a).eval(u[:a]), g.component(p - a).eval(u[a:])))
    return tuple(out)


def raw_residual(t, alg, rep, word):
    par, p = tuple(t.space.degrees[i] % 2 for i in word), len(word)
    lhs, rhs = [0] * alg.dim, [0] * alg.dim
    for l in range(p):
        for s, eps in signed_unshuffles((l, 1, p - l - 1), par):
            u = [word[i] for i in s]
            ins = rep.act_basis(t.component(l).eval(u[:l]), u[l])
            add_into(lhs, eps, t.component(p - l).eval_insert(ins, u[l + 1:]))
    for a in range(p + 1):
        for s, eps in signed_unshuffles((a, p - a), par):
            u = [word[i] for i in s]
            add_into(rhs, eps, alg.bracket(t.component(a).eval(u[:a]),
                                           t.component(p - a).eval(u[a:])))
    return tuple(Fraction(r) / 2 - x for r, x in zip(rhs, lhs))


def raw_courant(f, g, alg, rep, word):
    n, m = f.arity, g.arity
    mn = parity_sign(m * n)
    out = [0] * alg.dim
    for inner, outer, coef in ((g, f, -1), (f, g, mn)):
        a, b = inner.arity, outer.arity
        for s, eps in signed_unshuffles((a, 1, b - 1)) if b else ():
            u = [word[i] for i in s]
            ins = rep.act_basis(inner.eval(u[:a]), u[a])
            add_into(out, coef * eps, outer.eval_insert(ins, u[a + 1:]))
    for s, eps in signed_unshuffles((n, m)):
        u = [word[i] for i in s]
        add_into(out, -mn * eps, alg.bracket(f.eval(u[:n]), g.eval(u[n:])))
    return tuple(out)


def raw_hook_compose(a, b, word, last):
    space = a.space
    degs = [space.degrees[i] for i in word]
    par, p = tuple(d % 2 for d in degs), len(word)
    out = [0] * space.dim
    for wb in range(p):
        for s, eps in signed_unshuffles((wb, 1, p - wb - 1), par):
            u = [word[i] for i in s]
            inner = b.component(wb).eval(u[:wb], u[wb])
            add_into(out, eps, a.component(p - wb).eval_insert(inner, u[wb + 1:], last))
    for wa in range(p + 1):
        for s, eps in signed_unshuffles((wa, p - wa), par):
            u = [word[i] for i in s]
            inner = b.component(p - wa).eval(u[wa:], last)
            d1 = sum(degs[i] for i in s[:wa])
            add_into(out, parity_sign(b.degree * d1) * eps,
                     eval_last_insert(a.component(wa), u[:wa], inner))
    return tuple(-x for x in out)  # COMPOSE_NORMALIZATION


def raw_prelie_residual(pinf, word, last):
    degs = [pinf.space.degrees[i] for i in word]
    par, n = tuple(d % 2 for d in degs), len(word) + 1
    out = [0] * pinf.space.dim
    for i in range(1, n):
        j = n + 1 - i
        for s, eps in signed_unshuffles((i - 1, 1, j - 2), par):
            u = [word[t] for t in s]
            inner = pinf.op(i).eval(u[:i - 1], u[i - 1])
            add_into(out, eps, pinf.op(j).eval_insert(inner, u[i:], last))
    for j in range(1, n + 1):
        i = n + 1 - j
        for s, eps in signed_unshuffles((j - 1, i - 1), par):
            u = [word[t] for t in s]
            inner = pinf.op(i).eval(u[j - 1:], last)
            alpha = sum(degs[t] for t in s[:j - 1])
            add_into(out, parity_sign(alpha) * eps, eval_last_insert(pinf.op(j), u[:j - 1], inner))
    return tuple(out)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(GRADED), scales, scales, st.integers(-1, 1), st.integers(-1, 1), rngs)
def test_the_graded_kernels_match_raw_unshuffle_sums_on_any_word(name, a, d, df, dg, rng):
    alg, rep = graded_pair(name, a, d)
    space = rep.space
    f = random_sym_family(rng, space, alg.space, df, 2, pool=POOL)
    g = random_sym_family(rng, space, alg.space, dg, 2, pool=POOL)
    t = random_homotopy_operator(rng, space, alg.space, 2, pool=POOL)
    ha, hb = psi(f, rep), psi(g, rep)
    pinf = induce_prelie_infinity(t, alg, rep, force=True)
    # every word of weight <= 3 and some of weight 4: unsorted, repeating
    # even and odd letters
    words = [w for p in range(4) for w in itertools.product(range(space.dim), repeat=p)]
    words += rng.sample(list(itertools.product(range(space.dim), repeat=4)), 8)
    for word in words:
        assert bracket_on_word(f, g, alg, rep, word) == raw_bracket(f, g, alg, rep, word)
        assert residual_on_word(t, alg, rep, word) == raw_residual(t, alg, rep, word)
        lasts = hook_compose_lasts(ha, hb, word)
        assert len(lasts) == space.dim
        for last in range(space.dim):
            assert lasts[last] == raw_hook_compose(ha, hb, word, last)
            assert prelie_infinity_residual(pinf, word, last) == \
                raw_prelie_residual(pinf, word, last)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRADED), scales, scales, st.integers(1, 4), rngs)
def test_the_prelie_infinity_witness_replays_through_the_raw_residual(name, a, d, n_max, rng):
    # check_prelie_infinity runs the self-compose of the hooked family; its
    # witness is the first canonical (word, last) where the raw coherence sum
    # is nonzero, and a PASS has that sum zero on every canonical word
    alg, rep = graded_pair(name, a, d)
    space = rep.space
    t = random_homotopy_operator(rng, space, alg.space, 2, pool=POOL)
    pinf = induce_prelie_infinity(t, alg, rep, force=True)
    report = check_prelie_infinity(pinf, n_max)
    first = next(({"part": "coherence", "n": n, "at": [i + 1 for i in word] + [last + 1],
                   "residual": named_residual(val, space.basis)}
                  for n in range(1, n_max + 1) for word in canonical_words(space, n - 1)
                  for last in range(space.dim)
                  for val in [raw_prelie_residual(pinf, word, last)] if any(val)), None)
    assert report.ok == (first is None)
    assert report.witness == first


def test_repeated_letters_merge_terms_on_the_bundled_spaces():
    # unshuffle terms and distinct rearranged words over weights 0-4 and
    # every bracket shape, on each bundled graded space
    counts = {}
    for name, alg, rep in graded_instances():
        raw = merged = 0
        for p in range(5):
            for word in canonical_words(rep.space, p):
                par = tuple(rep.space.degrees[i] % 2 for i in word)
                for shape in [(a, p - a) for a in range(p + 1)] + \
                        [(a, 1, p - a - 1) for a in range(p)]:
                    raw += len(signed_unshuffles(shape, par))
                    merged += len(split_table(word, rep.space.parities, shape))
        counts[name] = raw, merged
    assert counts == {"two-level": (159, 67), "mixed/adjoint": (622, 305),
                      "three-level/adjoint": (314, 169)}


@settings(max_examples=40, deadline=None)
@given(scales, st.sampled_from(SCALES), st.integers(0, len(SL2_RBOS) - 1),
       st.integers(0, len(SL2_RBOS) - 1), st.sampled_from(("rbo", "delta", "random")), rngs)
def test_the_deform_witness_replays_through_the_mc_residual_of_the_sum(a, lam, i, j, kind, rng):
    alg, _ = sl2_pair(a, a)
    rep = adjoint(alg)
    ops = [tuple(tuple(lam * x for x in row) for row in rescaled_operator(m, a))
           for m in (SL2_RBOS[i], SL2_RBOS[j])]
    t = AltMap.from_operator(LinearOperator(ops[0], "g", "g"))
    if kind == "rbo":
        tp = AltMap.from_operator(LinearOperator(ops[1], "g", "g")) - t
    else:
        tp = random_altmap(rng, 1, 3, 3, pool=POOL)
    if kind == "random":  # a base that need not be an O-operator
        t = random_altmap(rng, 1, 3, 3, pool=POOL)
    found = deform_witness(t, tp, alg, rep)
    assert deformation_check(t, tp, alg, rep) == (found is None)
    # in general the witness is [[t, tp]] + [[tp, tp]] / 2 at its first word
    twisted = courant_bracket(t, tp, alg, rep) + courant_bracket(tp, tp, alg, rep).scale(
        Fraction(1, 2))
    if found is None:
        assert twisted.is_zero()
    else:
        word, value = found
        assert word == min(twisted.entries) and value == twisted.entries[word]
    if kind != "random":  # t is an O-operator: the witness is the residual of t + tp
        res = mc_residual(t + tp, alg, rep)
        assert (found is None) == res.is_zero()
        if found is not None:
            assert found == (min(res.entries), res.entries[min(res.entries)])


# -- the phi check word by word, self-brackets, and the one-bracket twisted check

LIE = {name: (alg, rep) for name, alg, rep in lie_pairs()}
LIE["sl2/adjoint"] = (sl2(), adjoint(sl2()))
LIE["sl2/natural"] = (sl2(), Representation(("v1", "v2"), tuple(
    tuple(tuple(Fraction(x) for x in row) for row in m) for m in NATURAL_SL2)))


def nonzero_cells(nested, at=()):
    for i, x in enumerate(nested):
        if isinstance(x, tuple):
            yield from nonzero_cells(x, at + (i,))
        elif x:
            yield at + (i,)


def scale_one_entry(nested, rng):
    """The nested constants with one nonzero entry scaled by 2, -1 or 1/3."""
    hit = rng.choice(list(nonzero_cells(nested)))
    k = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 3)))

    def rebuild(x, at):
        if isinstance(x, tuple):
            return tuple(rebuild(y, at + (i,)) for i, y in enumerate(x))
        return k * x if at == hit else x
    return rebuild(nested, ())


def lie_pair(name, a, d, kind, rng):
    """A bundled Lie pair in rescaled bases (non-unit denominators), with one
    entry of the algebra ("algebra") or of the action ("action") scaled, or
    the action's last matrix dropped ("fewer matrices") or its first
    repeated ("more matrices"), or the module replaced by a trivial one of
    dimension 20 ("work cap")."""
    base, module = LIE[name]
    n, m = base.dim, module.space_dim
    alg = LieAlgebra(base.basis, rescaled_constants(base.c, a[:n]))
    rep = Representation(module.basis, rescaled_action(module.matrices, a[:n], d[:m]))
    if kind == "algebra":
        alg = LieAlgebra(alg.basis, scale_one_entry(alg.c, rng))
    elif kind == "action":
        rep = Representation(rep.basis, scale_one_entry(rep.matrices, rng))
    elif kind == "fewer matrices":
        rep = Representation(rep.basis, rep.matrices[:-1])
    elif kind == "more matrices":
        rep = Representation(rep.basis, rep.matrices + rep.matrices[:1])
    elif kind == "work cap":
        zero = ((0,) * 20,) * 20
        rep = Representation(tuple(f"v{i + 1}" for i in range(20)), (zero,) * n)
    return alg, rep


def family_phi_check(f, g, alg, rep):
    """The whole-map comparison: phi([[f, g]]) == [phi(f), phi(g)]."""
    lhs = phi(courant_bracket(f, g, alg, rep), rep)
    return lhs == mn_bracket(phi(f, rep), phi(g, rep))


def outcome_of(check, *args):
    """What a check returns, or the type and message of what it raises."""
    try:
        return check(*args)
    except (ShapeMismatchError, SearchSpaceError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(LIE)), scales, scales, st.integers(0, 3), st.integers(0, 3),
       st.sampled_from(("algebra", "action", "other algebra", "valid", "algebra", "work cap",
                        "action", "other module", "fewer matrices", "more matrices")),
       st.booleans(), rngs)
def test_the_word_by_word_phi_check_matches_the_family_comparison(
        name, a, d, n, m, kind, same, rng):
    alg, rep = lie_pair(name, a, d, kind, rng)
    dim, cod = rep.space_dim, alg.dim
    if kind == "work cap":  # the C(20, 6) words of arity 6 pass the cap
        n = m = 3
    else:  # words exist only up to arity dim
        m = max(min(m, dim - n), 0)
    f = random_altmap(rng, n, dim, cod, pool=POOL)
    g = f if same else random_altmap(rng, m, dim, cod, pool=POOL)
    if kind == "other module":
        g = random_altmap(rng, m, dim + 1, cod, pool=POOL)
    elif kind == "other algebra":
        f = random_altmap(rng, n, dim, cod + 1, pool=POOL)
    want = outcome_of(family_phi_check, f, g, alg, rep)
    if kind == "work cap":
        assert want[0] is SearchSpaceError
    assert outcome_of(check_phi_homomorphism, f, g, alg, rep) == want
    found = outcome_of(_phi_witness, f, g, alg, rep)
    if want is not False:  # a PASS, or what both raise
        assert found == (None if want is True else want)
        return
    # the witness is the first key of the whole-map defect, and its value
    _, (word, last), value = found
    defect = phi_homomorphism_defect(f, g, alg, rep)
    assert (word, last) == min(defect.entries)
    assert value == defect.entries[(word, last)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LIE)), scales, scales,
       st.sampled_from(("valid", "action", "algebra")), rngs)
def test_the_phi_and_psi_checks_agree_on_embedded_maps(name, a, d, kind, rng):
    # psi of the degree -1 embedding is phi, and the bracket and compose
    # agree there, so the two checks find the same witness with the same value
    alg, rep = lie_pair(name, a, d, kind, rng)
    galg, grep = embed_pair(alg, rep)
    dim = rep.space_dim
    verdicts = set()
    for n in range(dim + 1):
        for m in range(dim + 1 - n):
            f = random_altmap(rng, n, dim, alg.dim, pool=POOL)
            g = random_altmap(rng, m, dim, alg.dim, pool=POOL)
            found = _phi_witness(f, g, alg, rep)
            got = _psi_witness(family_from_alt(f, grep.space, galg.space),
                               family_from_alt(g, grep.space, galg.space), galg, grep, n + m)
            if found is None:
                assert got is None
            else:
                arity, (word, last), value = found
                assert got == (arity, word, last, value)
            verdicts.add(found is None)
    if kind == "valid":
        assert verdicts == {True}


class NoAction:
    """An action that must not be read: a self-bracket whose insertion
    coefficient is 0 skips the insertion sum."""

    def __init__(self, rep):
        self.space_dim = rep.space_dim

    def act_basis(self, x, j):
        raise AssertionError("the insertion sum was evaluated")


def copy_map(f):
    """A distinct map equal to f, so ``g is f`` does not hold."""
    return AltMap(f.arity, f.dim_dom, f.dim_cod, f.entries)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LIE)), scales, scales, st.integers(0, 3),
       st.sampled_from(("algebra", "action", "valid", "random table")), rngs)
def test_a_self_bracket_sums_each_insertion_once(name, a, d, n, kind, rng):
    alg, rep = lie_pair(name, a, d, kind, rng)
    if kind == "random table":  # neither antisymmetric nor Jacobi
        alg = LieAlgebra(alg.basis, tuple(tuple(tuple(rng.choice(POOL) for _ in alg.basis)
                                                for _ in alg.basis) for _ in alg.basis))
    f = random_altmap(rng, n, rep.space_dim, alg.dim, pool=POOL)
    twin = copy_map(f)
    # every word, unsorted and with repeated letters, up to four letters
    words = itertools.product(range(rep.space_dim), repeat=2 * n) if n <= 2 else (
        tuple(rng.randrange(rep.space_dim) for _ in range(2 * n)) for _ in range(40))
    for word in words:
        got = courant_on_word(f, f, alg, rep, word)
        assert got == courant_on_word(f, twin, alg, rep, word)
        if n % 2 == 0:  # (-1)^(n n) - 1 = 0: the action is never read
            assert got == courant_on_word(f, f, alg, NoAction(rep), word)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GRADED), scales, scales, st.integers(-1, 1),
       st.sampled_from(("scale", "valid", "fill")), rngs)
def test_a_graded_self_bracket_sums_each_insertion_once(name, a, d, degree, kind, rng):
    alg, rep = graded_pair(name, a, d)
    rep = broken_action(rep, rng, kind)
    f = random_sym_family(rng, rep.space, alg.space, degree, 2, pool=POOL)
    twin = f.scale(1)  # equal to f, but not f
    # every word, unsorted and with repeated letters, up to three letters
    for p in range(4):
        for word in itertools.product(range(rep.space.dim), repeat=p):
            got = bracket_on_word(f, f, alg, rep, word)
            assert got == bracket_on_word(f, twin, alg, rep, word)
            if degree % 2:  # (-1)^((m+1)(m+1)) - 1 = 0: the action is never read
                assert got == bracket_on_word(f, f, alg, NoAction(rep), word)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LIE)), scales, scales,
       st.sampled_from(("algebra", "action", "valid")), rngs)
def test_the_twisted_check_is_one_bracket(name, a, d, kind, rng):
    alg, rep = lie_pair(name, a, d, kind, rng)
    t = random_altmap(rng, 1, rep.space_dim, alg.dim, pool=POOL)  # not Maurer-Cartan
    tp = random_altmap(rng, 1, rep.space_dim, alg.dim, pool=POOL)
    twice = (courant_bracket(t, tp, alg, rep).scale(2) + courant_bracket(tp, tp, alg, rep))
    assert deformation_check(t, tp, alg, rep) == twice.is_zero()
    found = deform_witness(t, tp, alg, rep)
    if found is not None:
        word = min(twice.entries)
        assert found == (word, vec_scale(Fraction(1, 2), twice.entries[word]))


@pytest.mark.parametrize("name", ["two-level", "mixed/adjoint", "three-level/adjoint"])
def test_the_residual_walk_holds_ints_and_divides_each_value_once(name):
    # the walk runs the int kernel on canonical words and den carries its
    # 2, so a value is int until a reader divides it, once
    alg, rep = graded_pair(name, SCALES[:3], SCALES[3:6])
    rng = random.Random(5)
    values = []
    while not values:
        t = random_homotopy_operator(rng, rep.space, alg.space, 2, pool=POOL)
        walk = homotopy._residual_walk(t, alg, rep, 3)
        values = list(walk)
    assert all(type(x) is int for _, _, v in values for x in v)
    for _, word, v in values:
        assert tuple(Fraction(x, walk.den) for x in v) == residual_on_word(t, alg, rep, word)


def test_a_sum_of_int_images_stays_int():
    f = AltMap(1, 3, 2, {(0,): (Fraction(1, 2), Fraction(0)), (1,): (Fraction(1), Fraction(2))})
    g = AltMap(1, 3, 2, {(1,): (Fraction(-1, 3), Fraction(1)), (2,): (Fraction(0), Fraction(5))})
    (_, i), (_, j) = f.cleared(), g.cleared()
    for total in (i + j, i - j, j - i):
        assert set(total.entries) == {(0,), (1,), (2,)}
        assert all(type(x) is int for v in total.entries.values() for x in v)
    for total in (f + g, f - g, g - f):
        assert set(total.entries) == {(0,), (1,), (2,)}
        assert all_fractions(total)
    assert (f + g).entries[(2,)] == (Fraction(0), Fraction(5))
