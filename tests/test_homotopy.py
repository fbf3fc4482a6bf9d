import itertools
import random
import time
from fractions import Fraction

import pytest

from rotabaxter import graded, homotopy, prelie
from rotabaxter.catalog import (
    affine_line,
    graded_instances,
    lie_pairs,
    search_algebras,
    two_level_rep,
    two_level_sgla,
)
from rotabaxter.combinatorics import koszul_sign, parity_sign, sign, split_table
from rotabaxter.deformation import AltMap, courant_bracket, mc_residual
from rotabaxter.embed import homotopy_operator_from_linear
from rotabaxter.errors import (
    BoundError,
    NotMaurerCartanError,
    SearchSpaceError,
    ShapeMismatchError,
)
from rotabaxter.graded import (
    GradedRepresentation,
    adjoint_graded,
    check_graded_rep,
    check_sgla,
    concentrated,
    from_lie,
    from_representation,
    graded_space,
    sgla,
)
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
    graded_bracket,
    homotopy_oop_residual,
    hook_bracket,
    hook_compose_lasts,
    hook_compose_on_word,
    induce_prelie_infinity,
    is_homotopy_oop,
    mc_check_homotopy,
    prelie_infinity_residual,
    psi,
    residual_on_word,
    search_homotopy_operators,
    word_degree,
)
from rotabaxter.lie import (
    Representation,
    adjoint,
    is_rota_baxter,
    oop_defect,
    operator,
    search_rbo,
)
from rotabaxter.prelie import (
    HookedMap,
    check_prelie,
    induce_prelie,
    mn_bracket,
    phi,
)

from helpers import (
    TruncationExceededError,
    courant_on_word,
    embed_pair,
    expand_low_identities,
    family_from_alt,
    hook_family_from_hooked,
    omega,
    prelie_infinity_from_product,
    random_altmap,
    random_homotopy_operator,
    random_hooked,
    random_sym_family,
    shifted_bracket,
)
from test_integer_kernels import (
    POOL,
    raw_bracket,
    raw_courant,
    raw_hook_compose,
    raw_prelie_residual,
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
    lambda t, a, r: is_homotopy_oop(t, a, adjoint_graded(a), -1),
    lambda t, a, r: graded_bracket(t, t, a, r, -1),
    lambda t, a, r: check_psi_homomorphism(t, t, a, r, -1),
    lambda t, a, r: hook_bracket(psi(t, r), psi(t, r), -1),
    lambda t, a, r: induce_prelie_infinity(t, a, r, -1, force=True),
    lambda t, a, r: search_homotopy_operators(a, r, (0,), max_weight=0, p_max=-1),
    lambda t, a, r: search_homotopy_operators(a, r, (0, 1), max_weight=-1, p_max=2),
    lambda t, a, r: check_prelie_infinity(induce_prelie_infinity(t, a, r, force=True), 0),
], ids=["is_homotopy_oop", "mc_check_homotopy", "homotopy_oop_residual", "is_homotopy_rbo",
        "graded_bracket", "check_psi_homomorphism", "hook_bracket", "induce_prelie_infinity",
        "search_homotopy_operators", "search_homotopy_operators_max_weight",
        "check_prelie_infinity"])
def test_bound_below_first_weight_is_rejected(call):
    t, alg, rep = _failing_mixed_operator()
    with pytest.raises(BoundError):
        call(t, alg, rep)


def test_a_mismatched_operator_or_action_is_refused_like_the_bracket():
    # The residual checks and the search refuse what graded_bracket, and so
    # mc_check_homotopy, refuses, instead of a PASS, a FAIL, an IndexError or
    # a homogeneity error on shapes their kernels cannot index.
    alg, rep = two_level_sgla(), two_level_rep()
    checks = (is_homotopy_oop, homotopy_oop_residual, mc_check_homotopy)
    t = next(t for t in search_homotopy_operators(alg, rep, (-1, 0, 1))
             if len(t.components) == 3)
    short = GradedRepresentation(rep.space, rep.matrices[:-1])
    for call in checks:
        with pytest.raises(ShapeMismatchError, match="one action matrix per algebra basis"):
            call(t, alg, short, 4)
    with pytest.raises(ShapeMismatchError, match="one action matrix per algebra basis"):
        search_homotopy_operators(alg, short, (0, 1), max_weight=1, p_max=2)
    swapped = graded_space(["a", "b"], [1, 0])
    t = HomotopyOperator(swapped, alg.space, {
        1: GradedSymMap(swapped, alg.space, 1, 0, {(1,): (1, 0, 0)})})
    for call in checks:
        with pytest.raises(ShapeMismatchError, match="module of the action"):
            call(t, alg, rep, 4)
    other = graded_space(["u", "v", "w"], [0, 0, 1])
    t = HomotopyOperator(rep.space, other, {
        1: GradedSymMap(rep.space, other, 1, 0, {(0,): (1, 0, 0)})})
    for call in checks:
        with pytest.raises(ShapeMismatchError, match="values in the algebra"):
            call(t, alg, rep, 4)


def test_prelie_infinity_work_is_counted_before_enumerating():
    # an empty space has no argument tuples at any order; a 1-dimensional
    # one has one per order, whose cost still grows with the order, so a
    # huge n_max passes the first and is refused on the second, both at once
    empty = PreLieInfinity(graded_space([], []), 2)
    assert check_prelie_infinity(empty, 10 ** 9).ok
    line = PreLieInfinity(graded_space(["a"], [0]), 2)
    assert check_prelie_infinity(line, 20).ok
    with pytest.raises(SearchSpaceError):
        check_prelie_infinity(line, 10 ** 9)


@pytest.mark.parametrize("call", [
    lambda t, a, r, p: is_homotopy_oop(t, a, r, p),
    lambda t, a, r, p: mc_check_homotopy(t, a, r, p),
    lambda t, a, r, p: homotopy_oop_residual(t, a, r, p),
    lambda t, a, r, p: is_homotopy_oop(t, a, adjoint_graded(a), p),
    lambda t, a, r, p: graded_bracket(t, t, a, r, p),
    lambda t, a, r, p: check_psi_homomorphism(t, t, a, r, p),
    lambda t, a, r, p: hook_bracket(psi(t, r), psi(t, r), p),
    lambda t, a, r, p: induce_prelie_infinity(t, a, r, p),
    lambda t, a, r, p: search_homotopy_operators(a, r, (0,), max_weight=0, p_max=p),
    # the slots are listed from the words up to max_weight
    lambda t, a, r, p: search_homotopy_operators(a, r, (0,), max_weight=p, p_max=0),
], ids=["is_homotopy_oop", "mc_check_homotopy", "homotopy_oop_residual", "is_homotopy_rbo",
        "graded_bracket", "check_psi_homomorphism", "hook_bracket", "induce_prelie_infinity",
        "search_homotopy_operators", "search_homotopy_operators_slots"])
def test_canonical_word_walks_are_counted_before_enumerating(call):
    t, alg, rep = _failing_mixed_operator()
    for p_max in (graded.CANONICAL_WORD_CAP, 10 ** 9):
        with pytest.raises(SearchSpaceError, match="above the cap of 200000"):
            call(t, alg, rep, p_max)
    # the largest p_max under the cap is refused by no check's count
    p_max = 66
    assert graded._walk_steps(rep.space, p_max) <= graded.CANONICAL_WORD_CAP
    assert graded._walk_steps(rep.space, p_max + 1) > graded.CANONICAL_WORD_CAP


def test_the_walk_work_is_weights_plus_the_letters_of_every_word():
    for _, alg, rep in graded_instances():
        for p_max in range(7):
            letters = sum(p * len(list(canonical_words(rep.space, p))) for p in range(p_max + 1))
            assert graded._walk_steps(rep.space, p_max) == p_max + 1 + letters


def test_a_space_of_odd_letters_walks_a_large_p_max_at_once():
    # the embedded affine algebra has no word above weight 2, so a p_max far
    # beyond it costs one step per weight
    alg = from_lie(affine_line())
    rep = adjoint_graded(alg)
    t = homotopy_operator_from_linear(operator([[0, 1], [0, 0]], "g", "g"), alg, rep.space)
    assert is_homotopy_oop(t, alg, rep, 20_000)
    assert all(r.is_zero() for r in homotopy_oop_residual(t, alg, rep, 5_000).values())


def test_an_unshuffle_table_above_the_work_cap_is_refused_at_once():
    # a lone T_9 on one even letter: the walk to weight 18 counts 190 steps,
    # but the weight-18 residual reads T_9 twice, over the 437,580
    # (9, 1, 8)-unshuffles, and that table is refused before it is built
    space = graded_space(["a"], [0])
    alg = sgla(graded_space(["x"], [0]), {})
    rep = GradedRepresentation(space, (((0,),),))
    t9 = GradedSymMap(space, alg.space, 9, 0, {(0,) * 9: (Fraction(1),)})
    t = HomotopyOperator(space, alg.space, {9: t9})
    assert is_homotopy_oop(t, alg, rep, 17)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError, match="437580 unshuffles .* the cap of 200000"):
        is_homotopy_oop(t, alg, rep, 18)
    assert time.perf_counter() - start < 1


def test_homotopy_operator_truncation():
    space = graded_space(["a"], [0])
    target = graded_space(["x"], [0])
    comp1 = GradedSymMap(space, target, 1, 0, {(0,): (Fraction(1),)})
    comp3 = GradedSymMap(space, target, 3, 0, {(0, 0, 0): (Fraction(1),)})
    t = HomotopyOperator(space, target, {1: comp1, 3: comp3}, truncation=2)
    assert t.component(3).is_zero()
    assert not t.component(1).is_zero()


def test_absent_weights_share_one_zero_member():
    t, alg, rep = _failing_mixed_operator()
    empty = t.component(7)
    assert empty.is_zero() and (empty.weight, empty.degree) == (7, 0)
    assert type(empty) is GradedSymMap and (empty.space, empty.target) == (rep.space, alg.space)
    assert t.component(7) is empty
    assert t.scale(2).component(7) is empty
    hooked = psi(t, rep).component(7)
    assert type(hooked) is GradedHookedMap and hooked.degree == 1
    assert hooked is not empty and psi(t, rep).component(7) is hooked


def _koszul_sorted(space, word):
    """(sign, sorted word) with the sign of the odd-odd inversions, or None
    for a word repeating an odd-degree letter."""
    odd = [a for a in word if space.degrees[a] % 2]
    if len(set(odd)) < len(odd):
        return None
    inversions = sum(1 for i, a in enumerate(odd) for b in odd[i + 1:] if a > b)
    return parity_sign(inversions), tuple(sorted(word))


def _random_hooked_family(rng, space, max_weight, density=0.6):
    """A random degree-1 hooked family; its operations are not coherent."""
    pool = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3))
    ops = {}
    for w in range(max_weight + 1):
        entries = {}
        for word in canonical_words(space, w):
            for last in range(space.dim):
                want = word_degree(space, word) + space.degrees[last] + 1
                entries[(word, last)] = tuple(
                    rng.choice(pool) if d == want and rng.random() < density else Fraction(0)
                    for d in space.degrees)
        ops[w + 1] = GradedHookedMap(space, w, 1, entries)
    return PreLieInfinity(space, max_weight + 1, ops)


def test_prelie_infinity_residual_is_koszul_symmetric():
    # so check_prelie_infinity need only evaluate canonical words; the
    # compose of two psi families of different degrees, as the psi check
    # runs it, is Koszul symmetric too, and both agree with their raw sums
    # on every word, sorted or not
    checked = nonzero = composed = 0
    for _, alg, rep in graded_instances():
        space = rep.space
        for seed in range(6):
            rng = random.Random(seed)
            p = _random_hooked_family(rng, space, 3)
            a = psi(random_sym_family(rng, space, alg.space, 0, 2), rep)
            b = psi(random_sym_family(rng, space, alg.space, 1, 2), rep)
            for n in range(1, 5):
                for word in itertools.product(range(space.dim), repeat=n - 1):
                    canon = _koszul_sorted(space, word)
                    ab = hook_compose_lasts(a, b, word)
                    if canon is None:
                        assert not any(map(any, ab))
                    else:
                        sgn, sorted_word = canon
                        assert ab == [tuple(sgn * x for x in val)
                                      for val in hook_compose_lasts(a, b, sorted_word)]
                    composed += any(map(any, ab))
                    for last in range(space.dim):
                        assert ab[last] == raw_hook_compose(a, b, word, last)
                        got = prelie_infinity_residual(p, word, last)
                        assert got == raw_prelie_residual(p, word, last)
                        if canon is None:
                            assert not any(got)
                        else:
                            want = prelie_infinity_residual(p, sorted_word, last)
                            assert got == tuple(sgn * x for x in want)
                        checked += 1
                        nonzero += any(got)
    assert checked == 1620 and nonzero > 100 and composed > 20


def _zero_matrices(d, n):
    return (((Fraction(0),) * d,) * d,) * n


def test_each_kernel_sorts_its_word_once_and_reads_its_blocks_from_the_entries(monkeypatch):
    # With a zero action no letter is inserted, so on a canonical word each
    # per-word kernel reads every value straight from the entries: at most
    # one Koszul sort of the word (none in the ungraded bracket, which
    # counts its own permutation sign), and no eval or eval_lasts.
    sorts, evals = [], []
    kernel = graded.koszul_sorted
    for module in (graded, homotopy, prelie):
        monkeypatch.setattr(module, "koszul_sorted",
                            lambda *args: sorts.append(args) or kernel(*args), raising=False)
    for cls, name in ((graded.SparseMap, "eval"), (graded.SparseMap, "eval_lasts"),
                      (GradedSymMap, "eval"), (AltMap, "eval")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *args, _m=method: evals.append(args) or _m(*args))

    def once(run):
        sorts.clear()
        evals.clear()
        got = run()
        assert len(sorts) <= 1 and not evals
        return got

    rng = random.Random(5)
    nonzero = {"bracket": 0, "compose": 0, "courant": 0}
    for _, alg, rep in graded_instances():
        space = rep.space
        zero = GradedRepresentation(space, _zero_matrices(space.dim, alg.dim))
        f = random_sym_family(rng, space, alg.space, 0, 2)
        g = random_sym_family(rng, space, alg.space, 1, 2)
        hooks = _random_hooked_family(rng, space, 3)
        a = GradedHookFamily(space, 1, {0: hooks.component(0)})
        for p in range(4):
            b = GradedHookFamily(space, 1, {p: hooks.component(p)})
            for word in canonical_words(space, p):
                got = once(lambda: bracket_on_word(f, g, alg, zero, word))
                assert got == raw_bracket(f, g, alg, zero, word)
                nonzero["bracket"] += any(got)
                got = once(lambda: hook_compose_lasts(a, b, word))
                assert got == [raw_hook_compose(a, b, word, last) for last in range(space.dim)]
                nonzero["compose"] += any(map(any, got))
    for _, alg, rep in lie_pairs():
        zero = Representation(rep.basis, _zero_matrices(rep.space_dim, alg.dim))
        for n, m in ((1, 1), (1, 2)):
            f = random_altmap(rng, n, rep.space_dim, alg.dim)
            g = random_altmap(rng, m, rep.space_dim, alg.dim)
            for word in canonical_words(f.space, n + m):
                got = once(lambda: courant_on_word(f, g, alg, zero, word))
                assert got == raw_courant(f, g, alg, zero, word)
                nonzero["courant"] += any(got)
    assert all(nonzero.values()), nonzero


def test_canonical_words_are_listed_once_per_space_and_weight():
    # every walk on a space, the two walks of a psi check among them, reads
    # the one tuple, and it is the letter-by-letter enumeration
    for _, alg, rep in graded_instances():
        for space in (rep.space, alg.space):
            for w in range(5):
                words = canonical_words(space, w)
                assert type(words) is tuple and canonical_words(space, w) is words
                assert words == tuple(graded._walk_words(space, w))


def test_the_bisection_insert_is_eval_insert_on_every_canonical_rest():
    # each letter placed into each canonical rest of weight 0-3, on the
    # bundled graded spaces and an ungraded one, against the full sort
    rng = random.Random(9)
    firsts = (0, 0, 1, -1, 2, Fraction(1, 2))
    pairs = [(rep.space, alg.space, lambda w, s=rep.space, t=alg.space: [
        random_sym_family(rng, s, t, d, w).component(w) for d in (0, 1)])
        for _, alg, rep in graded_instances()]
    pairs.append((graded.ungraded_space(4), graded.ungraded_space(3),
                  lambda w: [random_altmap(rng, w, 4, 3)]))
    nonzero = 0
    for space, target, maps_of in pairs:
        deg = space.degrees
        for w in range(4):
            maps = maps_of(w + 1)
            for rest in canonical_words(space, w):
                for j in range(space.dim):
                    assert graded.koszul_inserted(deg, j, rest) == \
                        graded.koszul_sorted(deg, (j,) + rest)
                for m in maps:
                    first = tuple(rng.choice(firsts) for _ in range(space.dim))
                    out = [0] * target.dim
                    m._insert_into(out, -3, first, rest)
                    want = m.eval_insert(first, rest)
                    assert tuple(out) == tuple(-3 * x for x in want)
                    nonzero += any(want)
    assert nonzero > 50


def test_the_split_table_cache_is_bounded_and_reread_by_a_repeated_check():
    # the bundled graded checks at p_max 4 fill a small part of the cache,
    # and running them again reads every table from it
    rng = random.Random(3)
    inputs = [(alg, rep, random_homotopy_operator(rng, rep.space, alg.space, 2),
               random_sym_family(rng, rep.space, alg.space, 0, 2),
               random_sym_family(rng, rep.space, alg.space, -1, 2))
              for _, alg, rep in graded_instances()]

    def checks():
        for alg, rep, t, f, g in inputs:
            mc_check_homotopy(t, alg, rep, 4)
            homotopy_oop_residual(t, alg, rep, 4)
            graded_bracket(f, g, alg, rep, 4)
            check_prelie_infinity(induce_prelie_infinity(t, alg, rep, 4, force=True), 5)
            check_psi_homomorphism(f, g, alg, rep, 4)

    split_table.cache_clear()
    checks()
    first = split_table.cache_info()
    assert first.maxsize is not None
    assert 0 < first.currsize <= first.maxsize // 8
    checks()
    again = split_table.cache_info()
    assert again.misses == first.misses and again.hits > first.hits
    assert again.currsize == first.currsize


def _count_calls(monkeypatch, name):
    calls = []
    kernel = getattr(homotopy, name)
    monkeypatch.setattr(homotopy, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


def test_check_prelie_infinity_visits_canonical_words_only(monkeypatch):
    _, alg, rep = graded_instances()[2]
    t = HomotopyOperator(rep.space, alg.space, {}, truncation=2)  # zero, so coherent
    pinf = induce_prelie_infinity(t, alg, rep, 4)
    calls = _count_calls(monkeypatch, "hook_compose_lasts")
    assert check_prelie_infinity(pinf, 4).ok
    words = sum(1 for w in range(4) for _ in canonical_words(rep.space, w))
    # one all-lasts call per canonical word covers 36 of the 120 argument tuples
    assert len(calls) == words == 12


def test_mc_check_homotopy_stops_at_the_first_nonzero_word(monkeypatch):
    t, alg, rep = _failing_mixed_operator()
    weight, word, _ = homotopy._mc_witness(t, alg, rep, 4)
    calls = _count_calls(monkeypatch, "_bracket_on_canonical")
    assert not mc_check_homotopy(t, alg, rep, 4)
    before = sum(1 for w in range(weight) for _ in canonical_words(rep.space, w))
    at = list(canonical_words(rep.space, weight)).index(word)
    assert len(calls) == before + at + 1
    calls.clear()
    assert is_homotopy_oop(t, alg, rep, 4) is False and not calls


def test_mc_check_homotopy_rejects_an_inhomogeneous_structure():
    # [x1, x1] = x2 has degree 0, not 0 + 0 + 1: with Omega = x1 the
    # weight-0 value of the bracket is inhomogeneous
    space = graded_space(["x1", "x2"], [0, 0])
    alg = sgla(space, {(0, 0): {1: 1}})
    rep = GradedRepresentation(space, (((0, 0), (0, 0)),) * 2)
    omega = GradedSymMap(space, space, 0, 0, {(): (Fraction(1), Fraction(0))})
    t = HomotopyOperator(space, space, {0: omega}, truncation=0)
    for check in (mc_check_homotopy, lambda *args: graded_bracket(args[0], *args)):
        with pytest.raises(ShapeMismatchError):
            check(t, alg, rep, 2)


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
            # the graded kernel runs on both sides, so the permutation-signed
            # sum is the independent oracle
            for word in itertools.combinations(range(rep_u.space_dim), n + m):
                assert want.eval(word) == courant_on_word(f, g, alg_u, rep_u, word)
            got = graded_bracket(family_from_alt(f, grep.space, galg.space),
                                 family_from_alt(g, grep.space, galg.space),
                                 galg, grep, p_max=6)
            if want.is_zero():
                assert got.is_zero()
            else:
                assert got.components.keys() == {n + m}
                assert got.component(n + m).entries == want.entries


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
    # the ungraded bracket is alternating: a permuted word gives the
    # permutation-signed value, a repeated letter zero, and both the raw sum
    nonzero = 0
    for name, alg, rep in lie_pairs():
        dim = rep.space_dim
        for n, m in ((0, 2), (1, 1), (1, 2), (2, 1)):
            f = random_altmap(rng, n, dim, alg.dim)
            for g in (f, random_altmap(rng, m, dim, alg.dim)) if n == m else (
                    random_altmap(rng, m, dim, alg.dim),):
                for word in itertools.product(range(dim), repeat=n + m):
                    got = courant_on_word(f, g, alg, rep, word)
                    assert got == raw_courant(f, g, alg, rep, word)
                    if len(set(word)) < len(word):
                        assert not any(got)
                        continue
                    order = tuple(sorted(range(n + m), key=word.__getitem__))
                    want = courant_on_word(f, g, alg, rep, tuple(sorted(word)))
                    assert got == tuple(sign(order) * x for x in want)
                    nonzero += any(got)
    assert nonzero > 20


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
            t0 = omega(t)
            want = tuple(Fraction(1, 2) * x for x in alg.bracket(t0, t0))
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
            assert is_homotopy_oop(t, galg, adjoint_graded(galg), 4)


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
    nonzero_omega = [t for t in found if any(omega(t))]
    assert nonzero_omega, "instances with a nonzero weight-0 part must exist"
    # [Omega, Omega] = 0 forces the x1-coefficient of Omega to vanish
    for t in found:
        assert omega(t)[0] == 0
    with pytest.raises(SearchSpaceError):
        search_homotopy_operators(alg, rep, (-1, 0, 1), max_weight=2, cap=10)


def test_search_homotopy_operators_searches_each_grid_value_once():
    # a repeated value, however written, adds no candidate and no operator
    alg, rep = two_level_sgla(), two_level_rep()
    want = search_homotopy_operators(alg, rep, (0, 1), max_weight=1, p_max=2)
    assert len(want) == 5
    for grid in ((0, 1, 1), ("0", "1/1", "2/2")):
        assert search_homotopy_operators(alg, rep, grid, max_weight=1, p_max=2) == want
    # the first occurrence fixes the order of the values, and so of the result
    assert (search_homotopy_operators(alg, rep, (1, 0, 1, 0), 1, 2)
            == search_homotopy_operators(alg, rep, (1, 0), 1, 2))
    # the cap counts the 2^5 distinct candidates, not 3^5
    assert search_homotopy_operators(alg, rep, (0, 1, 1), 1, 2, cap=32) == want
    with pytest.raises(SearchSpaceError, match="32 candidates"):
        search_homotopy_operators(alg, rep, (0, 1, 1), 1, 2, cap=31)
    zero = search_homotopy_operators(alg, rep, (0, 0), max_weight=1, p_max=2)
    assert [t.is_zero() for t in zero] == [True]


def brute_force_search(alg, rep, grid, max_weight, p_max):
    """Oracle: every slot assignment in product order, kept when it passes
    the full early-exit check."""
    space, target = rep.space, alg.space
    slots = [(w, word, k) for w in range(max_weight + 1)
             for word in canonical_words(space, w)
             for k in range(target.dim) if target.degrees[k] == word_degree(space, word)]
    found = []
    for assignment in itertools.product([Fraction(x) for x in grid], repeat=len(slots)):
        entries = {}
        for (w, word, k), val in zip(slots, assignment):
            if val:
                entries.setdefault(w, {}).setdefault(word, [0] * target.dim)[k] = val
        comps = {w: GradedSymMap(space, target, w, 0, words) for w, words in entries.items()}
        cand = HomotopyOperator(space, target, comps, truncation=max_weight)
        if is_homotopy_oop(cand, alg, rep, p_max):
            found.append(cand)
    return found


def gapped_instance():
    """V = (v in degree 1, u in degree 2), g = (x in degree 0, y in degree 3),
    zero bracket, rho(x) v = u: weight 0 has one slot, weight 1 none,
    weight 2 one (the word (v, u) into y), weight 3 none."""
    space_v = graded_space(["v", "u"], [1, 2])
    space_g = graded_space(["x", "y"], [0, 3])
    alg = sgla(space_g, {})
    zero = ((0, 0), (0, 0))
    rep = GradedRepresentation(space_v, (((0, 0), (1, 0)), zero))
    return alg, rep


@pytest.mark.parametrize("grid", [(0, 1), (Fraction(1, 2), 0, -1),
                                  (Fraction(-2, 3), 0, Fraction(1, 2))])
def test_pruned_search_matches_brute_force(grid):
    cases = [(alg, rep) for _, alg, rep in graded_instances()]
    for alg, rep in cases:
        for max_weight in range(3):
            slots = sum(1 for w in range(max_weight + 1) for word in canonical_words(rep.space, w)
                        for d in alg.space.degrees if d == word_degree(rep.space, word))
            if len(grid) ** slots > 256:
                continue
            for p_max in range(5):
                got = search_homotopy_operators(alg, rep, grid, max_weight, p_max)
                want = brute_force_search(alg, rep, grid, max_weight, p_max)
                assert got == want, (max_weight, p_max)
                assert all(t.truncation == max_weight for t in got)
    # a weight without slots between two with slots, and no slot at all
    alg, rep = gapped_instance()
    assert check_sgla(alg).ok and check_graded_rep(alg, rep).ok
    for max_weight in range(4):
        for p_max in range(5):
            got = search_homotopy_operators(alg, rep, grid, max_weight, p_max)
            assert got == brute_force_search(alg, rep, grid, max_weight, p_max)
    # no slot at all: the only candidate is the zero operator
    lone = sgla(graded_space(["z"], [5]), {})
    lone_rep = GradedRepresentation(rep.space, (((0, 0), (0, 0)),))
    want = [HomotopyOperator(rep.space, lone.space, {}, truncation=0)]
    assert search_homotopy_operators(lone, lone_rep, grid, 0, 2) == want
    assert brute_force_search(lone, lone_rep, grid, 0, 2) == want


@pytest.mark.parametrize("name, max_weight", [
    ("two-level", 2), ("three-level/adjoint", 2), ("mixed/adjoint", 1)])
def test_pruned_search_matches_brute_force_past_256_candidates(name, max_weight):
    # 6,561, 6,561 and 2,187 candidates; the benchmark searches two-level
    # at max_weight 2 over a shuffled (-1, 0, 1)
    alg, rep = next((alg, rep) for n, alg, rep in graded_instances() if n == name)
    grid = (-1, 0, 1)
    got = search_homotopy_operators(alg, rep, grid, max_weight, 4)
    assert got == brute_force_search(alg, rep, grid, max_weight, 4)


def test_the_search_reads_the_residual_per_prefix_and_word_not_per_candidate(monkeypatch):
    # two-level at max_weight 2 decides 1,305 of its 6,561 candidates; one
    # residual per candidate and word made 1,571 kernel calls, and the
    # twisted decision makes 271
    alg, rep = two_level_sgla(), two_level_rep()
    calls = _count_calls(monkeypatch, "_twice_residual")
    assert len(search_homotopy_operators(alg, rep, (-1, 0, 1), 2, 4)) == 35
    assert 0 < len(calls) <= 600


def test_search_builds_an_operator_only_for_each_hit(monkeypatch):
    # candidates are decided on int images; a HomotopyOperator is built for
    # each returned operator alone, from the grid's own Fraction values
    built = []
    operator = homotopy.HomotopyOperator
    monkeypatch.setattr(homotopy, "HomotopyOperator",
                        lambda *args, **kwargs: built.append(1) or operator(*args, **kwargs))
    alg, rep = two_level_sgla(), two_level_rep()
    grid = (Fraction(-2, 3), 0, Fraction(1, 2))
    found = search_homotopy_operators(alg, rep, grid, max_weight=2, p_max=4)
    assert found and len(built) == len(found)
    for t in found:
        assert t.truncation == 2
        for comp in t.components.values():
            for val in comp.entries.values():
                assert all(type(x) is Fraction and x in grid for x in val)


def test_grid_search_operators_induce_prelie_infinity():
    alg, rep = two_level_sgla(), two_level_rep()
    found = search_homotopy_operators(alg, rep, (-1, 0, 1), max_weight=2, p_max=4)
    checked_nonzero_m1 = False
    for t in found:
        p = induce_prelie_infinity(t, alg, rep, 4)
        assert check_prelie_infinity(p, 4).ok
        if any(omega(t)) and not p.op(1).is_zero():
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
    # family, summed term by term over the raw unshuffles, equals minus the
    # self-compose of the family, so squaring to zero under the bracket is
    # the same as the identities holding.
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
                    res = raw_prelie_residual(pli, word, last)
                    comp = hook_compose_on_word(fam, fam, word, last)
                    assert tuple(res) == tuple(-x for x in comp)


def test_psi_zero_and_degree():
    alg, rep = two_level_sgla(), two_level_rep()
    z = GradedSymFamily(rep.space, alg.space, 0, {})
    assert psi(z, rep).is_zero()
    f = random_sym_family(random.Random(51), rep.space, alg.space, 0, 2)
    assert psi(f, rep).degree == 1


@pytest.mark.parametrize("extra", [-1, 1])
def test_psi_refuses_values_outside_the_algebra_of_the_action(extra):
    alg, rep = two_level_sgla(), two_level_rep()
    # one value coordinate too few or too many for the action's matrices
    names, degrees = alg.space.basis, alg.space.degrees
    target = graded_space(names[:extra] if extra < 0 else names + ("x",),
                          degrees[:extra] if extra < 0 else degrees + (degrees[-1],))
    f = random_sym_family(random.Random(53), rep.space, target, 0, 2)
    with pytest.raises(ShapeMismatchError, match="algebra of the action"):
        psi(f, rep)
    with pytest.raises(ShapeMismatchError, match="algebra of the action"):
        psi(GradedSymFamily(rep.space, target, 0, {}), rep)


@pytest.mark.parametrize("extra", [-1, 1])
def test_graded_brackets_need_one_action_matrix_per_algebra_basis_element(extra):
    alg, rep = two_level_sgla(), two_level_rep()
    # one matrix too few (read past its end) or one too many (never read)
    mats = rep.matrices[:extra] if extra < 0 else rep.matrices + rep.matrices[:1]
    rep = GradedRepresentation(rep.space, mats)
    f = random_sym_family(random.Random(54), rep.space, alg.space, 0, 2)
    for check in (lambda: graded_bracket(f, f, alg, rep, 2),
                  lambda: mc_check_homotopy(f, alg, rep, 2),
                  lambda: check_psi_homomorphism(f, f, alg, rep, 2)):
        with pytest.raises(ShapeMismatchError, match="one action matrix per algebra"):
            check()


def _cut_to_one_row(graded_case):
    """An operator of the algebra and its action, with every matrix of the
    action cut to its first row: the affine adjoint, or two-level's action."""
    if graded_case:
        alg, rep = two_level_sgla(), two_level_rep()
        t = next(t for t in search_homotopy_operators(alg, rep, (-1, 0, 1))
                 if len(t.components) == 3)
        return t, alg, GradedRepresentation(rep.space, tuple(m[:1] for m in rep.matrices))
    alg = affine_line()
    rep = adjoint(alg)
    t = AltMap(1, 2, 2, {(0,): (1, 0), (1,): (1, 1)})
    return t, alg, Representation(rep.basis, tuple(m[:1] for m in rep.matrices))


@pytest.mark.parametrize("call, graded_case", [
    (lambda t, a, r: courant_bracket(t, t, a, r), False),
    (lambda t, a, r: mc_residual(t, a, r), False),
    (lambda t, a, r: is_homotopy_oop(t, a, r, 4), True),
    (lambda t, a, r: homotopy_oop_residual(t, a, r, 4), True),
    (lambda t, a, r: mc_check_homotopy(t, a, r, 4), True),
    (lambda t, a, r: search_homotopy_operators(a, r, (0, 1), max_weight=1, p_max=2), True),
    (lambda t, a, r: check_psi_homomorphism(t, t, a, r, 2), True),
], ids=["courant_bracket", "mc_residual", "is_homotopy_oop", "homotopy_oop_residual",
        "mc_check_homotopy", "search_homotopy_operators", "check_psi_homomorphism"])
def test_an_action_of_matrices_that_are_not_square_is_refused(call, graded_case):
    t, alg, rep = _cut_to_one_row(graded_case)
    with pytest.raises(ShapeMismatchError, match="square of the module dimension"):
        call(t, alg, rep)


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
    # both brackets run one kernel, so each is held to the raw unshuffle sums
    rng = random.Random(53)
    for _ in range(20):
        dim = rng.randint(1, 4)
        a = random_hooked(rng, rng.randrange(4), dim, pool=POOL)
        b = random_hooked(rng, rng.randrange(4), dim, pool=POOL)
        space = graded_space([f"v{i + 1}" for i in range(dim)], [-1] * dim)
        fa, fb = hook_family_from_hooked(a, space), hook_family_from_hooked(b, space)
        total, s = a.arity + b.arity, parity_sign(a.arity * b.arity)
        want = {}
        for word in itertools.combinations(range(dim), total):
            for last in range(dim):
                ab = raw_hook_compose(fa, fb, word, last)
                ba = raw_hook_compose(fb, fa, word, last)
                val = tuple(x - s * y for x, y in zip(ab, ba))
                if any(val):
                    want[(word, last)] = val
        assert dict(mn_bracket(a, b).entries) == want
        got = hook_bracket(fa, fb, total)
        assert got.components.keys() <= {total}
        assert dict(got.component(total).entries) == want


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
            assert is_homotopy_oop(t_hop, galg, adjoint_graded(galg), 4) == ungraded
