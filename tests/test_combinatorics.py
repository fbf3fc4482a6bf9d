import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rotabaxter.combinatorics import (
    koszul_sign,
    multinomial,
    parity_sign,
    sign,
    signed_unshuffles,
    split_table,
    unshuffles,
)
from rotabaxter.errors import ShapeMismatchError

from helpers import compose


def brute_unshuffles(shape):
    """Oracle: filter all permutations by block monotonicity."""
    n = sum(shape)
    bounds = []
    start = 0
    for part in shape:
        bounds.append((start, start + part))
        start += part
    out = []
    for p in itertools.permutations(range(n)):
        if all(all(p[i] < p[i + 1] for i in range(a, b - 1)) for a, b in bounds):
            out.append(p)
    return out


def koszul_by_inversions(p, degrees):
    """Oracle: product over inverted label pairs of (-1)^(d_a d_b)."""
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j] and degrees[p[i]] % 2 and degrees[p[j]] % 2:
                s = -s
    return s


def test_unshuffles_s2():
    assert set(unshuffles((1, 1))) == {(0, 1), (1, 0)}


def test_unshuffles_degenerate_blocks():
    assert unshuffles((2, 0)) == [(0, 1)]
    assert unshuffles((0, 2)) == [(0, 1)]
    assert unshuffles(()) == [()]
    assert unshuffles((0,)) == [()]


def test_unshuffles_2_1_1_matches_brute_force():
    got = unshuffles((2, 1, 1))
    assert len(got) == 12
    assert sorted(got) == sorted(brute_unshuffles((2, 1, 1)))


@pytest.mark.parametrize("shape", [
    (1, 1), (2, 1), (1, 2), (3, 2), (2, 2, 1), (1, 1, 1, 1), (4, 3), (2, 0, 3),
])
def test_unshuffles_match_brute_force(shape):
    got = unshuffles(shape)
    assert sorted(got) == sorted(brute_unshuffles(shape))
    assert len(got) == multinomial(shape)
    assert len(set(got)) == len(got)


def test_unshuffles_cardinality_up_to_seven():
    for n in range(8):
        for shape in itertools.product(range(n + 1), repeat=2):
            if sum(shape) == n:
                assert len(unshuffles(shape)) == multinomial(shape)


def test_unshuffles_rejects_negative_parts():
    with pytest.raises(ValueError):
        unshuffles((2, -1))


def test_sign_basics():
    assert sign(()) == 1
    assert sign((0, 1, 2)) == 1
    assert sign((1, 0)) == -1
    assert sign((1, 2, 0)) == 1  # 3-cycle


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_sign_is_a_homomorphism(p, q):
    assert sign(compose(tuple(p), tuple(q))) == sign(tuple(p)) * sign(tuple(q))


def test_koszul_all_even_is_trivial():
    for p in itertools.permutations(range(4)):
        assert koszul_sign(p, (0, 2, 0, 4)) == 1


def test_koszul_all_odd_is_parity():
    for p in itertools.permutations(range(4)):
        assert koszul_sign(p, (1, 1, 1, 1)) == sign(p)
        assert koszul_sign(p, (-1, 3, 1, -1)) == sign(p)


def test_koszul_odd_odd_swap():
    assert koszul_sign((1, 0), (1, 1)) == -1
    assert koszul_sign((1, 0), (1, 0)) == 1
    assert koszul_sign((1, 0), (0, 0)) == 1


def test_koszul_three_cycles_on_mixed_degrees():
    # Rearrangement (w2, w3, w1) of degrees (1, 1, 0): moving w1 past w2 costs
    # a sign, past w3 does not.  The inverse rearrangement costs nothing.
    assert koszul_sign((1, 2, 0), (1, 1, 0)) == -1
    assert koszul_sign((2, 0, 1), (1, 1, 0)) == 1


def test_koszul_matches_inversion_oracle():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(1, 6)
        p = list(range(n))
        rng.shuffle(p)
        degs = tuple(rng.randrange(-2, 3) for _ in range(n))
        assert koszul_sign(tuple(p), degs) == koszul_by_inversions(tuple(p), degs)


def test_koszul_multiplicative_exhaustive():
    # koszul(q o p) = koszul(q) * koszul(p with degrees relabeled by q),
    # exhaustively for n <= 4 and degrees in {0, 1}.
    for n in range(1, 5):
        for degs in itertools.product((0, 1), repeat=n):
            for p in itertools.permutations(range(n)):
                for q in itertools.permutations(range(n)):
                    qp = compose(q, p)
                    degs_q = tuple(degs[q[i]] for i in range(n))
                    assert koszul_sign(qp, degs) == \
                        koszul_sign(q, degs) * koszul_sign(p, degs_q)


def test_koszul_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        koszul_sign((0, 1), (1,))


def test_misc_helpers():
    assert parity_sign(-1) == -1
    assert parity_sign(-2) == 1


def test_signed_unshuffles_table_matches_the_sign_functions():
    # every shape of one to three blocks on at most five letters
    shapes = [shape for parts in (1, 2, 3) for shape in itertools.product(range(6), repeat=parts)
              if sum(shape) <= 5]
    for shape in shapes:
        perms = unshuffles(shape)
        assert signed_unshuffles(shape) == tuple((s, sign(s)) for s in perms)
        for parities in itertools.product((0, 1), repeat=sum(shape)):
            assert signed_unshuffles(shape, parities) == \
                tuple((s, koszul_sign(s, parities)) for s in perms)
    # a degree and its parity give the same Koszul sign
    degs = (-1, 2, 3, 0)
    for s, eps in signed_unshuffles((1, 1, 2), tuple(d % 2 for d in degs)):
        assert eps == koszul_sign(s, degs)
    assert signed_unshuffles.cache_info().maxsize is not None


def merged_words(word, parities, shape):
    """(rearranged word, summed sign) of each :func:`split_table` entry."""
    if len(shape) == 3:
        return [(head + (x,) + rest, c) for head, x, rest, c in split_table(word, parities, shape)]
    return [(left + right, c) for left, right, c, _ in split_table(word, parities, shape)]


def raw_and_merged_sums(shape, word, parity, values):
    """The sum of eps * F(rearranged word) over the raw table and over the
    merged one, for the word's letters of the given parities and F the
    ``values`` table."""
    par = tuple(parity[x] for x in word)
    raw = sum(eps * values[tuple(word[i] for i in s)]
              for s, eps in signed_unshuffles(shape, par))
    merged = sum(c * values[u] for u, c in merged_words(word, tuple(parity), shape))
    return raw, merged


# the shapes a split table has: two blocks, or a letter inserted between two
shapes = st.one_of(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                   st.tuples(st.integers(0, 3), st.just(1), st.integers(0, 2)))


@given(shapes, st.data())
def test_merged_unshuffles_sum_what_the_raw_table_sums(shape, data):
    # unsorted words over a three-letter alphabet, odd letters repeated too
    n = sum(shape)
    parity = data.draw(st.lists(st.integers(0, 1), min_size=3, max_size=3))
    word = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    values = {u: rng.randrange(-9, 10) for u in itertools.product(range(3), repeat=n)}
    raw, merged = raw_and_merged_sums(shape, word, parity, values)
    assert raw == merged


def test_merged_table_is_a_subset_of_the_raw_table():
    for shape in [(1, 1, 2), (2, 1, 1), (2, 2), (0, 1, 3), (1, 3)]:
        for word in itertools.product(range(2), repeat=sum(shape)):
            for parity in itertools.product((0, 1), repeat=2):
                par = tuple(parity[x] for x in word)
                raw = {tuple(word[i] for i in s) for s, _ in signed_unshuffles(shape, par)}
                merged = merged_words(word, parity, shape)
                assert {u for u, _ in merged} <= raw
                # one representative per distinct rearranged word, none repeated
                rearranged = [u for u, _ in merged]
                assert len(set(rearranged)) == len(rearranged)
                assert all(c for _, c in merged)
    # (a, a, a, b) with a even and b odd: twelve unshuffles, three rearranged
    # words (b first, b second, or b last in the sorted block of two)
    word, par = (0, 0, 0, 1), (0, 0, 0, 1)
    merged = merged_words(word, (0, 1), (1, 1, 2))
    assert len(signed_unshuffles((1, 1, 2), par)) == 12
    assert sorted(c for _, c in merged) == [3, 3, 6]
    # a repeated odd letter cancels: (c, c) splits into two words of opposite sign
    assert split_table((0, 0), (1,), (1, 1)) == ()
    # distinct letters merge nothing
    word = (0, 1, 2)
    assert merged_words(word, (1, 0, 1), (1, 2)) == \
        [(tuple(word[i] for i in s), eps) for s, eps in signed_unshuffles((1, 2), (1, 0, 1))]


def test_merged_tables_share_the_one_bounded_cache():
    before = split_table.cache_info()
    assert before.maxsize is not None
    split_table((0, 0, 2, 3, 3), (0, 0, 1, 0), (2, 3))
    after = split_table.cache_info()
    assert after.maxsize == before.maxsize
    assert after.currsize <= after.maxsize


@given(shapes, st.data())
def test_split_table_splits_each_distinct_rearranged_word_once(shape, data):
    # words over a three-letter alphabet repeat even and odd letters alike;
    # parities None sign by the permutation parity, every letter odd
    n = sum(shape)
    parity = data.draw(st.none() | st.tuples(*[st.integers(0, 1)] * 3))
    word = tuple(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    raw_table = signed_unshuffles(shape, None if parity is None else
                                  tuple(parity[x] for x in word))
    raw = {}
    for s, eps in raw_table:
        u = tuple(word[i] for i in s)
        raw[u] = raw.get(u, 0) + eps
    odd = (1, 1, 1) if parity is None else parity
    got = {}
    for entry in split_table(word, parity, shape):
        if len(shape) == 3:
            head, x, rest, c = entry
            blocks = (head, (x,), rest)
        else:
            left, right, c, left_parity = entry
            blocks = (left, right)
            assert left_parity == sum(odd[y] for y in left) % 2
        # the blocks, of the shape's sizes, are a rearranged word, listed once
        assert tuple(map(len, blocks)) == shape
        u = sum(blocks, ())
        assert u in raw and u not in got
        got[u] = c
    # each carries its group's summed sign, and the groups that cancel are dropped
    assert got == {u: c for u, c in raw.items() if c}
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    values = {u: rng.randrange(-9, 10) for u in raw}
    assert sum(c * values[u] for u, c in got.items()) == \
        sum(eps * values[tuple(word[i] for i in s)] for s, eps in raw_table)


def test_split_tables_take_two_blocks_or_one_inserted_letter():
    for shape in [(), (2,), (1, 2, 1), (1, 1, 1, 1)]:
        with pytest.raises(ShapeMismatchError):
            split_table((0,) * sum(shape), None, shape)
