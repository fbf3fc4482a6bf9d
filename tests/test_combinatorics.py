import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rotabaxter.combinatorics import (
    compose,
    koszul_sign,
    multinomial,
    parity_sign,
    sign,
    signed_unshuffles,
    unshuffles,
)
from rotabaxter.errors import ShapeMismatchError


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
