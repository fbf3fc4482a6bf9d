"""Permutations, unshuffles and signs (ordinary and Koszul).

A permutation of n letters is a tuple of 0-based images: rearranging a word
``w`` by ``p`` yields ``(w[p[0]], w[p[1]], ...)``.  The serialization layer
is the only place where the 1-based external convention appears.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import ShapeMismatchError


def compose(p, q) -> tuple[int, ...]:
    """The permutation acting as q followed by p."""
    return tuple(p[q[i]] for i in range(len(q)))


def parity_sign(exponent: int) -> int:
    """(-1) raised to an integer exponent (negative exponents allowed)."""
    return -1 if exponent % 2 else 1


def sign(p) -> int:
    """Parity of a permutation: +1 for even, -1 for odd."""
    inversions = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                inversions += 1
    return parity_sign(inversions)


def koszul_sign(p, degrees) -> int:
    """Sign relating a word of graded letters to its rearrangement by p.

    ``degrees[i]`` is the degree of the letter at position i of the original
    word.  The sign is defined by

        w_1 (.) ... (.) w_n  =  koszul_sign(p, degrees) * w_p(1) (.) ... (.) w_p(n)

    in the free graded-symmetric algebra: each transposition of two adjacent
    odd letters contributes a factor -1.  With all degrees odd this is the
    ordinary parity; with all degrees even it is +1.
    """
    if len(p) != len(degrees):
        raise ShapeMismatchError(
            f"permutation of {len(p)} letters with {len(degrees)} degrees"
        )
    word = list(p)
    s = 1
    # Bubble sort back to the identity; a swap of adjacent letters a, b
    # costs (-1)^(deg a * deg b).  O(n^2) is fine at desk scale.
    for end in range(len(word), 1, -1):
        for i in range(end - 1):
            if word[i] > word[i + 1]:
                if degrees[word[i]] % 2 and degrees[word[i + 1]] % 2:
                    s = -s
                word[i], word[i + 1] = word[i + 1], word[i]
    return s


def unshuffles(shape) -> list[tuple[int, ...]]:
    """All unshuffles for the given block sizes, as image tuples.

    An unshuffle for shape (i_1, ..., i_k) is a permutation of i_1 + ... + i_k
    letters whose images increase within each consecutive block.  Blocks of
    size 0 impose no constraint; the empty shape yields the identity on zero
    letters; shapes (0, n) and (n, 0) yield only the identity.
    """
    if any(part < 0 for part in shape):
        raise ValueError("unshuffle blocks must be non-negative")
    n = sum(shape)
    out: list[tuple[int, ...]] = []

    def place(avail: tuple[int, ...], parts: tuple[int, ...], acc: tuple[int, ...]):
        if not parts:
            out.append(acc)
            return
        head, tail = parts[0], parts[1:]
        for block in itertools.combinations(avail, head):
            chosen = set(block)
            place(tuple(x for x in avail if x not in chosen), tail, acc + block)

    place(tuple(range(n)), tuple(shape), ())
    return out


@lru_cache(maxsize=1024)
def signed_unshuffles(shape: tuple[int, ...], parities: tuple[int, ...] | None = None):
    """The unshuffles of ``shape``, each paired with its sign, as a tuple.

    With ``parities`` None the sign is the permutation parity :func:`sign`
    (the ungraded calculus); otherwise ``parities[i]`` is the degree parity
    of the letter at position i and the sign is :func:`koszul_sign`.  Both
    depend only on the shape and the parity pattern, so the per-word kernels
    share one table per key instead of recomputing signs per word and term.
    """
    if parities is None:
        return tuple((s, sign(s)) for s in unshuffles(shape))
    return tuple((s, koszul_sign(s, parities)) for s in unshuffles(shape))


def multinomial(shape) -> int:
    r = math.factorial(sum(shape))
    for part in shape:
        r //= math.factorial(part)
    return r
