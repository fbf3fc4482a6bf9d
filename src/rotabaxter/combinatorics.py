"""Permutations, unshuffles and signs (ordinary and Koszul).

A permutation of n letters is a tuple of 0-based images: rearranging a word
``w`` by ``p`` yields ``(w[p[0]], w[p[1]], ...)``.  Indices are 0-based in
memory; the 1-based convention of files and witnesses appears only where they
are written: in ``serialize``, in the witnesses of ``reports`` and ``cli``, and
in the coherence witness of ``homotopy.check_prelie_infinity``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import SearchSpaceError, ShapeMismatchError

# Work a walk over the canonical words of weights 0..p_max may take: each
# weight is a step, even an empty one, and a word of weight p costs about p
# steps (its letters are sorted, signed and unshuffled), so the work is
# counted as p_max + 1 plus the sum of p times the number of words of weight p
# (:class:`~rotabaxter.graded.Walk`).  An unshuffle table of more than this many
# entries is refused too (:func:`unshuffles`).
CANONICAL_WORD_CAP = 200_000

# Residual coordinates a structure-axiom check may compute over its basis
# cells, and the entries a dense structure table may have.
AXIOM_WORK_CAP = 20_000_000


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
    letters; shapes (0, n) and (n, 0) yield only the identity.  A shape with
    more unshuffles than the work cap is refused before any is built.
    """
    if any(part < 0 for part in shape):
        raise ShapeMismatchError("unshuffle blocks must be non-negative")
    count = multinomial(shape)
    if count > CANONICAL_WORD_CAP:
        raise SearchSpaceError(f"{count} unshuffles of shape {tuple(shape)} exceed "
                               f"the cap of {CANONICAL_WORD_CAP}")
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
def signed_unshuffles(shape: tuple[int, ...], parities: tuple[int, ...] | None = None,
                      pattern: tuple[int, ...] | None = None):
    """The unshuffles of ``shape``, each paired with its sign, as a tuple.

    With ``parities`` None the sign is the permutation parity :func:`sign`
    (the ungraded calculus); otherwise ``parities[i]`` is the degree parity
    of the letter at position i and the sign is :func:`koszul_sign`.  Both
    depend only on the shape and the parity pattern, so the per-word kernels
    share one table per key instead of recomputing signs per word and term.

    ``pattern[i]`` names the letter at position i (equal names for equal
    letters, e.g. ``tuple(map(word.index, word))``).  With a pattern, the
    unshuffles that rearrange the word into the same word are merged: one
    representative is kept, paired with the sum of their signs, and a group
    whose signs cancel (only possible when an odd letter repeats) is dropped.
    A kernel whose term is the sign times a function of the rearranged word
    alone sums the same total over the merged table.
    """
    if pattern is None:
        if parities is None:
            return tuple((s, sign(s)) for s in unshuffles(shape))
        return tuple((s, koszul_sign(s, parities)) for s in unshuffles(shape))
    merged: dict = {}
    for s, eps in signed_unshuffles(shape, parities):
        key = tuple(pattern[i] for i in s)
        if key in merged:
            merged[key][1] += eps
        else:
            merged[key] = [s, eps]
    return tuple((s, c) for s, c in merged.values() if c)


def multinomial(shape) -> int:
    r = math.factorial(sum(shape))
    for part in shape:
        r //= math.factorial(part)
    return r
