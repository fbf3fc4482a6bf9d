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
def signed_unshuffles(shape: tuple[int, ...], parities: tuple[int, ...] | None = None):
    """The unshuffles of ``shape``, each paired with its sign, as a tuple.

    With ``parities`` None the sign is the permutation parity :func:`sign`
    (the ungraded calculus); otherwise ``parities[i]`` is the degree parity
    of the letter at position i and the sign is :func:`koszul_sign`.  Both
    depend only on the shape and the parity pattern, so one table serves
    every word of that pattern (see :func:`split_table`).
    """
    if parities is None:
        return tuple((s, sign(s)) for s in unshuffles(shape))
    return tuple((s, koszul_sign(s, parities)) for s in unshuffles(shape))


@lru_cache(maxsize=2048)
def split_table(word: tuple[int, ...], parities: tuple[int, ...] | None,
                shape: tuple[int, ...]):
    """The unshuffles of ``shape`` applied to ``word``, split into blocks of
    letters, as a tuple: one entry per distinct rearranged word.

    ``parities[x]`` is the degree parity of the letter x; with ``parities``
    None every letter counts as odd and the sign is the permutation parity
    :func:`sign`, as in :func:`signed_unshuffles`.  The unshuffles that
    rearrange the word into the same word are merged into one entry with the
    sum of their signs, and a group whose signs cancel (only possible when
    an odd letter repeats) is dropped: a kernel whose term is the sign times
    a function of the rearranged word sums the same total over this table
    as over the raw one.  An insertion shape (l, 1, p - l - 1) gives entries
    ``(head, letter, rest, sign)``; a two-block shape (a, p - a) gives
    ``(left, right, sign, parity)``, the parity of the left block's summed
    degrees.  The per-word kernels read one table per (word, shape) from
    this cache instead of rearranging the word term by term.
    """
    insertion = len(shape) == 3 and shape[1] == 1
    if not insertion and len(shape) != 2:
        raise ShapeMismatchError(f"split tables have shape (a, b) or (a, 1, b), not {shape}")
    table = signed_unshuffles(shape, None if parities is None else
                              tuple(parities[x] for x in word))
    letter = word.__getitem__
    if len(set(word)) == len(word):  # distinct letters: nothing merges
        rows = [(tuple(map(letter, s)), eps) for s, eps in table]
    else:
        merged: dict = {}
        for s, eps in table:
            u = tuple(map(letter, s))
            merged[u] = merged.get(u, 0) + eps
        rows = [(u, c) for u, c in merged.items() if c]
    a = shape[0]
    if insertion:
        return tuple((u[:a], u[a], u[a + 1:], c) for u, c in rows)
    if parities is None:
        return tuple((u[:a], u[a:], c, a % 2) for u, c in rows)
    parity = parities.__getitem__
    return tuple((u[:a], u[a:], c, sum(map(parity, u[:a])) % 2) for u, c in rows)


def multinomial(shape) -> int:
    r = math.factorial(sum(shape))
    for part in shape:
        r //= math.factorial(part)
    return r
