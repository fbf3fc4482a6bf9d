"""Z-graded vector spaces, the sparse multilinear maps and
families on them, symmetric graded Lie algebras with a degree-1 bracket,
their differentials, and degree-1 representations.

Reduction convention: an ungraded Lie algebra embeds with every basis element
in degree -1, and an ungraded module likewise; the degree-1 graded-symmetric
bracket and the degree-1 action then reproduce the ungraded axioms, since
(-1)^((-1)(-1)) = -1 turns graded symmetry into antisymmetry.
"""

from __future__ import annotations

import copy
import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache

from .combinatorics import AXIOM_WORK_CAP, CANONICAL_WORD_CAP, parity_sign
from .errors import SearchSpaceError, ShapeMismatchError
from .linalg import (
    Action,
    Clearable,
    Matrix,
    Vector,
    ZERO,
    act_basis,
    adjoint_matrices,
    as_integers,
    basis_vector,
    bilinear,
    cleared_pair,
    common_denominator,
    divided,
    fr,
    require_action,
    require_table,
    signed_sum,
    table_from_pairs,
    vec_add,
    vec_sub,
)
from .reports import Report, cell_witness


@dataclass(frozen=True)
class GradedVectorSpace:
    basis: tuple[str, ...]
    degrees: tuple[int, ...]
    # Stored at construction: every kernel reads them.  A cached_property
    # would write the instance dict after construction, which in CPython 3.11
    # slows every other attribute read on the object (degrees: 17 ns -> 92 ns).
    dim: int = field(init=False, repr=False, compare=False)
    # the one degree of a space concentrated in a single degree, else None
    uniform_degree: int | None = field(init=False, repr=False, compare=False)
    # the degree parity of each basis element, the key of its split tables
    parities: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.basis))
        object.__setattr__(self, "parities", tuple(d % 2 for d in self.degrees))
        object.__setattr__(self, "uniform_degree",
                           self.degrees[0] if len(set(self.degrees)) == 1 else None)

    def index(self, name: str) -> int:
        return self.basis.index(name)


def graded_space(names, degrees) -> GradedVectorSpace:
    names = tuple(names)
    degrees = tuple(int(d) for d in degrees)
    if len(names) != len(degrees):
        raise ShapeMismatchError("one degree per basis element required")
    return GradedVectorSpace(names, degrees)


def concentrated(names, degree: int = -1) -> GradedVectorSpace:
    names = tuple(names)
    return GradedVectorSpace(names, (degree,) * len(names))


@cache
def ungraded_space(dim: int) -> GradedVectorSpace:
    """The space an ungraded map of the given dimension lives on: every
    basis vector in degree -1, named by position only."""
    return concentrated((f"e{i + 1}" for i in range(dim)), -1)


@lru_cache(maxsize=256)
def canonical_words(space: GradedVectorSpace, weight: int) -> tuple:
    """The weakly increasing index words with no odd-degree index repeated,
    as a tuple in sorted order.

    Each (space, weight) is listed once and kept, like :func:`_walk_steps`,
    so every walk over the same space reads one word list.  Every caller
    counts its walk against CANONICAL_WORD_CAP before it asks for words, so
    each kept list is bounded.  On a space of odd letters only (every
    ungraded one) these are the strictly increasing words,
    ``itertools.combinations``, and a weight above the letters has none.
    Other spaces take :func:`_walk_words`.
    """
    dim = space.dim
    if all(d % 2 for d in space.degrees):
        return tuple(itertools.combinations(range(dim), weight)) if weight <= dim else ()
    return tuple(_walk_words(space, weight))


def _walk_words(space: GradedVectorSpace, weight: int):
    """The canonical words of any space, built letter by letter.  A prefix
    is extended only when it completes to a word of the weight, so the cost
    is that of the words themselves."""
    dim, deg = space.dim, space.degrees
    # room[a]: the most letters a word may still take from letter a on
    room = [0] * (dim + 1)
    for a in range(dim - 1, -1, -1):
        room[a] = min(weight, room[a + 1] + 1) if deg[a] % 2 else weight
    stack = [((), 0)] if room[0] >= weight else []
    while stack:
        word, start = stack.pop()
        if len(word) == weight:
            yield word
            continue
        need = weight - len(word) - 1
        # pushed in reverse, so the smallest next letter is extended first
        for a in range(dim - 1, start - 1, -1):
            nxt = a + deg[a] % 2
            if room[nxt] >= need:
                stack.append((word + (a,), nxt))


def canonical_word_count(space: GradedVectorSpace, weight: int) -> int:
    """The number of :func:`canonical_words` of a weight, in closed form: a
    canonical word holds k distinct odd-degree letters and weight - k
    even-degree ones with repeats, so with n_odd and n_even letters of each
    parity it is the sum over k of C(n_odd, k) C(n_even + weight - k - 1, weight - k).
    """
    n_odd = sum(d % 2 for d in space.degrees)
    n_even = space.dim - n_odd
    return sum(math.comb(n_odd, k)
               * (math.comb(n_even + weight - k - 1, weight - k) if weight > k else 1)
               for k in range(min(n_odd, weight) + 1))


@lru_cache(maxsize=256)
def _walk_steps(space: GradedVectorSpace, p_max: int) -> int:
    """The work of a walk up to weight p_max (see CANONICAL_WORD_CAP), the
    words counted by :func:`canonical_word_count` and only until the cap is
    passed, so a huge p_max costs nothing."""
    total = p_max + 1
    # a space without even letters has no words above its odd letters
    top = p_max if any(d % 2 == 0 for d in space.degrees) else min(p_max, space.dim)
    for p in range(top + 1):
        if total > CANONICAL_WORD_CAP:
            break
        total += p * canonical_word_count(space, p)
    return total


def _require_walk(space: GradedVectorSpace, top: int) -> None:
    """Refuse a walk over the canonical words of weights 0..top whose work,
    counted first, is above CANONICAL_WORD_CAP, naming that top weight."""
    total = _walk_steps(space, top)
    if total > CANONICAL_WORD_CAP:
        raise SearchSpaceError(f"a walk to weight {top} needs at least {total} steps over "
                               f"canonical words, above the cap of {CANONICAL_WORD_CAP}")


def elementary_pairs(space: GradedVectorSpace, target: GradedVectorSpace, top: int,
                     walk, make):
    """The ordered pairs (f, g) of elementary maps whose weights add up to at
    most ``top``, by f and then g, each by weight, word and k: ``make(w,
    degree, entries)`` sends one canonical word of weight w to the target
    basis vector e_k, with degree deg e_k - (word degree).  A pair whose
    weights add up to s is checked by a walk to weight ``walk(s)``, and these
    walks, counted first, are refused above CANONICAL_WORD_CAP."""
    # a sweep with any pair walks to weight top, which bounds the weights below
    _require_walk(space, top)
    # a weight without elementary maps has none above it
    counts = list(itertools.takewhile(bool, (canonical_word_count(space, w) * target.dim
                                             for w in range(top + 1))))
    total = sum(m * n * _walk_steps(space, walk(a + b)) for a, m in enumerate(counts)
                for b, n in enumerate(counts[:top + 1 - a]))
    if total > CANONICAL_WORD_CAP:
        raise SearchSpaceError(f"a sweep of the basis pairs needs {total} steps over "
                               f"canonical words, above the cap of {CANONICAL_WORD_CAP}")
    maps = [(w, make(w, target.degrees[k] - sum(space.degrees[i] for i in word),
                     {word: basis_vector(target.dim, k)}))
            for w in range(len(counts)) for word in canonical_words(space, w)
            for k in range(target.dim)]
    return ((f, g) for wf, f in maps for wg, g in maps if wf + wg <= top)


class Walk:
    """The nonzero values of den times a map, or a residual, on the
    canonical keys of the given weights, an increasing sequence: the key is
    the word, or (word, last) with every last argument when ``free`` is set.
    ``on_word`` takes the word and returns den times its value, or when
    ``free`` is set those values in the order of the last argument.

    The walk up to the top weight is counted when it is made, and refused
    above the cap (:func:`_require_walk`), so a caller can make it before it
    does work of its own.  It runs when it is read, weight by weight and in
    sorted key order, and each reader divides only what it returns, once:
    :meth:`vanishes` and :meth:`first` stop at the first nonzero value, so a
    FAIL costs the keys up to its witness and a PASS evaluates every key, and
    :meth:`by_weight` collects every value.
    """

    __slots__ = ("den", "space", "weights", "on_word", "free")

    def __init__(self, den: int, space: GradedVectorSpace, weights, on_word,
                 free: bool = False):
        _require_walk(space, weights[-1] if weights else -1)
        self.den, self.space, self.weights = den, space, weights
        self.on_word, self.free = on_word, free

    def __iter__(self):
        """(weight, key, den times the value) at every nonzero key."""
        on_word, free = self.on_word, self.free
        for p in self.weights:
            for word in canonical_words(self.space, p):
                if free:
                    for last, val in enumerate(on_word(word)):
                        if any(val):
                            yield p, (word, last), val
                else:
                    val = on_word(word)
                    if any(val):
                        yield p, word, val

    def vanishes(self) -> bool:
        """Whether every value is zero."""
        return next(iter(self), None) is None

    def first(self, scale: int = 1):
        """(weight, key, value / scale) at the first nonzero key, or None."""
        for p, key, val in self:
            return p, key, divided(val, scale * self.den)
        return None

    def by_weight(self, scale: int = 1) -> dict:
        """{weight: {key: value / scale}} over every nonzero key."""
        out: dict = {}
        den = scale * self.den
        for p, key, val in self:
            out.setdefault(p, {})[key] = divided(val, den)
        return out


class CellWalk(Walk):
    """A :class:`Walk` over the ``arity``-tuples of indices below n in sorted
    order, or the increasing ones when ``distinct``, each keyed by itself with
    weight None: ``on_cell(*cell)`` is den times its residual, a flat int tuple."""

    __slots__ = ("n", "arity", "distinct")

    def __init__(self, den: int, n: int, arity: int, on_cell, distinct: bool = False):
        self.den, self.n, self.arity, self.on_word, self.distinct = den, n, arity, on_cell, distinct

    def __iter__(self):
        cells = (itertools.combinations(range(self.n), self.arity) if self.distinct
                 else itertools.product(range(self.n), repeat=self.arity))
        for cell in cells:
            if any(val := self.on_word(*cell)):
                yield None, cell, val


def require_cells(check: str, total: int) -> None:
    """Refuse a structure-axiom check whose :class:`CellWalk` parts, counted
    first as residual coordinates over basis cells, are above AXIOM_WORK_CAP."""
    if total > AXIOM_WORK_CAP:
        raise SearchSpaceError(f"{check} needs {total} residual coordinates over basis cells, "
                               f"above the cap of {AXIOM_WORK_CAP}")


def koszul_sorted(degrees, args):
    """(the canonical word of the letters ``args``, whether sorting them
    into it negates): the Koszul sign of the sort, for letters of the given
    degrees.  The word is None when an odd-degree letter repeats, where
    every graded-symmetric map vanishes."""
    if len(args) < 2:
        return tuple(args), False
    odd = [a for a in args if degrees[a] % 2]
    if len(set(odd)) < len(odd):
        return None, False
    negate = False
    for i, a in enumerate(odd):
        for b in odd[i + 1:]:
            if a > b:
                negate = not negate
    return tuple(sorted(args)), negate


def koszul_inserted(degrees, letter, rest):
    """:func:`koszul_sorted` of ``(letter,) + rest`` for a canonical ``rest``:
    the letter is placed by bisection, and the word negates when an odd
    letter passes an odd number of odd letters.  The word is None when an
    odd letter is already in ``rest``."""
    at = bisect_left(rest, letter)
    negate = False
    if degrees[letter] % 2:
        if rest[at:at + 1] == (letter,):
            return None, False
        for x in rest[:at]:
            if degrees[x] % 2:
                negate = not negate
    return rest[:at] + (letter,) + rest[at:], negate


class SparseMap:
    """Weight-w graded map from S^w(V) into a graded target, or from
    S^w(V) (x) V when the class has a free last slot.

    This class alone knows the storage format and the sign convention.
    Values are stored on canonical words (weakly increasing, no odd-degree
    index repeated), keyed by the word or by (word, last), and each is
    homogeneous of degree (word degree) + (degree of last) + degree.  A word
    in another order evaluates to the Koszul-signed stored value.  On a space
    concentrated in degree -1 the canonical words are the strictly increasing
    ones and the Koszul sign is the permutation parity: the ungraded
    alternating maps are exactly these maps.

    A map is never changed after construction, so :meth:`cleared` stores
    its int image on the map the first time it is asked for.
    """

    __slots__ = ("space", "target", "weight", "degree", "entries", "_image")
    free = False

    def __init__(self, space: GradedVectorSpace, target: GradedVectorSpace,
                 weight: int, degree: int, entries=None):
        self.space = space
        self.target = target
        self.weight = int(weight)
        self.degree = int(degree)
        deg = space.degrees
        clean = {}
        for key, val in (entries or {}).items():
            if self.free:
                word, last = key
                if not 0 <= last < space.dim:
                    raise ShapeMismatchError(f"free argument {last} out of range")
                word = tuple(word)
                key = (word, last)
            else:
                word = key = tuple(key)
            if len(word) != self.weight:
                raise ShapeMismatchError(f"word {word} does not have weight {self.weight}")
            if list(word) != sorted(word):
                raise ShapeMismatchError(f"word {word} is not weakly increasing")
            if word and (word[0] < 0 or word[-1] >= space.dim):
                raise ShapeMismatchError(f"word {word} out of range")
            if len(set(word)) < len(word) and any(
                    a == b and deg[a] % 2 for a, b in zip(word, word[1:])):
                raise ShapeMismatchError(f"word {word} repeats an odd-degree index")
            val = tuple(map(fr, val))
            self._check_value(key, val)
            if any(val):
                clean[key] = val
        self.entries = clean
        self._image = None

    def _check_value(self, key, val) -> None:
        """Raise unless ``val`` may be stored at ``key``, a valid key of this
        map: one coordinate per target basis element, and homogeneous of
        degree (word degree) + (degree of last) + degree.  The constructor
        checks each entry with it; a kernel can check an int value directly.
        """
        deg = self.space.degrees
        if self.free:
            word, last = key
            want = self.degree + deg[last]
        else:
            word, want = key, self.degree
        target = self.target
        if len(val) != target.dim:
            raise ShapeMismatchError("value length does not match the target dimension")
        want += sum(map(deg.__getitem__, word))
        # a target in a single degree (every ungraded one) skips the per-value test
        if want != target.uniform_degree and any(
                x and target.degrees[k] != want for k, x in enumerate(val)):
            raise ShapeMismatchError(f"value at {key} is not homogeneous of degree {want}")

    @classmethod
    def zero(cls, *shape):
        """The zero map; ``shape`` is the constructor's arguments before ``entries``."""
        return cls(*shape)

    @classmethod
    def _on(cls, space, target, weight, degree, entries):
        """A map on entries already known to be valid; zero values are dropped."""
        new = object.__new__(cls)
        new.space, new.target, new.weight, new.degree = space, target, weight, degree
        new.entries = {k: v for k, v in entries.items() if any(v)}
        new._image = None
        return new

    def _like(self, entries):
        return type(self)._on(self.space, self.target, self.weight, self.degree, entries)

    def eval(self, args, last=None) -> Vector:
        """Value on arbitrary arguments (and the free last one, if any).

        Sorting the arguments into a canonical word costs a factor -1 for
        each pair of odd-degree letters that changes order; a repeated
        odd-degree letter makes the value zero.
        """
        n = len(args)
        if n != self.weight or self.free == (last is None):
            raise ShapeMismatchError(f"expected {self.weight} arguments"
                                     f"{' and a last one' if self.free else ''}")
        word, negate = koszul_sorted(self.space.degrees, args)
        val = self.entries.get((word, last) if self.free else word)
        if val is None:
            return (ZERO,) * self.target.dim
        return tuple(-x for x in val) if negate else val

    def eval_lasts(self, args) -> dict[int, Vector]:
        """{last: value on (args; last)} for every last argument where that
        value is nonzero, for a map with a free slot; the arguments are
        sorted, and the Koszul sign taken, once for all of them."""
        n = len(args)
        if n != self.weight or not self.free:
            raise ShapeMismatchError(f"expected {self.weight} arguments of a map "
                                     "with a free slot")
        word, negate = koszul_sorted(self.space.degrees, args)
        vals = self.stored_lasts(word)
        return {last: tuple(-x for x in val) for last, val in vals.items()} if negate else vals

    def stored_lasts(self, word) -> dict[int, Vector]:
        """{last: the stored value at (word, last)} for every last argument
        where one is stored, for a map with a free slot: ``eval_lasts`` on a
        canonical word, read straight from the entries."""
        get = self.entries.get
        return {last: val for last in range(self.space.dim)
                if (val := get((word, last))) is not None}

    def _expand(self, coeffs, term_at) -> Vector:
        out = [0] * self.target.dim
        for j, coeff in enumerate(coeffs):
            if coeff:
                for k, x in enumerate(term_at(j)):
                    if x:
                        out[k] += coeff * x
        return tuple(out)

    def eval_insert(self, first: Vector, rest, last=None) -> Vector:
        """Evaluate with a vector of V in the first slot, expanded linearly."""
        rest = tuple(rest)
        return self._expand(first, lambda j: self.eval((j,) + rest, last))

    def _insert_into(self, out: list, coeff: int, first: Vector, rest) -> None:
        """Add coeff times :meth:`eval_insert` on a canonical ``rest`` into
        ``out``, for a map without a free slot: each letter is placed into
        ``rest`` by :func:`koszul_inserted`, not sorted with it."""
        deg = self.space.degrees
        get = self.entries.get
        for j, cj in enumerate(first):
            if not cj:
                continue
            word, negate = koszul_inserted(deg, j, rest)
            val = get(word)  # None too where the word vanishes
            if val is None:
                continue
            c = -coeff * cj if negate else coeff * cj
            for k, x in enumerate(val):
                if x:
                    out[k] += c * x

    def is_zero(self) -> bool:
        return not self.entries

    def integral(self, den: int):
        """The map times den, with int values; den must clear every value."""
        return self._like({k: as_integers(v, den) for k, v in self.entries.items()})

    def cleared(self):
        """(den, the map times den with int values), den the least common
        denominator, computed once per map.  A kernel run on the int map
        computes den times the result, since every kernel is linear in each
        map."""
        if self._image is None:
            den = common_denominator(x for v in self.entries.values() for x in v)
            self._image = den, self.integral(den)
        return self._image

    def scale(self, c):
        c = fr(c)
        return self._like({k: tuple(c * x for x in v) for k, v in self.entries.items()})

    def __neg__(self):
        return self.scale(-1)

    def _shape(self):
        return self.space, self.target, self.weight, self.degree, self.free

    def _binary(self, other, op):
        if self._shape() != other._shape():
            raise ShapeMismatchError("maps live on different spaces, weights or degrees")
        keys = set(self.entries) | set(other.entries)
        # an int zero keeps a sum of int images int, and a Fraction map Fraction
        zero = (0,) * self.target.dim
        return self._like(
            {k: op(self.entries.get(k, zero), other.entries.get(k, zero)) for k in keys})

    def __add__(self, other):
        return self._binary(other, vec_add)

    def __sub__(self, other):
        return self._binary(other, vec_sub)

    def __eq__(self, other):
        return (isinstance(other, SparseMap) and self._shape() == other._shape()
                and self.entries == other.entries)

    def __repr__(self):
        return (f"{type(self).__name__}(weight={self.weight}, degree={self.degree}, "
                f"entries={len(self.entries)})")


@lru_cache(maxsize=256)
def _empty_member(cls, space, target, weight, degree):
    """One shared zero map per shape; maps are never mutated in place."""
    return cls._on(space, target, weight, degree, {})


class SparseFamily:
    """A degree-n family of maps, one ``member`` map per weight.  Like a
    map, a family is never changed after construction and stores its int
    image the first time :meth:`cleared` is asked for it."""

    __slots__ = ("space", "target", "degree", "components", "_image")
    member = SparseMap

    def __init__(self, space, target, degree, components=None):
        self.space = space
        self.target = target
        self.degree = int(degree)
        comps = {}
        for w, comp in (components or {}).items():
            if comp.is_zero():
                continue
            if (comp.space, comp.target, comp.degree, comp.weight) != (
                    space, target, self.degree, w):
                raise ShapeMismatchError("component space, degree or weight mismatch")
            comps[int(w)] = comp
        self.components = comps
        self._image = None

    @classmethod
    def of(cls, m: SparseMap):
        """The one-weight family of a map, as a kernel on families reads it."""
        return cls(m.space, m.target, m.degree, {m.weight: m})

    def _like(self, components):
        new = copy.copy(self)
        new.components = {w: c for w, c in components.items() if not c.is_zero()}
        new._image = None  # the copy carries this family's image, not its own
        return new

    def component(self, w: int):
        got = self.components.get(w)
        if got is None:
            return _empty_member(self.member, self.space, self.target, w, self.degree)
        return got

    def weights(self):
        return sorted(self.components)

    @property
    def max_weight(self) -> int:
        return max(self.components, default=-1)

    def is_zero(self) -> bool:
        return not self.components

    def cleared(self):
        """(den, the family times den with int values), den the least common
        denominator of all its components, computed once per family."""
        if self._image is None:
            den = common_denominator(x for c in self.components.values()
                                     for v in c.entries.values() for x in v)
            self._image = den, self._like(
                {w: c.integral(den) for w, c in self.components.items()})
        return self._image

    def scale(self, c):
        return self._like({w: comp.scale(c) for w, comp in self.components.items()})

    def _shape(self):
        return self.space, self.target, self.degree, self.member.free

    def __add__(self, other):
        if self._shape() != other._shape():
            raise ShapeMismatchError("families live on different spaces or degrees")
        weights = set(self.components) | set(other.components)
        return self._like({w: self.component(w) + other.component(w) for w in weights})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return (isinstance(other, SparseFamily) and self._shape() == other._shape()
                and self.components == other.components)

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree}, weights={self.weights()})"


@dataclass(frozen=True)
class SGLA(Clearable):
    """Graded space with a degree-1 graded-symmetric bracket.

    ``b[i][j][k]`` is the coefficient of e_k in [e_i, e_j]; validity (degree
    homogeneity, graded symmetry, graded Leibniz) is checked explicitly by
    :func:`check_sgla`, never at construction.
    """

    space: GradedVectorSpace
    b: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _constants = "b"

    @property
    def dim(self) -> int:
        return self.space.dim

    bracket = bilinear


def sgla(space: GradedVectorSpace, brackets) -> SGLA:
    """Build an SGLA from sparse data ``{(i, j): {k: coeff}}``.

    Pairs whose mirror is unlisted get the graded-symmetric completion
    b[j][i][k] = (-1)^(deg_i deg_j) b[i][j][k]
    (:func:`linalg.table_from_pairs`); explicit mirrors are taken verbatim so
    broken inputs remain expressible.
    """
    return SGLA(space, table_from_pairs(space.dim, brackets, space.degrees))


def from_lie(alg) -> SGLA:
    """Embed an ungraded Lie algebra with all basis elements in degree -1."""
    return SGLA(concentrated(alg.basis, -1), alg.c)


def _table_dim(g: SGLA) -> int:
    """The dimension of an SGLA whose table has one n x n plane per basis vector."""
    return require_table(g.dim, g.b, "bracket constants do not match the basis")


def check_sgla(g: SGLA) -> Report:
    """Verify degree homogeneity, graded symmetry and the graded Leibniz rule.

    Degree bookkeeping is flagged before the identities: a bracket of degree
    1 requires deg e_k = deg e_i + deg e_j + 1 whenever b[i][j][k] is nonzero.
    The Leibniz rule on basis triples reads

        [x, [y, z]] = (-1)^(x+1) [[x, y], z] + (-1)^((x+1)(y+1)) [y, [x, z]]

    with exponents the degrees of the named elements, on the int image of the
    constants (den times them).
    """
    n = _table_dim(g)
    require_cells("check-sgla", 2 * n ** 3 + n ** 4)
    deg = g.space.degrees
    den, b = g.cleared()
    b = b.b
    degree_w = cell_witness(CellWalk(
        den, n, 3, lambda i, j, k: (b[i][j][k] if deg[k] != deg[i] + deg[j] + 1 else 0,)))
    sym_w = None if degree_w else cell_witness(CellWalk(
        den, n, 3, lambda i, j, k: (b[i][j][k] - parity_sign(deg[i] * deg[j]) * b[j][i][k],)))
    cols = tuple(zip(*b))  # cols[k][m] is [e_m, e_k]

    def leibniz(i, j, k):
        return signed_sum(n, ((1, b[j][k], b[i]), (-parity_sign(deg[i] + 1), b[i][j], cols[k]),
                              (-parity_sign((deg[i] + 1) * (deg[j] + 1)), b[i][k], b[j])))

    leib_w = None if degree_w or sym_w else cell_witness(
        CellWalk(den * den, n, 3, leibniz), g.space.basis)
    ok = degree_w is None and sym_w is None and leib_w is None
    # parts skipped after an earlier failure report None, not a verdict
    return Report(
        "check-sgla",
        ok,
        witness=degree_w or sym_w or leib_w,
        details={
            "degree_ok": degree_w is None,
            "symmetry_ok": None if degree_w is not None else sym_w is None,
            "leibniz_ok": (None if (degree_w is not None or sym_w is not None)
                           else leib_w is None),
        },
    )


def matrix_is_homogeneous(m: Matrix, out_space: GradedVectorSpace,
                          in_space: GradedVectorSpace, degree: int) -> bool:
    """Whether the matrix maps degree d to degree d + degree only."""
    for r in range(out_space.dim):
        for s in range(in_space.dim):
            if m[r][s] and out_space.degrees[r] != in_space.degrees[s] + degree:
                return False
    return True


def check_sdgla(g: SGLA, d: Matrix) -> Report:
    """Verify d^2 = 0 and d[x, y] = -[dx, y] - (-1)^x [x, dy] on basis pairs.

    The differential must be a homogeneous degree-1 matrix on the underlying
    space; an inhomogeneous d is a shape error, not a failed check.  Both
    parts run on d cleared by its own dd and the bracket by its own db.
    """
    n = _table_dim(g)
    if len(d) != n or any(len(row) != n for row in d):
        raise ShapeMismatchError("differential must be square of the algebra dimension")
    if not matrix_is_homogeneous(d, g.space, g.space, 1):
        raise ShapeMismatchError("differential must be homogeneous of degree 1")
    require_cells("check-sdgla", n ** 2 + n ** 3)
    deg = g.space.degrees
    names = g.space.basis
    dd = common_denominator(x for row in d for x in row)
    dcols = tuple(zip(*as_integers(d, dd)))  # dcols[l] is d e_l
    witness = cell_witness(
        CellWalk(dd * dd, n, 1, lambda j: signed_sum(n, ((1, dcols[j], dcols),))), names)
    if witness:
        return Report("check-sdgla", False, witness={**witness, "part": "square"},
                      details={"square_ok": False, "compatibility_ok": None})
    db, b = g.cleared()
    b = b.b
    cols = tuple(zip(*b))  # cols[j][m] is [e_m, e_j]
    witness = cell_witness(CellWalk(
        dd * db, n, 2,
        lambda i, j: signed_sum(n, ((1, b[i][j], dcols), (1, dcols[i], cols[j]),
                                    (parity_sign(deg[i]), dcols[j], b[i])))), names)
    if witness:
        return Report("check-sdgla", False, witness={**witness, "part": "compatibility"},
                      details={"square_ok": True, "compatibility_ok": False})
    return Report("check-sdgla", True,
                  details={"square_ok": True, "compatibility_ok": True})


@dataclass(frozen=True)
class GradedRepresentation(Action):
    """Degree-1 action of an SGLA on a graded space V.

    ``matrices[i]`` is rho(e_i), a matrix on V raising degrees by deg(e_i)+1.
    """

    space: GradedVectorSpace
    matrices: tuple[Matrix, ...]

    @property
    def space_dim(self) -> int:
        return self.space.dim

    act_basis = act_basis


def check_graded_rep(g: SGLA, rep: GradedRepresentation) -> Report:
    """Verify rho is a degree-1 action compatible with the bracket.

    Each rho(e_i) must be homogeneous of degree deg(e_i)+1 on V, and the
    desuspension of rho must preserve brackets:

        rho([x, y]) = (-1)^(x+1) (rho(x) rho(y) - (-1)^((x+1)(y+1)) rho(y) rho(x)),

    the bracket of gl(V) transported to its desuspension, on the int images
    of both over one den.
    """
    n = _table_dim(g)
    d = require_action(n, rep)
    require_cells("check-graded-rep", n * n * d * d)
    deg = g.space.degrees
    for i in range(n):
        if not matrix_is_homogeneous(rep.matrices[i], rep.space, rep.space, deg[i] + 1):
            return Report("check-graded-rep", False,
                          witness={"at": [i + 1], "part": "degree"},
                          details={"degree_ok": False, "homomorphism_ok": None})
    den, g, rep = cleared_pair(g, rep)
    b, ms = g.b, rep.matrices
    rows = tuple(zip(*ms))  # rows[r][k] is row r of rho(e_k)

    def homomorphism(i, j):
        s = parity_sign(deg[i] + 1)
        s2 = s * parity_sign((deg[i] + 1) * (deg[j] + 1))
        return tuple(x for r in range(d)
                     for x in signed_sum(d, ((1, b[i][j], rows[r]), (-s, ms[i][r], ms[j]),
                                             (s2, ms[j][r], ms[i]))))

    witness = cell_witness(CellWalk(den * den, n, 2, homomorphism), side=d)
    if witness:
        return Report("check-graded-rep", False, witness={**witness, "part": "homomorphism"},
                      details={"degree_ok": True, "homomorphism_ok": False})
    return Report("check-graded-rep", True,
                  details={"degree_ok": True, "homomorphism_ok": True})


def adjoint_graded(g: SGLA) -> GradedRepresentation:
    """Adjoint action ad(x) y = [x, y]; a representation for every valid SGLA."""
    return GradedRepresentation(g.space, adjoint_matrices(g.b))


def from_representation(rep) -> GradedRepresentation:
    """Embed an ungraded representation with the module in degree -1."""
    return GradedRepresentation(concentrated(rep.basis, -1), rep.matrices)
