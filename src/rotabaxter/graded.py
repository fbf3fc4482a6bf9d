"""Z-graded vector spaces, suspension, the sparse multilinear maps and
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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache

from .combinatorics import parity_sign
from .errors import ShapeMismatchError
from .linalg import (
    Clearable,
    Matrix,
    Vector,
    ZERO,
    act_basis,
    adjoint_matrices,
    as_integers,
    basis_vector,
    bilinear,
    common_denominator,
    fr,
    mat_mul,
    mat_sub,
    mat_vec,
    rho,
    table_from_pairs,
    vec_add,
    vec_is_zero,
    vec_sub,
)
from .reports import Report, named_residual, scalar_text


@dataclass(frozen=True)
class GradedVectorSpace:
    basis: tuple[str, ...]
    degrees: tuple[int, ...]
    # Stored at construction: every kernel reads it.  A cached_property would
    # write the instance dict after construction, which in CPython 3.11 slows
    # every other attribute read on the object (degrees: 17 ns -> 92 ns).
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", len(self.basis))

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


def canonical_words(space: GradedVectorSpace, weight: int):
    """Weakly increasing index words with no odd-degree index repeated."""
    for word in itertools.combinations_with_replacement(range(space.dim), weight):
        if any(a == b and space.degrees[a] % 2
               for a, b in zip(word, word[1:])):
            continue
        yield word


def _nonzero_values(space: GradedVectorSpace, weights, on_word, free: bool = False):
    """(weight, key, value) for every canonical key of the given weights at
    which ``on_word`` is nonzero, weight by weight and in sorted key order.

    The key is the word, or (word, last) with every last argument when
    ``free`` is set; ``on_word`` takes the word (and the last argument).  A
    whole map collects what this yields; a zero test stops at the first
    value, so a PASS still evaluates every key.
    """
    for p in weights:
        for word in canonical_words(space, p):
            if free:
                for last in range(space.dim):
                    val = on_word(word, last)
                    if any(val):
                        yield p, (word, last), val
            else:
                val = on_word(word)
                if any(val):
                    yield p, word, val


def suspend(space: GradedVectorSpace, shift: int) -> GradedVectorSpace:
    """Shift all degrees by +1 (suspension) or -1 (desuspension)."""
    if shift not in (1, -1):
        raise ValueError("shift must be +1 or -1")
    return GradedVectorSpace(space.basis, tuple(d + shift for d in space.degrees))


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
    """

    __slots__ = ("space", "target", "weight", "degree", "entries")
    free = False

    def __init__(self, space: GradedVectorSpace, target: GradedVectorSpace,
                 weight: int, degree: int, entries=None):
        self.space = space
        self.target = target
        self.weight = int(weight)
        self.degree = int(degree)
        deg = space.degrees
        # a target in a single degree (every ungraded one) skips the per-value test
        uniform = target.degrees[0] if len(set(target.degrees)) == 1 else None
        clean = {}
        for key, val in (entries or {}).items():
            if self.free:
                word, last = key
                if not 0 <= last < space.dim:
                    raise ShapeMismatchError(f"free argument {last} out of range")
                word = tuple(word)
                key = (word, last)
                want = self.degree + deg[last]
            else:
                word = key = tuple(key)
                want = self.degree
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
            if len(val) != target.dim:
                raise ShapeMismatchError("value length does not match the target dimension")
            want += sum(map(deg.__getitem__, word))
            if want != uniform and any(
                    x and target.degrees[k] != want for k, x in enumerate(val)):
                raise ShapeMismatchError(f"value at {key} is not homogeneous of degree {want}")
            if any(val):
                clean[key] = val
        self.entries = clean

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
        negate = False
        if n > 1:
            deg = self.space.degrees
            odd = [a for a in args if deg[a] % 2]
            if len(set(odd)) < len(odd):
                return (ZERO,) * self.target.dim
            for i, a in enumerate(odd):
                for b in odd[i + 1:]:
                    if a > b:
                        negate = not negate
            word = tuple(sorted(args))
        else:
            word = tuple(args)
        val = self.entries.get((word, last) if self.free else word)
        if val is None:
            return (ZERO,) * self.target.dim
        return tuple(-x for x in val) if negate else val

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

    def eval_last_insert(self, args, last_vec: Vector) -> Vector:
        """Evaluate with a vector of V in the free last slot, expanded linearly."""
        args = tuple(args)
        return self._expand(last_vec, lambda j: self.eval(args, j))

    def is_zero(self) -> bool:
        return not self.entries

    def integral(self, den: int):
        """The map times den, with int values; den must clear every value."""
        return self._like({k: as_integers(v, den) for k, v in self.entries.items()})

    def cleared(self):
        """(den, the map times den with int values), den the least common
        denominator.  A kernel run on the int map computes den times the
        result, since every kernel is linear in each map."""
        den = common_denominator(x for v in self.entries.values() for x in v)
        return den, self.integral(den)

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
        zero = (ZERO,) * self.target.dim
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
    """A degree-n family of maps, one ``member`` map per weight."""

    __slots__ = ("space", "target", "degree", "components")
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

    def _like(self, components):
        new = copy.copy(self)
        new.components = {w: c for w, c in components.items() if not c.is_zero()}
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
        denominator of all its components."""
        den = common_denominator(x for c in self.components.values()
                                 for v in c.entries.values() for x in v)
        return den, self._like({w: c.integral(den) for w, c in self.components.items()})

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

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.b[i][j]

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


def check_sgla(g: SGLA) -> Report:
    """Verify degree homogeneity, graded symmetry and the graded Leibniz rule.

    Degree bookkeeping is flagged before the identities: a bracket of degree
    1 requires deg e_k = deg e_i + deg e_j + 1 whenever b[i][j][k] is nonzero.
    The Leibniz rule on basis triples reads

        [x, [y, z]] = (-1)^(x+1) [[x, y], z] + (-1)^((x+1)(y+1)) [y, [x, z]]

    with exponents the degrees of the named elements.
    """
    n = g.dim
    if len(g.b) != n or any(len(p) != n or any(len(r) != n for r in p) for p in g.b):
        raise ShapeMismatchError("bracket constants do not match the basis")
    deg = g.space.degrees
    names = g.space.basis
    degree_w = None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if g.b[i][j][k] and deg[k] != deg[i] + deg[j] + 1:
                    degree_w = {"at": [i + 1, j + 1, k + 1],
                                "residual": scalar_text(g.b[i][j][k])}
                    break
            if degree_w:
                break
        if degree_w:
            break
    sym_w = None
    if degree_w is None:
        for i in range(n):
            for j in range(n):
                s = parity_sign(deg[i] * deg[j])
                for k in range(n):
                    if g.b[i][j][k] != s * g.b[j][i][k]:
                        sym_w = {"at": [i + 1, j + 1, k + 1],
                                 "residual": scalar_text(g.b[i][j][k] - s * g.b[j][i][k])}
                        break
                if sym_w:
                    break
            if sym_w:
                break
    leib_w = None
    if degree_w is None and sym_w is None:
        for i in range(n):
            ei = basis_vector(n, i)
            for j in range(n):
                ej = basis_vector(n, j)
                for k in range(n):
                    ek = basis_vector(n, k)
                    lhs = g.bracket(ei, g.bracket(ej, ek))
                    r1 = vec_sub(lhs,
                                 tuple(parity_sign(deg[i] + 1) * x
                                       for x in g.bracket(g.bracket(ei, ej), ek)))
                    res = vec_sub(r1,
                                  tuple(parity_sign((deg[i] + 1) * (deg[j] + 1)) * x
                                        for x in g.bracket(ej, g.bracket(ei, ek))))
                    if not vec_is_zero(res):
                        leib_w = {"at": [i + 1, j + 1, k + 1],
                                  "residual": named_residual(res, names)}
                        break
                if leib_w:
                    break
            if leib_w:
                break
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
    space; an inhomogeneous d is a shape error, not a failed check.
    """
    n = g.dim
    if len(d) != n or any(len(row) != n for row in d):
        raise ShapeMismatchError("differential must be square of the algebra dimension")
    if not matrix_is_homogeneous(d, g.space, g.space, 1):
        raise ShapeMismatchError("differential must be homogeneous of degree 1")
    deg = g.space.degrees
    names = g.space.basis
    square = mat_mul(d, d)
    for j in range(n):
        col = tuple(square[r][j] for r in range(n))
        if not vec_is_zero(col):
            return Report("check-sdgla", False,
                          witness={"at": [j + 1], "residual": named_residual(col, names),
                                   "part": "square"},
                          details={"square_ok": False, "compatibility_ok": None})
    for i in range(n):
        ei = basis_vector(n, i)
        dei = mat_vec(d, ei)
        for j in range(n):
            ej = basis_vector(n, j)
            dej = mat_vec(d, ej)
            lhs = mat_vec(d, g.bracket(ei, ej))
            rhs = vec_add(
                tuple(-x for x in g.bracket(dei, ej)),
                tuple(-parity_sign(deg[i]) * x for x in g.bracket(ei, dej)),
            )
            res = vec_sub(lhs, rhs)
            if not vec_is_zero(res):
                return Report("check-sdgla", False,
                              witness={"at": [i + 1, j + 1],
                                       "residual": named_residual(res, names),
                                       "part": "compatibility"},
                              details={"square_ok": True, "compatibility_ok": False})
    return Report("check-sdgla", True,
                  details={"square_ok": True, "compatibility_ok": True})


@dataclass(frozen=True)
class GradedRepresentation(Clearable):
    """Degree-1 action of an SGLA on a graded space V.

    ``matrices[i]`` is rho(e_i), a matrix on V raising degrees by deg(e_i)+1.
    """

    space: GradedVectorSpace
    matrices: tuple[Matrix, ...]
    _constants = "matrices"

    @property
    def space_dim(self) -> int:
        return self.space.dim

    rho = rho
    act_basis = act_basis


def desuspended_gl_bracket(a: Matrix, b: Matrix, deg_a: int, deg_b: int) -> Matrix:
    """Bracket of gl(V) transported to its desuspension.

    For homogeneous matrices of gl-degrees deg_a, deg_b the formula is
    (-1)^(deg_a) (a b - (-1)^(deg_a deg_b) b a); it is graded symmetric and
    of degree 1 with respect to the shifted degrees deg - 1.
    """
    comm = mat_sub(mat_mul(a, b),
                   tuple(tuple(parity_sign(deg_a * deg_b) * x for x in row)
                         for row in mat_mul(b, a)))
    s = parity_sign(deg_a)
    return tuple(tuple(s * x for x in row) for row in comm)


def check_graded_rep(g: SGLA, rep: GradedRepresentation) -> Report:
    """Verify rho is a degree-1 action compatible with the bracket.

    Each rho(e_i) must be homogeneous of degree deg(e_i)+1 on V, and the
    desuspension of rho must preserve brackets:

        rho([x, y]) = (-1)^(x+1) (rho(x) rho(y) - (-1)^((x+1)(y+1)) rho(y) rho(x)).
    """
    n = g.dim
    if len(rep.matrices) != n:
        raise ShapeMismatchError("one action matrix per algebra basis element required")
    d = rep.space_dim
    if any(len(m) != d or any(len(row) != d for row in m) for m in rep.matrices):
        raise ShapeMismatchError("action matrices must be square of the module dimension")
    deg = g.space.degrees
    for i in range(n):
        if not matrix_is_homogeneous(rep.matrices[i], rep.space, rep.space, deg[i] + 1):
            return Report("check-graded-rep", False,
                          witness={"at": [i + 1], "part": "degree"},
                          details={"degree_ok": False, "homomorphism_ok": None})
    for i in range(n):
        for j in range(n):
            lhs = rep.rho(g.bracket_basis(i, j))
            rhs = desuspended_gl_bracket(rep.matrices[i], rep.matrices[j],
                                         deg[i] + 1, deg[j] + 1)
            res = mat_sub(lhs, rhs)
            if any(any(row) for row in res):
                return Report("check-graded-rep", False,
                              witness={"at": [i + 1, j + 1],
                                       "residual": [[scalar_text(x) for x in row] for row in res],
                                       "part": "homomorphism"},
                              details={"degree_ok": True, "homomorphism_ok": False})
    return Report("check-graded-rep", True,
                  details={"degree_ok": True, "homomorphism_ok": True})


def adjoint_graded(g: SGLA) -> GradedRepresentation:
    """Adjoint action ad(x) y = [x, y]; a representation for every valid SGLA."""
    return GradedRepresentation(g.space, adjoint_matrices(g.b))


def from_representation(rep) -> GradedRepresentation:
    """Embed an ungraded representation with the module in degree -1."""
    return GradedRepresentation(concentrated(rep.basis, -1), rep.matrices)
