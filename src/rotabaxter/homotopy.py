"""Truncated graded-symmetric multilinear calculus on a graded module.

Hom(S(V), g) carries a graded bracket whose degree-0 Maurer-Cartan elements
T = sum T_i are the homotopy relative Rota-Baxter operators; composing with
a degree-1 action and shifting turns them into the operations of a pre-Lie
homotopy algebra on V.  Everything is truncated at a configurable weight
p_max and exact, so the infinite sums of the theory are finitely supported
in every concrete check.

Conventions pinned by tests:
  * Weight-p components of a degree-n map store values on canonical words
    (weakly increasing index sequences with no odd-degree index repeated);
    values are homogeneous of degree (word degree) + n.
  * The generalized Rota-Baxter residual at weight p is oriented bracket
    side minus operator side, so the weight-0 residual is [Omega, Omega]/2
    and agrees with half the self-bracket of T in every weight.
  * The bracket on hooked families (the graded analogue of the compose of
    hooked maps) carries the same global normalization as the ungraded one;
    see prelie.COMPOSE_NORMALIZATION.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .combinatorics import koszul_sign, parity_sign, unshuffles
from .errors import (
    BoundError,
    NotMaurerCartanError,
    SearchSpaceError,
    ShapeMismatchError,
    TruncationExceededError,
)
from .graded import (
    SGLA,
    GradedRepresentation,
    GradedVectorSpace,
    SparseFamily,
    SparseMap,
    adjoint_graded,
)
from .linalg import Vector, ZERO, fr, vec_add, vec_is_zero, vec_scale, vec_sub
from .prelie import COMPOSE_NORMALIZATION
from .reports import Report, named_residual

DEFAULT_P_MAX = 4


def _require_bound(value: int, least: int, name: str) -> None:
    """Reject a bound below the first weight or order a check must cover."""
    if value < least:
        raise BoundError(f"{name} must be at least {least}, got {value}")


def word_degree(space: GradedVectorSpace, word) -> int:
    return sum(space.degrees[i] for i in word)


def canonical_words(space: GradedVectorSpace, weight: int):
    """Weakly increasing index words with no odd-degree index repeated."""
    for word in itertools.combinations_with_replacement(range(space.dim), weight):
        if any(a == b and space.degrees[a] % 2
               for a, b in zip(word, word[1:])):
            continue
        yield word


class GradedSymMap(SparseMap):
    """Weight-w graded-symmetric map from S^w(V) into a graded target.

    Stored on canonical words; every stored value must be homogeneous of
    degree (word degree) + (map degree).  Evaluation on an arbitrary index
    tuple is the Koszul-signed symmetric extension.
    """

    __slots__ = ()
    # bound in this class's own dict, where the benchmark's tracer looks for it
    eval = SparseMap.eval


class GradedSymFamily(SparseFamily):
    """A degree-n element of Hom(S(V), g): one GradedSymMap per weight."""

    __slots__ = ()
    member = GradedSymMap


class HomotopyOperator(GradedSymFamily):
    """Degree-0 family T = T_0 + T_1 + ... truncated at a fixed weight.

    T_0 is a single element of g in degree 0; components beyond the
    truncation are zero.
    """

    __slots__ = ("truncation",)

    def __init__(self, space, target, components=None, truncation=None):
        components = dict(components or {})
        if truncation is None:
            truncation = max(components, default=0)
        components = {w: c for w, c in components.items() if w <= truncation}
        super().__init__(space, target, 0, components)
        self.truncation = int(truncation)

    def omega(self) -> Vector:
        return self.component(0).eval(())

    def _like(self, components):
        fam = super()._like(components)
        fam.truncation = max(self.truncation, fam.max_weight)
        return fam


def bracket_on_word(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                    rep: GradedRepresentation, word) -> Vector:
    """The graded bracket of f and g evaluated on an explicit argument word.

    Three sums over unshuffles: g inserted into f through the action, f
    inserted into g with the factor (-1)^((m+1)(n+1)), and the bracket of
    values with the per-term factor -(-1)^(n(sum of f-block degrees)+m+1),
    where m, n are the degrees of f and g.
    """
    space = f.space
    degs = tuple(space.degrees[i] for i in word)
    p = len(word)
    m, n = f.degree, g.degree
    dim_g = alg.dim
    out = [ZERO] * dim_g
    # g inserted into an argument slot of f
    for l in range(p):
        gl = g.component(l)
        fk = f.component(p - l)
        if gl.is_zero() or fk.is_zero():
            continue
        for s in unshuffles((l, 1, p - l - 1)):
            eps = koszul_sign(s, degs)
            gval = gl.eval(tuple(word[s[t]] for t in range(l)))
            if vec_is_zero(gval):
                continue
            inserted = rep.act_basis(gval, word[s[l]])
            if vec_is_zero(inserted):
                continue
            term = fk.eval_insert(inserted, tuple(word[s[t]] for t in range(l + 1, p)))
            for k in range(dim_g):
                if term[k]:
                    out[k] -= eps * term[k]
    # f inserted into an argument slot of g
    s2 = parity_sign((m + 1) * (n + 1))
    for a in range(p):
        fa = f.component(a)
        gl = g.component(p - a)
        if fa.is_zero() or gl.is_zero():
            continue
        for s in unshuffles((a, 1, p - a - 1)):
            eps = koszul_sign(s, degs)
            fval = fa.eval(tuple(word[s[t]] for t in range(a)))
            if vec_is_zero(fval):
                continue
            inserted = rep.act_basis(fval, word[s[a]])
            if vec_is_zero(inserted):
                continue
            term = gl.eval_insert(inserted, tuple(word[s[t]] for t in range(a + 1, p)))
            for k in range(dim_g):
                if term[k]:
                    out[k] += s2 * eps * term[k]
    # bracket of values
    for a in range(p + 1):
        fa = f.component(a)
        gb = g.component(p - a)
        if fa.is_zero() or gb.is_zero():
            continue
        for s in unshuffles((a, p - a)):
            eps = koszul_sign(s, degs)
            x = fa.eval(tuple(word[s[t]] for t in range(a)))
            if vec_is_zero(x):
                continue
            y = gb.eval(tuple(word[s[t]] for t in range(a, p)))
            if vec_is_zero(y):
                continue
            d1 = sum(degs[s[t]] for t in range(a))
            factor = -parity_sign(n * d1 + m + 1) * eps
            br = alg.bracket(x, y)
            for k in range(dim_g):
                if br[k]:
                    out[k] += factor * br[k]
    return tuple(out)


def graded_bracket(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                   rep: GradedRepresentation, p_max: int = DEFAULT_P_MAX) -> GradedSymFamily:
    """Degree-1 graded bracket on Hom(S(V), g), computed up to weight p_max."""
    _require_bound(p_max, 0, "p_max")
    if f.space != rep.space or g.space != rep.space:
        raise ShapeMismatchError("families do not live on the module of the action")
    if f.target != alg.space or g.target != alg.space:
        raise ShapeMismatchError("families do not take values in the algebra")
    degree = f.degree + g.degree + 1
    comps = {}
    for p in range(p_max + 1):
        entries = {}
        for word in canonical_words(rep.space, p):
            val = bracket_on_word(f, g, alg, rep, word)
            if not vec_is_zero(val):
                entries[word] = val
        if entries:
            comps[p] = GradedSymMap(rep.space, alg.space, p, degree, entries)
    return GradedSymFamily(rep.space, alg.space, degree, comps)


def shifted_bracket(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                    rep: GradedRepresentation, p_max: int = DEFAULT_P_MAX) -> GradedSymFamily:
    """The bracket transported through the degree shift: (-1)^deg(f) [[f, g]].

    With this standard shift sign the bracket is a degree-1 operation that is
    graded symmetric, [f, g] = (-1)^(mn) [g, f], and satisfies the graded
    Leibniz rule

        [f, [g, h]] = (-1)^(m+1) [[f, g], h] + (-1)^((m+1)(n+1)) [g, [f, h]]

    with m, n the degrees of f and g; equivalently, the unshifted bracket is
    a graded Lie bracket once every degree is raised by one.
    """
    return graded_bracket(f, g, alg, rep, p_max).scale(parity_sign(f.degree))


def residual_on_word(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                     word) -> Vector:
    """Generalized Rota-Baxter residual on an explicit word, bracket side
    minus operator side; at weight 0 this is [Omega, Omega]/2."""
    space = t.space
    degs = tuple(space.degrees[i] for i in word)
    p = len(word)
    dim_g = alg.dim
    lhs = [ZERO] * dim_g
    for l in range(p):
        tl = t.component(l)
        tk = t.component(p - l)
        if tl.is_zero() or tk.is_zero():
            continue
        for s in unshuffles((l, 1, p - l - 1)):
            eps = koszul_sign(s, degs)
            tval = tl.eval(tuple(word[s[i]] for i in range(l)))
            if vec_is_zero(tval):
                continue
            inserted = rep.act_basis(tval, word[s[l]])
            if vec_is_zero(inserted):
                continue
            term = tk.eval_insert(inserted, tuple(word[s[i]] for i in range(l + 1, p)))
            for k in range(dim_g):
                if term[k]:
                    lhs[k] += eps * term[k]
    rhs = [ZERO] * dim_g
    for a in range(p + 1):
        ta = t.component(a)
        tb = t.component(p - a)
        if ta.is_zero() or tb.is_zero():
            continue
        for s in unshuffles((a, p - a)):
            eps = koszul_sign(s, degs)
            x = ta.eval(tuple(word[s[i]] for i in range(a)))
            if vec_is_zero(x):
                continue
            y = tb.eval(tuple(word[s[i]] for i in range(a, p)))
            if vec_is_zero(y):
                continue
            br = alg.bracket(x, y)
            for k in range(dim_g):
                if br[k]:
                    rhs[k] += eps * br[k]
    half = Fraction(1, 2)
    return tuple(half * r - l for r, l in zip(rhs, lhs))


def homotopy_oop_residual(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                          p_max: int = DEFAULT_P_MAX) -> dict[int, GradedSymMap]:
    """Per-weight defect of the generalized Rota-Baxter identities.

    T is a homotopy O-operator to order p_max exactly when every returned
    map is zero.  Implemented directly from the identities, independently of
    :func:`graded_bracket`.
    """
    _require_bound(p_max, 0, "p_max")
    if t.degree != 0:
        raise ShapeMismatchError("homotopy operators are degree-0 families")
    out = {}
    for p in range(p_max + 1):
        entries = {}
        for word in canonical_words(rep.space, p):
            val = residual_on_word(t, alg, rep, word)
            if not vec_is_zero(val):
                entries[word] = val
        out[p] = GradedSymMap(rep.space, alg.space, p, 1, entries)
    return out


def is_homotopy_oop(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                    p_max: int = DEFAULT_P_MAX) -> bool:
    """Early-exit version of the residual check."""
    _require_bound(p_max, 0, "p_max")
    if t.degree != 0:
        raise ShapeMismatchError("homotopy operators are degree-0 families")
    for p in range(p_max + 1):
        for word in canonical_words(rep.space, p):
            if not vec_is_zero(residual_on_word(t, alg, rep, word)):
                return False
    return True


def mc_check_homotopy(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                      p_max: int = DEFAULT_P_MAX) -> bool:
    """Whether half the self-bracket of T vanishes up to weight p_max.

    Must agree with ``homotopy_oop_residual == 0`` on every instance; the
    two sides are computed independently.
    """
    return graded_bracket(t, t, alg, rep, p_max).is_zero()


def is_homotopy_rbo(t: GradedSymFamily, alg: SGLA, p_max: int = DEFAULT_P_MAX) -> bool:
    """Homotopy Rota-Baxter check: the residual with the adjoint action."""
    return is_homotopy_oop(t, alg, adjoint_graded(alg), p_max)


def expand_low_identities(t: HomotopyOperator, alg: SGLA, rep: GradedRepresentation):
    """Hand-expanded generalized Rota-Baxter residuals at weights 0, 1, 2.

    Independent of the unshuffle machinery; each returned map is oriented to
    coincide with the corresponding output of :func:`homotopy_oop_residual`:

        weight 0:  [Omega, Omega]/2
        weight 1:  [Omega, T_1 v] - T_1(rho(Omega) v)
        weight 2:  [T_1 v_1, T_1 v_2]
                   - T_1(rho(T_1 v_1) v_2) - (-1)^(v_1 v_2) T_1(rho(T_1 v_2) v_1)
                   - T_2(rho(Omega) v_1, v_2) - (-1)^(v_1 v_2) T_2(rho(Omega) v_2, v_1)
                   + [Omega, T_2(v_1, v_2)]
    """
    if t.truncation < 2:
        raise TruncationExceededError("the low-order expansion needs components up to weight 2")
    space, target = t.space, t.target
    omega = t.omega()
    t1 = t.component(1)
    t2 = t.component(2)
    half = Fraction(1, 2)
    r0_val = vec_scale(half, alg.bracket(omega, omega))
    r0 = GradedSymMap(space, target, 0, 1,
                      {(): r0_val} if not vec_is_zero(r0_val) else {})
    entries1 = {}
    for (j,) in canonical_words(space, 1):
        val = vec_sub(alg.bracket(omega, t1.eval((j,))),
                      t1.eval_insert(rep.act_basis(omega, j), ()))
        if not vec_is_zero(val):
            entries1[(j,)] = val
    r1 = GradedSymMap(space, target, 1, 1, entries1)
    entries2 = {}
    for (i, j) in canonical_words(space, 2):
        sgn = parity_sign(space.degrees[i] * space.degrees[j])
        val = alg.bracket(t1.eval((i,)), t1.eval((j,)))
        val = vec_sub(val, t1.eval_insert(rep.act_basis(t1.eval((i,)), j), ()))
        val = vec_sub(val, vec_scale(sgn, t1.eval_insert(rep.act_basis(t1.eval((j,)), i), ())))
        val = vec_sub(val, t2.eval_insert(rep.act_basis(omega, i), (j,)))
        val = vec_sub(val, vec_scale(sgn, t2.eval_insert(rep.act_basis(omega, j), (i,))))
        val = vec_add(val, alg.bracket(omega, t2.eval((i, j))))
        if not vec_is_zero(val):
            entries2[(i, j)] = val
    r2 = GradedSymMap(space, target, 2, 1, entries2)
    return r0, r1, r2


class GradedHookedMap(SparseMap):
    """Weight-w graded map from S^w(V) (x) V to V: graded symmetric in the
    first w slots, free in the final slot.  The degree is the total map
    degree, so values are homogeneous of degree
    (word degree) + (degree of the free argument) + degree."""

    __slots__ = ()
    free = True

    def __init__(self, space: GradedVectorSpace, weight: int, degree: int, entries=None):
        super().__init__(space, space, weight, degree, entries)


class GradedHookFamily(SparseFamily):
    """A degree-n family of graded hooked maps, one per weight."""

    __slots__ = ()
    member = GradedHookedMap

    def __init__(self, space, degree, components=None):
        super().__init__(space, space, degree, components)


def psi(f: GradedSymFamily, rep: GradedRepresentation) -> GradedHookFamily:
    """Hooked family (v_1..v_w, w) |-> rho(f_w(v_1..v_w)) w; degree rises by 1."""
    if f.space != rep.space:
        raise ShapeMismatchError("family and action live on different modules")
    comps = {}
    for w, comp in f.components.items():
        entries = {}
        for word, gval in comp.entries.items():
            mat = rep.rho(gval)
            for j in range(rep.space_dim):
                col = tuple(mat[r][j] for r in range(rep.space_dim))
                if any(col):
                    entries[(word, j)] = col
        if entries:
            comps[w] = GradedHookedMap(rep.space, w, f.degree + 1, entries)
    return GradedHookFamily(rep.space, f.degree + 1, comps)


def hook_compose_on_word(a: GradedHookFamily, b: GradedHookFamily, word, last) -> Vector:
    """The hooked-family compose on explicit arguments (word; last).

    Two sums: b lands in a symmetric slot of a (absorbing the unshuffle
    singleton into its own free slot), or in the free slot of a with the
    per-term factor (-1)^(deg(b) * sum of a-block degrees); the final
    argument never permutes.  Globally scaled by COMPOSE_NORMALIZATION.
    """
    space = a.space
    degs = tuple(space.degrees[i] for i in word)
    p = len(word)
    nbar = b.degree
    out = [ZERO] * space.dim
    for wb in range(p):
        bb = b.component(wb)
        aa = a.component(p - wb)
        if bb.is_zero() or aa.is_zero():
            continue
        for s in unshuffles((wb, 1, p - wb - 1)):
            eps = koszul_sign(s, degs)
            inner = bb.eval(tuple(word[s[t]] for t in range(wb)), word[s[wb]])
            if vec_is_zero(inner):
                continue
            term = aa.eval_insert(inner, tuple(word[s[t]] for t in range(wb + 1, p)), last)
            for k in range(space.dim):
                if term[k]:
                    out[k] += eps * term[k]
    for wa in range(p + 1):
        aa = a.component(wa)
        bb = b.component(p - wa)
        if aa.is_zero() or bb.is_zero():
            continue
        for s in unshuffles((wa, p - wa)):
            eps = koszul_sign(s, degs)
            inner = bb.eval(tuple(word[s[t]] for t in range(wa, p)), last)
            if vec_is_zero(inner):
                continue
            d1 = sum(degs[s[t]] for t in range(wa))
            factor = parity_sign(nbar * d1) * eps
            term = aa.eval_last_insert(tuple(word[s[t]] for t in range(wa)), inner)
            for k in range(space.dim):
                if term[k]:
                    out[k] += factor * term[k]
    return vec_scale(COMPOSE_NORMALIZATION, tuple(out))


def hook_compose(a: GradedHookFamily, b: GradedHookFamily,
                 p_max: int = DEFAULT_P_MAX) -> GradedHookFamily:
    _require_bound(p_max, 0, "p_max")
    if a.space != b.space:
        raise ShapeMismatchError("families live on different spaces")
    degree = a.degree + b.degree
    comps = {}
    for p in range(p_max + 1):
        entries = {}
        for word in canonical_words(a.space, p):
            for last in range(a.space.dim):
                val = hook_compose_on_word(a, b, word, last)
                if not vec_is_zero(val):
                    entries[(word, last)] = val
        if entries:
            comps[p] = GradedHookedMap(a.space, p, degree, entries)
    return GradedHookFamily(a.space, degree, comps)


def hook_bracket(a: GradedHookFamily, b: GradedHookFamily,
                 p_max: int = DEFAULT_P_MAX) -> GradedHookFamily:
    """Graded Lie bracket a o b - (-1)^(deg a deg b) b o a on hooked families."""
    s = parity_sign(a.degree * b.degree)
    return hook_compose(a, b, p_max) - hook_compose(b, a, p_max).scale(s)


def check_psi_homomorphism(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                           rep: GradedRepresentation, p_max: int = DEFAULT_P_MAX) -> bool:
    """Exact equality of psi([[f, g]]) and [psi(f), psi(g)] up to weight p_max."""
    lhs = psi(graded_bracket(f, g, alg, rep, p_max), rep)
    rhs = hook_bracket(psi(f, rep), psi(g, rep), p_max)
    return lhs == rhs


class PreLieInfinity(GradedHookFamily):
    """Family of degree-1 operations m_k on a graded space, each graded
    symmetric in its first k-1 arguments: m_k is the weight-(k-1) hooked map
    of a degree-1 hooked family, for 1 <= k <= truncation."""

    __slots__ = ("truncation",)

    def __init__(self, space: GradedVectorSpace, truncation: int, ops=None):
        self.truncation = int(truncation)
        ops = {int(k): op for k, op in (ops or {}).items()}
        for k in ops:
            if not 1 <= k <= self.truncation:
                raise ShapeMismatchError(f"operation index {k} outside 1..{self.truncation}")
        super().__init__(space, 1, {k - 1: op for k, op in ops.items()})

    @property
    def ops(self) -> dict:
        """The nonzero operations m_k, keyed by their arity k."""
        return {w + 1: op for w, op in self.components.items()}

    def op(self, k: int) -> GradedHookedMap:
        return self.component(k - 1)


def prelie_infinity_residual(p: PreLieInfinity, word, last) -> Vector:
    """Coherence residual of the operations m_k on (word; last).

    Two double sums over i + j = n + 1: m_i feeding an argument slot of m_j
    (over (i-1,1,j-2)-unshuffles), and m_i feeding the last slot of m_j
    (over (j-1,i-1)-unshuffles, with the sign (-1) to the summed degrees of
    the m_j-block); the final argument is never permuted.
    """
    space = p.space
    degs = tuple(space.degrees[i] for i in word)
    n = len(word) + 1
    out = [ZERO] * space.dim
    for i in range(1, n):
        j = n + 1 - i  # j >= 2 here, so m_j has at least one symmetric slot
        mi = p.op(i)
        mj = p.op(j)
        if mi.is_zero() or mj.is_zero():
            continue
        for s in unshuffles((i - 1, 1, j - 2)):
            eps = koszul_sign(s, degs)
            inner = mi.eval(tuple(word[s[t]] for t in range(i - 1)), word[s[i - 1]])
            if vec_is_zero(inner):
                continue
            term = mj.eval_insert(inner, tuple(word[s[t]] for t in range(i, n - 1)), last)
            for k in range(space.dim):
                if term[k]:
                    out[k] += eps * term[k]
    for j in range(1, n + 1):
        i = n + 1 - j
        mi = p.op(i)
        mj = p.op(j)
        if mi.is_zero() or mj.is_zero():
            continue
        for s in unshuffles((j - 1, i - 1)):
            eps = koszul_sign(s, degs)
            inner = mi.eval(tuple(word[s[t]] for t in range(j - 1, n - 1)), last)
            if vec_is_zero(inner):
                continue
            alpha = sum(degs[s[t]] for t in range(j - 1))
            term = mj.eval_last_insert(tuple(word[s[t]] for t in range(j - 1)), inner)
            factor = parity_sign(alpha) * eps
            for k in range(space.dim):
                if term[k]:
                    out[k] += factor * term[k]
    return tuple(out)


def check_prelie_infinity(p: PreLieInfinity, n_max: int = DEFAULT_P_MAX,
                          rng=None) -> Report:
    """Verify the coherence identities for 1 <= n <= n_max on all argument
    tuples.  Graded symmetry in the first k-1 slots holds by construction:
    operations are stored on canonical words and evaluated with the Koszul
    sign.  ``rng`` is accepted and ignored, so the verdict depends on no
    random draw."""
    _require_bound(n_max, 1, "n_max")
    space = p.space
    for n in range(1, n_max + 1):
        for word in itertools.product(range(space.dim), repeat=n - 1):
            for last in range(space.dim):
                res = prelie_infinity_residual(p, word, last)
                if not vec_is_zero(res):
                    return Report(
                        "check-prelie-inf", False, order=n_max,
                        witness={"part": "coherence", "n": n,
                                 "at": [i + 1 for i in word] + [last + 1],
                                 "residual": named_residual(res, space.basis)},
                    )
    return Report("check-prelie-inf", True, order=n_max)


def induce_prelie_infinity(t: HomotopyOperator, alg: SGLA, rep: GradedRepresentation,
                           p_max: int = DEFAULT_P_MAX, force: bool = False) -> PreLieInfinity:
    """Operations m_k(v_1..v_k) = rho(T_{k-1}(v_1..v_{k-1})) v_k of a verified
    homotopy O-operator; a pre-Lie homotopy structure on V."""
    _require_bound(p_max, 0, "p_max")
    if not force and not is_homotopy_oop(t, alg, rep, p_max):
        raise NotMaurerCartanError(
            "operator fails the homotopy O-operator identities; pass force=True to build anyway"
        )
    hooks = psi(t, rep)
    ops = {w + 1: comp for w, comp in hooks.components.items()}
    return PreLieInfinity(rep.space, t.truncation + 1, ops)


def search_homotopy_operators(alg: SGLA, rep: GradedRepresentation, grid,
                              max_weight: int = 2, p_max: int = DEFAULT_P_MAX,
                              cap: int = 200_000) -> list[HomotopyOperator]:
    """Exhaustive grid search for homotopy O-operators of bounded weight.

    Enumerates every assignment of grid values to the degree-admissible
    (word, target) slots of T_0..T_max_weight and keeps the assignments whose
    residuals vanish to order p_max.
    """
    _require_bound(p_max, 0, "p_max")
    grid = tuple(fr(x) for x in grid)
    if not grid:
        raise ValueError("search grid must be nonempty")
    space, target = rep.space, alg.space
    slots = []
    for w in range(max_weight + 1):
        for word in canonical_words(space, w):
            want = word_degree(space, word)
            for k in range(target.dim):
                if target.degrees[k] == want:
                    slots.append((w, word, k))
    total = len(grid) ** len(slots)
    if total > cap:
        raise SearchSpaceError(f"{total} candidates exceed the cap of {cap}")
    found = []
    for assignment in itertools.product(grid, repeat=len(slots)):
        entries: dict[int, dict] = {}
        for (w, word, k), val in zip(slots, assignment):
            if val:
                vec = entries.setdefault(w, {}).setdefault(word, [ZERO] * target.dim)
                vec[k] = val
        comps = {
            w: GradedSymMap(space, target, w, 0,
                            {word: tuple(vec) for word, vec in words.items()})
            for w, words in entries.items()
        }
        cand = HomotopyOperator(space, target, comps, truncation=max_weight)
        if is_homotopy_oop(cand, alg, rep, p_max):
            found.append(cand)
    return found


def random_sym_family(rng, space: GradedVectorSpace, target: GradedVectorSpace,
                      degree: int, max_weight: int, pool=None, density=0.7) -> GradedSymFamily:
    """Random homogeneous family for property tests; deterministic given rng."""
    if pool is None:
        pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]
    comps = {}
    for w in range(max_weight + 1):
        entries = {}
        for word in canonical_words(space, w):
            want = word_degree(space, word) + degree
            vec = [ZERO] * target.dim
            for k in range(target.dim):
                if target.degrees[k] == want and rng.random() < density:
                    vec[k] = rng.choice(pool)
            entries[word] = tuple(vec)
        comps[w] = GradedSymMap(space, target, w, degree, entries)
    return GradedSymFamily(space, target, degree, comps)


def random_homotopy_operator(rng, space, target, max_weight, pool=None,
                             density=0.7) -> HomotopyOperator:
    fam = random_sym_family(rng, space, target, 0, max_weight, pool, density)
    return HomotopyOperator(space, target, fam.components, truncation=max_weight)
