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
  * The bracket on hooked families is built from the one compose kernel,
    prelie.hook_compose_lasts, which the ungraded compose of hooked maps
    runs too, with its global normalization prelie.COMPOSE_NORMALIZATION.
"""

from __future__ import annotations

import itertools

from .combinatorics import parity_sign, split_table
from .deformation import _bracket_on_canonical, _cleared_bracket_inputs, _require_matching
from .errors import (
    BoundError,
    NotMaurerCartanError,
    SearchSpaceError,
    ShapeMismatchError,
)
from .graded import (
    SGLA,
    GradedRepresentation,
    GradedVectorSpace,
    SparseFamily,
    SparseMap,
    Walk,
    _require_walk,
    canonical_words,
    koszul_sorted,
)
from .linalg import (
    Vector,
    ZERO,
    as_integers,
    cleared_pair,
    common_denominator,
    divided,
    fr,
    vec_is_zero,
)
from .prelie import (
    COMPOSE_NORMALIZATION,
    _compose_by_weight,
    _hom_residual,
    _hooked_maps,
    hook_compose_lasts,
)
from .reports import Report, named_residual

DEFAULT_P_MAX = 4


def _require_bound(value: int, least: int, name: str) -> None:
    """Reject a bound below the first weight or order a check must cover."""
    if value < least:
        raise BoundError(f"{name} must be at least {least}, got {value}")


def word_degree(space: GradedVectorSpace, word) -> int:
    return sum(space.degrees[i] for i in word)


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

    def _like(self, components):
        fam = super()._like(components)
        fam.truncation = max(self.truncation, fam.max_weight)
        return fam


def bracket_on_word(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                    rep: GradedRepresentation, word) -> Vector:
    """The graded bracket of f and g on an explicit argument word: the word
    sorted once into a canonical word, where the bracket kernel
    :func:`~rotabaxter.deformation._bracket_on_canonical` sums it, with its
    Koszul sign; a word repeating an odd-degree letter gives zero."""
    canonical, negate = koszul_sorted(f.space.degrees, word)
    if canonical is None:
        return (0,) * alg.dim
    val = _bracket_on_canonical(f, g, alg, rep, canonical)
    return tuple(-x for x in val) if negate else val


def _bracket_walk(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                  rep: GradedRepresentation, p_max: int) -> Walk:
    """The walk of [[f, g]] up to weight p_max, each value computed by
    :func:`~rotabaxter.deformation._bracket_on_canonical` on the int images:
    the walk's words are canonical already, so none is sorted."""
    _require_bound(p_max, 0, "p_max")
    dfg, ds, f, g, alg, rep = _cleared_bracket_inputs(f, g, alg, rep)
    return Walk(dfg * ds, rep.space, range(p_max + 1),
                lambda word: _bracket_on_canonical(f, g, alg, rep, word))


def graded_bracket(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                   rep: GradedRepresentation, p_max: int = DEFAULT_P_MAX) -> GradedSymFamily:
    """Degree-1 graded bracket on Hom(S(V), g), computed up to weight p_max.

    Walks the bracket kernel (see :func:`_bracket_walk`) on the int images
    of f, g and (alg, rep) and divides each value once.  The result is
    validated like any input: an unchecked structure that is not
    homogeneous can make it inhomogeneous.
    """
    degree = f.degree + g.degree + 1
    comps = {p: GradedSymMap(rep.space, alg.space, p, degree, entries)
             for p, entries in _bracket_walk(f, g, alg, rep, p_max).by_weight().items()}
    return GradedSymFamily(rep.space, alg.space, degree, comps)


def _twice_residual(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                    word) -> list:
    """Twice the generalized Rota-Baxter residual on a canonical word, the
    bracket side minus twice the operator side, undivided: ints on int
    inputs.  It is a quadratic form in t.

    The sums run over the word's cached :func:`split_table` entries, each
    distinct rearranged word once, split into canonical blocks, so each
    value of t on a block is read straight from its entries; an inserted
    letter is placed into its canonical rest by bisection."""
    par = t.space.parities
    p = len(word)
    comps = t.components
    dim_g = alg.dim
    out = [0] * dim_g
    for l, tl in comps.items():
        tk = comps.get(p - l)
        if tk is None or l >= p:
            continue
        for head, x, rest, eps in split_table(word, par, (l, 1, p - l - 1)):
            tval = tl.entries.get(head)
            if tval is None:
                continue
            inserted = rep.act_basis(tval, x)
            if not vec_is_zero(inserted):
                # minus twice the operator side
                tk._insert_into(out, -2 * eps, inserted, rest)
    for a, ta in comps.items():
        tb = comps.get(p - a)
        if tb is None:
            continue
        for left, right, eps, _ in split_table(word, par, (a, p - a)):
            x = ta.entries.get(left)
            if x is None:
                continue
            y = tb.entries.get(right)
            if y is None:
                continue
            br = alg.bracket(x, y)
            for k in range(dim_g):
                if br[k]:
                    out[k] += eps * br[k]
    return out


def residual_on_word(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                     word) -> Vector:
    """Generalized Rota-Baxter residual on an explicit word, bracket side
    minus operator side; at weight 0 this is [Omega, Omega]/2.  The residual
    is graded symmetric, so the word is sorted once into a canonical word,
    with its Koszul sign, and a word repeating an odd-degree letter gives
    zero; :func:`_twice_residual` sums it there and it is halved once."""
    canonical, negate = koszul_sorted(t.space.degrees, word)
    if canonical is None:
        return (ZERO,) * alg.dim
    val = _twice_residual(t, alg, rep, canonical)
    return divided([-x for x in val] if negate else val, 2)


def _residual_walk(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                   p_max: int) -> Walk:
    """The walk of the residual up to weight p_max, each value computed by
    :func:`_twice_residual` on the int images of the inputs (the residual
    is quadratic in T and linear in the structure).  The walk's words are
    canonical already, so none is sorted, and den carries the 2 that
    :func:`residual_on_word` divides by."""
    _require_bound(p_max, 0, "p_max")
    if t.degree != 0:
        raise ShapeMismatchError("homotopy operators are degree-0 families")
    _require_matching(alg, rep, t)
    dt, t = t.cleared()
    ds, alg, rep = cleared_pair(alg, rep)
    return Walk(2 * dt * dt * ds, rep.space, range(p_max + 1),
                lambda word: _twice_residual(t, alg, rep, word))


def homotopy_oop_residual(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                          p_max: int = DEFAULT_P_MAX) -> dict[int, GradedSymMap]:
    """Per-weight defect of the generalized Rota-Baxter identities.

    T is a homotopy O-operator to order p_max exactly when every returned
    map is zero.  Implemented directly from the identities, independently of
    :func:`graded_bracket`.  Like it, runs on the int images of the inputs
    and divides each value once.
    """
    by_weight = _residual_walk(t, alg, rep, p_max).by_weight()
    return {p: GradedSymMap(rep.space, alg.space, p, 1, by_weight.get(p, {}))
            for p in range(p_max + 1)}


def is_homotopy_oop(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                    p_max: int = DEFAULT_P_MAX) -> bool:
    """Early-exit version of the residual check; a zero test, so the int
    images of the inputs decide it."""
    return _residual_walk(t, alg, rep, p_max).vanishes()


def _checked_first(walk: Walk, target: GradedVectorSpace, degree: int, scale: int = 1):
    """:meth:`~rotabaxter.graded.Walk.first` of the walk of a family of the
    given degree, its value validated as the family's map of that weight
    would validate it: an inhomogeneous structure can make an inhomogeneous
    value.  Values past it are not computed."""
    found = walk.first(scale)
    if found is not None:
        p, word, value = found
        GradedSymMap(walk.space, target, p, degree, {word: value})
    return found


def _residual_witness(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                      p_max: int = DEFAULT_P_MAX):
    """(weight, word, value) of :func:`homotopy_oop_residual` at its first
    nonzero canonical word, or None when it vanishes up to weight p_max.
    Raises what it raises up to that word."""
    return _checked_first(_residual_walk(t, alg, rep, p_max), alg.space, 1)


def _mc_witness(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                p_max: int = DEFAULT_P_MAX):
    """(weight, word, value) of half the self-bracket of T at the first
    canonical word where it is nonzero, or None when it vanishes up to
    weight p_max.  Raises what :func:`graded_bracket` raises up to that
    word."""
    return _checked_first(_bracket_walk(t, t, alg, rep, p_max), alg.space,
                          2 * t.degree + 1, 2)


def mc_check_homotopy(t: GradedSymFamily, alg: SGLA, rep: GradedRepresentation,
                      p_max: int = DEFAULT_P_MAX) -> bool:
    """Whether half the self-bracket of T vanishes up to weight p_max.

    Must agree with ``homotopy_oop_residual == 0`` on every instance; the
    two sides are computed independently.  Stops at the first nonzero word.
    """
    return _mc_witness(t, alg, rep, p_max) is None


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
    if f.target.dim != len(rep.matrices):
        raise ShapeMismatchError("family values do not match the algebra of the action")
    return GradedHookFamily(rep.space, f.degree + 1,
                            _hooked_maps(f.components, f.degree, rep, GradedHookedMap, fr))


def hook_compose_on_word(a: GradedHookFamily, b: GradedHookFamily, word, last) -> Vector:
    """The hooked-family compose on explicit arguments (word; last): the
    ``last`` entry of :func:`hook_compose_lasts`."""
    return hook_compose_lasts(a, b, word)[last]


def hook_compose(a: GradedHookFamily, b: GradedHookFamily,
                 p_max: int = DEFAULT_P_MAX) -> GradedHookFamily:
    """The compose a o b up to weight p_max: :func:`hook_compose_lasts` on
    the int images of the two families, each value divided once."""
    _require_bound(p_max, 0, "p_max")
    if a.space != b.space:
        raise ShapeMismatchError("families live on different spaces")
    degree = a.degree + b.degree
    # the compose of homogeneous hooked maps is homogeneous
    comps = {p: GradedHookedMap._on(a.space, a.space, p, degree, entries)
             for p, entries in _compose_by_weight(*a.cleared(), *b.cleared(),
                                                  range(p_max + 1)).items()}
    return GradedHookFamily(a.space, degree, comps)


def hook_bracket(a: GradedHookFamily, b: GradedHookFamily,
                 p_max: int = DEFAULT_P_MAX) -> GradedHookFamily:
    """Graded Lie bracket a o b - (-1)^(deg a deg b) b o a on hooked families."""
    s = parity_sign(a.degree * b.degree)
    return hook_compose(a, b, p_max) - hook_compose(b, a, p_max).scale(s)


def psi_homomorphism_defect(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                            rep: GradedRepresentation,
                            p_max: int = DEFAULT_P_MAX) -> GradedHookFamily:
    """psi([[f, g]]) - [psi(f), psi(g)] up to weight p_max, built as whole
    families; a :func:`check_psi_homomorphism` witness replays as its value
    at the witness key."""
    return (psi(graded_bracket(f, g, alg, rep, p_max), rep)
            - hook_bracket(psi(f, rep), psi(g, rep), p_max))


def _psi_witness(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                 rep: GradedRepresentation, p_max: int = DEFAULT_P_MAX):
    """(weight, word, last, value) of psi([[f, g]]) - [psi(f), psi(g)] at the
    first canonical (word, last), in weight then sorted order, where it is
    nonzero, or None when the two sides agree up to weight p_max.

    Word by word on the int images, in two walks.  The first collects the
    values of the bracket kernel on the canonical words (see
    :func:`_bracket_walk`) and checks each as the bracket's map
    checks it, and the action-column rule of psi checks their columns; then
    psi of the int f and of the int g are built.  The second walks
    :func:`_hom_residual`, both sides carrying df * dg * ds^2, and stops at
    its first nonzero value, the only one divided.  So it raises what
    :func:`psi_homomorphism_defect` raises, in the same order, on every word
    even past a difference; the int values are checked as they are.  Only
    the weights a + b, for a weight a of f and b of g, are walked: at any
    other weight every term of both sides vanishes.
    """
    _require_bound(p_max, 0, "p_max")
    dfg, ds, f, g, alg, rep = _cleared_bracket_inputs(f, g, alg, rep)
    # the walks stop at the top weight of f plus g, so the count to p_max is made here
    _require_walk(rep.space, p_max)
    space, dim = rep.space, rep.space.dim
    degree = f.degree + g.degree + 1
    weights = sorted({a + b for a in f.components for b in g.components if a + b <= p_max})
    brackets = {p: GradedSymMap._on(space, alg.space, p, degree, {}) for p in weights}
    # den 1: the values are checked and kept as ints, never divided
    for p, word, val in Walk(1, space, weights,
                             lambda word: _bracket_on_canonical(f, g, alg, rep, word)):
        brackets[p]._check_value(word, val)
        brackets[p].entries[word] = val
    lhs = _hooked_maps(brackets, degree, rep, GradedHookedMap)
    pf = GradedHookFamily(space, f.degree + 1,
                          _hooked_maps(f.components, f.degree, rep, GradedHookedMap))
    pg = pf if g is f else GradedHookFamily(
        space, g.degree + 1, _hooked_maps(g.components, g.degree, rep, GradedHookedMap))
    s = parity_sign(pf.degree * pg.degree)
    zero = (0,) * dim

    def residuals_on_word(word):
        get = lhs[len(word)].entries.get
        return _hom_residual([get((word, last), zero) for last in range(dim)], pf, pg, s, word)

    found = Walk(dfg * ds * ds, space, weights, residuals_on_word, free=True).first()
    return found and (found[0], *found[1], found[2])


def check_psi_homomorphism(f: GradedSymFamily, g: GradedSymFamily, alg: SGLA,
                           rep: GradedRepresentation, p_max: int = DEFAULT_P_MAX) -> bool:
    """Exact equality of psi([[f, g]]) and [psi(f), psi(g)] up to weight
    p_max, decided word by word (see :func:`_psi_witness`)."""
    return _psi_witness(f, g, alg, rep, p_max) is None


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

    The operations m_k are the components of a degree-1 hooked family, and
    the coherence identities are its Maurer-Cartan equation p o p = 0 in
    the graded Lie algebra of hooked maps: the residual is the ``last`` entry
    of :func:`hook_compose_lasts` (p, p, word), with the global normalization
    COMPOSE_NORMALIZATION taken back out.
    """
    return tuple(COMPOSE_NORMALIZATION * x for x in hook_compose_lasts(p, p, word)[last])


def check_prelie_infinity(p: PreLieInfinity, n_max: int = DEFAULT_P_MAX,
                          rng=None) -> Report:
    """Verify the coherence identities for 1 <= n <= n_max on all argument
    tuples.  Graded symmetry in the first k-1 slots holds by construction:
    operations are stored on canonical words and evaluated with the Koszul
    sign.  ``rng`` is accepted and ignored, so the verdict depends on no
    random draw.

    The residual inherits that symmetry in its first n-1 arguments, so it is
    evaluated on canonical words only: a permuted word gives the
    Koszul-signed value, and a word repeating an odd-degree letter gives
    zero.  The first nonzero (word, last) in the order of all tuples
    therefore has a canonical word, and it is the witness reported.

    The walk over the canonical words of weights up to n_max - 1 is counted
    first like every other walk (see :class:`~rotabaxter.graded.Walk`),
    and an empty space, with no tuples at any order, passes at once.  The
    residual is the self-compose p o p of the operations' hooked family (see
    :func:`prelie_infinity_residual`); it is quadratic in the operations, so
    it runs on their int images and only a witness is divided back.
    """
    _require_bound(n_max, 1, "n_max")
    space = p.space
    if not space.dim:
        return Report("check-prelie-inf", True, order=n_max)
    den, p = p.cleared()
    walk = Walk(den * den, space, range(n_max),
                lambda word: hook_compose_lasts(p, p, word), free=True)
    # the normalization is -1 or 1, so dividing by it takes it back out
    found = walk.first(COMPOSE_NORMALIZATION)
    if found is None:
        return Report("check-prelie-inf", True, order=n_max)
    weight, (word, last), res = found
    return Report("check-prelie-inf", False, order=n_max,
                  witness={"part": "coherence", "n": weight + 1,
                           "at": [i + 1 for i in word] + [last + 1],
                           "residual": named_residual(res, space.basis)})


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


def _polarized_rows(constant, linear, quadratic) -> list:
    """The coordinates of R(P + X), X = sum_a x_a E_a, that are not
    identically zero (see :func:`search_homotopy_operators`), each as
    (constant, ((a, coefficient of x_a), ...), ((a, b, coefficient of
    x_a x_b), ...)), from the vectors R(P), B_a (``linear[a]``) and Q_ab
    (``quadratic[a, b]``, a <= b)."""
    rows = []
    for k, c in enumerate(constant):
        lin = tuple((a, v[k]) for a, v in enumerate(linear) if v[k])
        quad = tuple((a, b, v[k]) for (a, b), v in quadratic.items() if v[k])
        if c or lin or quad:
            rows.append((c, lin, quad))
    return rows


def _vanishes_at(rows, x) -> bool:
    """Whether every row of :func:`_polarized_rows` is zero at the values x."""
    for c, lin, quad in rows:
        for a, v in lin:
            c += v * x[a]
        for a, b, v in quad:
            c += v * x[a] * x[b]
        if c:
            return False
    return True


def search_homotopy_operators(alg: SGLA, rep: GradedRepresentation, grid,
                              max_weight: int = 2, p_max: int = DEFAULT_P_MAX,
                              cap: int = 200_000) -> list[HomotopyOperator]:
    """Exhaustive grid search for homotopy O-operators of bounded weight.

    Decides every assignment of distinct grid values to the degree-admissible
    (word, target) slots of T_0..T_max_weight and returns those whose
    residuals vanish to order p_max, in the order of ``itertools.product``
    over the slots.

    The weight-p residual reads only T_0..T_p, so the search runs depth
    first, one weight of slots at a time.  Once the slots of weight w are
    fixed, the residuals of every weight below the next weight that has
    slots (up to p_max after the last one) no longer depend on what is
    still free; a nonzero residual there rules out every completion of the
    prefix, and the assignments it skips are exactly ones the exhaustive
    search would reject.

    A level is decided by twisting its prefix.  Twice the residual, R, is a
    quadratic form in T, so with the prefix P fixed and the level's slots
    X = sum_a x_a E_a, E_a the elementary map of slot a, it polarizes on
    every word as

        R(P + X) = R(P) + sum_a x_a B_a + sum_{a <= b} x_a x_b Q_ab,

    with B_a = R(P + E_a) - R(P) - R(E_a), Q_aa = R(E_a) and Q_ab =
    R(E_a + E_b) - R(E_a) - R(E_b).  R(P) and the B_a are read once per
    prefix and word, the Q_ab once per level and word, each only when a
    candidate reaches the word and each by the one residual kernel
    (:func:`_twice_residual`); a candidate is then a few int dot products.
    On a word of weight p every term pairs components of weights i and
    p - i, and X has weight w while P has none, so the Q_ab vanish unless
    p = 2w, and the B_a unless P has a component of weight p - w, where R(E_a)
    vanishes and B_a = R(P + E_a) - R(P); neither is read where it vanishes.

    Candidates are decided on int images: the grid and (alg, rep) are each
    cleared once per search, and the residual, homogeneous quadratic in T
    and linear in the structure, has the same zero set on them.  A level's
    words are listed once, and a word that rules out a candidate moves to
    the front of its list.  Only an accepted candidate is built as a
    HomotopyOperator, from the grid's own values.
    """
    _require_bound(max_weight, 0, "max_weight")
    _require_bound(p_max, 0, "p_max")
    _require_matching(alg, rep)
    # each value once, so no candidate is searched or counted twice
    grid = tuple(dict.fromkeys(fr(x) for x in grid))
    if not grid:
        raise BoundError("search grid must be nonempty")
    space, target = rep.space, alg.space
    # the slots are read from the words up to max_weight, the residuals up to p_max
    _require_walk(space, max(p_max, max_weight))
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
    den = common_denominator(grid)
    ints = as_integers(grid, den)
    # back from the int images to the grid's own values; 0 is also every
    # coordinate outside the slots
    value_of = {0: ZERO, **dict(zip(ints, grid))}
    _, alg, rep = cleared_pair(alg, rep)

    def level_map(w, assigned) -> GradedSymMap:
        """The int map of weight w with each (word, k) slot at its value."""
        vecs: dict = {}
        for (word, k), val in assigned:
            if val:
                vecs.setdefault(word, [0] * target.dim)[k] = val
        return GradedSymMap._on(space, target, w, 0,
                                {word: tuple(vec) for word, vec in vecs.items()})

    def family(components) -> GradedSymFamily:
        return GradedSymFamily(space, target, 0, components)

    # one level per weight with slots: the weight, its slots and their
    # elementary maps E_a, the words of the residual weights decided once
    # they are fixed, and its Q_ab by word, filled as words are reached;
    # without any slot, one level decides the zero operator on every weight
    slotted = sorted({w for w, _, _ in slots})
    levels = []
    decided = 0  # the first residual weight no level decides
    for i, w in enumerate(slotted or [0]):
        upto = min(slotted[i + 1] - 1 if i + 1 < len(slotted) else p_max, p_max)
        wslots = [(word, k) for v, word, k in slots if v == w]
        levels.append((w, wslots, [level_map(w, [(slot, 1)]) for slot in wslots],
                       [word for p in range(decided, upto + 1)
                        for word in canonical_words(space, p)], {}))
        decided = upto + 1

    def quadratic_part(w, wslots, elementary, word) -> dict:
        """{(a, b): Q_ab on the word} for a <= b."""
        quad = {(a, a): _twice_residual(family({w: e}), alg, rep, word)
                for a, e in enumerate(elementary)}
        for a, b in itertools.combinations(range(len(elementary)), 2):
            both = family({w: level_map(w, [(wslots[a], 1), (wslots[b], 1)])})
            quad[a, b] = [x - y - z for x, y, z in zip(
                _twice_residual(both, alg, rep, word), quad[a, a], quad[b, b])]
        return quad

    # the int components of the levels fixed so far
    comps: dict = {}
    found = []

    def extend(level: int) -> None:
        if level == len(levels):
            found.append(HomotopyOperator(space, target, {
                w: GradedSymMap(space, target, w, 0, {
                    word: tuple(map(value_of.__getitem__, vec))
                    for word, vec in comp.entries.items()})
                for w, comp in comps.items()}, truncation=max_weight))
            return
        w, wslots, elementary, words, quadratic = levels[level]
        prefix = family(comps)
        shifted = [family({**comps, w: e}) for e in elementary]
        polarized: dict = {}  # word: its rows under this prefix

        def rows(word) -> list:
            got = polarized.get(word)
            if got is None:
                p = len(word)
                constant = _twice_residual(prefix, alg, rep, word)
                linear, quad = [], {}
                if p == 2 * w:
                    quad = quadratic.get(word)
                    if quad is None:
                        quad = quadratic[word] = quadratic_part(w, wslots, elementary, word)
                elif p - w in prefix.components:
                    linear = [[x - y for x, y in zip(_twice_residual(t, alg, rep, word),
                                                     constant)] for t in shifted]
                got = polarized[word] = _polarized_rows(constant, linear, quad)
            return got

        for values in itertools.product(ints, repeat=len(wslots)):
            for i, word in enumerate(words):
                if not _vanishes_at(rows(word), values):
                    words.insert(0, words.pop(i))
                    break
            else:
                if any(values):
                    comps[w] = level_map(w, zip(wslots, values))
                extend(level + 1)
                comps.pop(w, None)  # back to the prefix the level above fixed

    extend(0)
    return found
