"""Pre-Lie algebras, the graded Lie algebra of hooked maps on V, and the map
from the deformation complex of (g, rho) into it.

A hooked map of arity k is an element of Hom(wedge^k V (x) V, V): alternating
in its first k slots, unconstrained in the final slot.  The compose operation
below makes the hooked maps a graded Lie algebra (degrees are the arities)
whose square-zero 1-ary elements are precisely the pre-Lie products.

One compose kernel, :func:`hook_compose_lasts`, serves every grading: the
ungraded maps are the graded ones on V concentrated in degree -1, and the
hooked families of :mod:`rotabaxter.homotopy` run it on any grading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import parity_sign, split_table
from .deformation import AltMap, _bracket_on_canonical, _cleared_bracket_inputs, courant_bracket
from .errors import NotMaurerCartanError, ShapeMismatchError
from .graded import (
    CellWalk,
    SparseFamily,
    SparseMap,
    Walk,
    _require_walk,
    koszul_inserted,
    koszul_sorted,
    require_cells,
    ungraded_space,
)
from .lie import _oop_walk
from .linalg import (
    Clearable,
    Vector,
    bilinear,
    fr,
    require_action,
    require_table,
    signed_sum,
    table_from_pairs,
)
from .reports import Report, cell_witness

# Global normalization of the compose operation.  The sign is fixed by
# requiring that f |-> (u_1..u_k, w) |-> rho(f(u_1..u_k)) w intertwine the
# deformation bracket with the bracket built from this compose; the opposite
# choice fails that homomorphism law by a global -1.  Pinned by
# test_prelie.py::test_compose_normalization_pinned.
COMPOSE_NORMALIZATION = -1


def hook_compose_lasts(a: SparseFamily, b: SparseFamily, word) -> list[Vector]:
    """The hooked-family compose on (word; last) for every last argument, in
    the order of the last argument.

    Two sums: b lands in a symmetric slot of a (absorbing the unshuffle
    singleton into its own free slot), or in the free slot of a with the
    per-term factor (-1)^(deg(b) * sum of a-block degrees); the final
    argument never permutes.  Globally scaled by COMPOSE_NORMALIZATION,
    which each term's sign carries, so no value is rescaled afterwards.
    The unshuffles, the inner values of the first sum and the a-values of
    the second do not depend on the last argument, so each is computed once
    per word.  On hooked maps (one-weight families on V in degree -1) the
    factor is (-1)^(nm).

    The compose is graded symmetric in the word, so the word is sorted once
    into a canonical word, with its Koszul sign, which each term's sign
    carries too, and a word repeating an odd-degree letter gives zero.  The
    sums run over the word's cached :func:`split_table` entries, each
    distinct rearranged word once, split into canonical blocks: each value
    on a block is read straight from the entries, and the a-block degree
    enters through the parity the table stores.  Each inserted letter is
    placed into its canonical rest by bisection.  Only the weights b has
    are visited in the first sum, and those a has in the second.
    """
    space = a.space
    dim = space.dim
    degrees = space.degrees
    word, negate = koszul_sorted(degrees, word)
    if word is None:
        return [(0,) * dim] * dim
    norm = -COMPOSE_NORMALIZATION if negate else COMPOSE_NORMALIZATION
    par = space.parities
    p = len(word)
    ac, bc = a.components, b.components
    out = [[0] * dim for _ in range(dim)]
    for wb, bb in bc.items():
        aa = ac.get(p - wb)
        if aa is None or wb >= p:
            continue
        for head, x, rest, eps in split_table(word, par, (wb, 1, p - wb - 1)):
            inner = bb.entries.get((head, x))
            if inner is None:
                continue
            sign = norm * eps
            for j, cj in enumerate(inner):
                if not cj:
                    continue
                inserted, flip = koszul_inserted(degrees, j, rest)
                if inserted is None:
                    continue
                c = -sign * cj if flip else sign * cj
                for last, val in aa.stored_lasts(inserted).items():
                    acc = out[last]
                    for k, y in enumerate(val):
                        if y:
                            acc[k] += c * y
    # the free-slot sum, its factor read by the parity of the a-block degree
    factors = (norm, norm * parity_sign(b.degree))
    for wa, aa in ac.items():
        bb = bc.get(p - wa)
        if bb is None:
            continue
        for left, right, eps, odd in split_table(word, par, (wa, p - wa)):
            inners = bb.stored_lasts(right)
            if not inners:
                continue
            avals = aa.stored_lasts(left)
            if not avals:
                continue
            factor = factors[odd] * eps
            for last, inner in inners.items():
                acc = out[last]
                for j, val in avals.items():
                    cj = inner[j]
                    if not cj:
                        continue
                    c = factor * cj
                    for k, y in enumerate(val):
                        if y:
                            acc[k] += c * y
    return [tuple(acc) for acc in out]


@dataclass(frozen=True)
class PreLieProduct(Clearable):
    """Bilinear product on a named space, stored as structure constants.

    ``mu[i][j][k]`` is the coefficient of e_k in e_i * e_j.  Constructors do
    not validate left-symmetry; run :func:`check_prelie` explicitly.
    """

    basis: tuple[str, ...]
    mu: tuple[tuple[tuple[Fraction, ...], ...], ...]
    _constants = "mu"

    @property
    def dim(self) -> int:
        return len(self.basis)

    product = bilinear


def prelie_product(basis, products) -> PreLieProduct:
    """Build a PreLieProduct from sparse data ``{(i, j): {k: coeff}}``; a
    product has no symmetry, so nothing is completed."""
    basis = tuple(basis)
    return PreLieProduct(basis, table_from_pairs(len(basis), products))


def check_prelie(p: PreLieProduct) -> Report:
    """Verify left-symmetry (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z) on basis
    triples, on the int image of the constants (den times them)."""
    n = require_table(p.dim, p.mu, "product constants do not match the basis")
    require_cells("check-prelie", n ** 4)
    den, mu = p.cleared()
    mu = mu.mu
    cols = tuple(zip(*mu))  # cols[k][m] is e_m * e_k
    witness = cell_witness(CellWalk(
        den * den, n, 3,
        lambda i, j, k: signed_sum(n, ((1, mu[i][j], cols[k]), (-1, mu[j][k], mu[i]),
                                       (-1, mu[j][i], cols[k]), (1, mu[i][k], mu[j])))), p.basis)
    return Report("check-prelie", witness is None, witness=witness)


class HookedMap(SparseMap):
    """Element of Hom(wedge^k V (x) V, V): alternating in the first k slots,
    with a free final slot.  Keys are (increasing k-tuple, final index).

    The graded hooked map of weight and degree k on V concentrated in
    degree -1 (see :class:`~rotabaxter.graded.SparseMap`).
    """

    __slots__ = ()
    free = True

    def __init__(self, arity, dim, entries=None):
        space = ungraded_space(int(dim))
        super().__init__(space, space, arity, arity, entries)

    @property
    def arity(self) -> int:
        return self.weight

    @property
    def dim(self) -> int:
        return self.space.dim


def hook_of_product(p: PreLieProduct) -> HookedMap:
    """A bilinear product viewed as a 1-ary hooked map."""
    pairs = itertools.product(range(p.dim), repeat=2)
    return HookedMap(1, p.dim, {((i,), j): p.mu[i][j] for i, j in pairs})


def _compose_by_weight(da: int, a: SparseFamily, db: int, b: SparseFamily, weights) -> dict:
    """{weight: {(word, last): value}} of the compose on the given weights
    of two families whose int images, da and db times them, are a and b:
    :func:`hook_compose_lasts` on a and b, each value divided once."""
    return Walk(da * db, a.space, weights, lambda word: hook_compose_lasts(a, b, word),
                free=True).by_weight()


def circ(alpha: HookedMap, beta: HookedMap) -> HookedMap:
    """Compose of hooked maps; arities add: :func:`hook_compose_lasts` on
    each increasing word, each map's stored int image read as the one-weight
    family of its arity on V in degree -1."""
    if alpha.dim != beta.dim:
        raise ShapeMismatchError("hooked maps live on different spaces")
    total = alpha.arity + beta.arity
    (da, a), (db, b) = alpha.cleared(), beta.cleared()
    a, b = SparseFamily.of(a), SparseFamily.of(b)
    return HookedMap._on(alpha.space, alpha.space, total, total,
                         _compose_by_weight(da, a, db, b, (total,)).get(total, {}))


def mn_bracket(alpha: HookedMap, beta: HookedMap) -> HookedMap:
    """Graded Lie bracket alpha o beta - (-1)^(nm) beta o alpha on hooked maps.

    A 1-ary alpha defines a pre-Lie product exactly when [alpha, alpha] = 0.
    """
    ab = parity_sign(alpha.arity * beta.arity)
    return circ(alpha, beta) - circ(beta, alpha).scale(ab)


def _hooked_maps(components: dict, degree: int, rep, member, scalar=None) -> dict:
    """{weight: the hooked map (u_1..u_w, v) |-> rho(f_w(u_1..u_w)) v} of
    each map f_w of ``components`` ({weight: map of degree ``degree``}), a
    ``member`` map of degree ``degree`` + 1: the nonzero action columns,
    keyed (word, j), each checked as that map checks a value, in weight, word
    and j order.  A column is what ``act_basis`` computes, ints from int
    inputs, with ``scalar`` applied to each coordinate when it is given.
    The one action-column rule of phi, psi and their homomorphism checks."""
    act, hooks = rep.act_basis, {}
    for w, comp in components.items():
        space = comp.space
        hook = hooks[w] = member._on(space, space, w, degree + 1, {})
        entries = hook.entries
        check = True
        for word, gval in comp.entries.items():
            for j in range(space.dim):
                col = act(gval, j)
                if any(col):
                    if check:
                        hook._check_value((word, j), col)
                        # on a space of one degree every column has the degree of the first
                        check = space.uniform_degree is None
                    entries[(word, j)] = tuple(map(scalar, col)) if scalar else col
    return hooks


def phi(f: AltMap, rep) -> HookedMap:
    """Hooked map (u_1..u_k, w) |-> rho(f(u_1..u_k)) w attached to f."""
    if f.dim_dom != rep.space_dim:
        raise ShapeMismatchError("map and representation live on different modules")
    if f.dim_cod != len(rep.matrices):
        raise ShapeMismatchError("map values do not match the algebra of the representation")
    require_action(f.dim_cod, rep)
    return _hooked_maps({f.arity: f}, f.degree, rep, HookedMap, fr)[f.arity]


def _hom_witness(f, g, alg, rep, top: int):
    """(weight, word, last, value) of psi([[f, g]]) - [psi(f), psi(g)] at the
    first canonical (word, last), in weight then sorted order, where it is
    nonzero, or None when the two sides agree up to weight ``top``.  f and g
    are two maps or two families of any grading; on alternating maps, in
    degree -1, psi is phi.

    Word by word on the int images, in two walks.  The first collects the
    bracket kernel's values (see :func:`~rotabaxter.deformation._bracket_walk`)
    and checks each as the bracket's map checks it, and :func:`_hooked_maps`
    checks their columns; then psi of the int f and g is built.  The second
    walks the residual, both sides carrying df * dg * ds^2, and divides only
    its first nonzero value.  So it raises what the whole-map defects
    (:func:`phi_homomorphism_defect`,
    :func:`~rotabaxter.homotopy.psi_homomorphism_defect`) raise, in the same
    order, even past a difference; in degree -1 no check can fail.  Only the
    weights a + b, for a weight a of f and b of g, are walked: at any other
    weight every term of both sides vanishes.
    """
    dfg, ds, f, g, alg, rep = _cleared_bracket_inputs(f, g, alg, rep)
    space, dim = rep.space, rep.space_dim
    # the walks stop at the top weight of f plus g, so the count to top is made here
    _require_walk(space, top)
    degree = f.degree + g.degree + 1
    weights = sorted({a + b for a in f.components for b in g.components if a + b <= top})
    brackets = {p: SparseMap._on(space, alg.space, p, degree, {}) for p in weights}
    # den 1: the values are checked and kept as ints, never divided
    for p, word, val in Walk(1, space, weights,
                             lambda word: _bracket_on_canonical(f, g, alg, rep, word)):
        brackets[p]._check_value(word, val)
        brackets[p].entries[word] = val
    # HookedMap._on skips the degree -1 constructor, so it holds the int hooks of any grading
    lhs = _hooked_maps(brackets, degree, rep, HookedMap)
    pf = SparseFamily(space, space, f.degree + 1,
                      _hooked_maps(f.components, f.degree, rep, HookedMap))
    pg = pf if g is f else SparseFamily(
        space, space, g.degree + 1, _hooked_maps(g.components, g.degree, rep, HookedMap))
    s = parity_sign(pf.degree * pg.degree)
    zero = (0,) * dim

    def residuals_on_word(word):
        """lhs - (pf o pg - s pg o pf) on (word; last) for each last argument
        in turn, each computed only once the ones before it are read."""
        get = lhs[len(word)].entries.get
        for last, y, z in zip(range(dim), hook_compose_lasts(pf, pg, word),
                              hook_compose_lasts(pg, pf, word)):
            yield [xk - yk + s * zk for xk, yk, zk in zip(get((word, last), zero), y, z)]

    found = Walk(dfg * ds * ds, space, weights, residuals_on_word, free=True).first()
    return found and (found[0], *found[1], found[2])


def check_phi_homomorphism(f: AltMap, g: AltMap, alg, rep) -> bool:
    """Exact equality of phi([[f, g]]) and [phi(f), phi(g)], decided word by
    word (see :func:`_hom_witness`)."""
    return _hom_witness(f, g, alg, rep, f.arity + g.arity) is None


def phi_homomorphism_defect(f: AltMap, g: AltMap, alg, rep) -> HookedMap:
    """phi([[f, g]]) - [phi(f), phi(g)], built as whole maps: zero exactly
    when :func:`check_phi_homomorphism` passes, and a
    :func:`_hom_witness` replays as its value at the witness key."""
    lhs = phi(courant_bracket(f, g, alg, rep), rep)
    return lhs - mn_bracket(phi(f, rep), phi(g, rep))


def induce_prelie(t, alg, rep, force: bool = False) -> PreLieProduct:
    """Pre-Lie product u * v = rho(Tu) v induced by an O-operator T.  The
    O-operator check's walk is made even with ``force``: making it checks
    the shapes of T and of the action."""
    walk = _oop_walk(alg, rep, t)
    if not force and not walk.vanishes():
        raise NotMaurerCartanError(
            "operator is not an O-operator; pass force=True to build the product anyway"
        )
    n = rep.space_dim
    mu = tuple(
        tuple(rep.act_basis(t.column(i), j) for j in range(n))
        for i in range(n)
    )
    return PreLieProduct(rep.basis, mu)
