"""The deformation complex of a Lie algebra representation.

C(V, g) is the space of alternating multilinear maps from powers of V into
g.  It carries a graded Lie bracket whose square-zero condition on 1-ary
maps is exactly the relative Rota-Baxter identity, so Maurer-Cartan elements
are the O-operators and the bracket controls their deformations.

Grading convention: a map of arity k is a degree-(k-1) cochain, and the
Maurer-Cartan theory lives on the suspension, where the operative degree is
the arity itself.  The sign laws are stated with arities: graded
skew-symmetry reads [[f, g]] = -(-1)^(nm) [[g, f]] with n, m the arities of
f and g, and the graded Jacobi identity uses the same exponents.  Both laws
are pinned by exhaustive tests.

The bracket is the graded bracket of :mod:`rotabaxter.homotopy` on V and g
in degree -1: one kernel, :func:`_bracket_on_canonical`, sums both, and one
walk, :func:`_bracket_walk`, runs it over the words of both.
"""

from __future__ import annotations

from .combinatorics import parity_sign, split_table
from .errors import NotMaurerCartanError, ShapeMismatchError
from .graded import SparseFamily, SparseMap, Walk, ungraded_space
from .linalg import (
    LinearOperator,
    Vector,
    cleared_pair,
    common_denominator,
    require_action,
    vec_is_zero,
)


class AltMap(SparseMap):
    """Alternating map from V^arity to g, stored on increasing index tuples.

    The graded map of weight arity and degree arity - 1 between spaces
    concentrated in degree -1 (see :class:`~rotabaxter.graded.SparseMap`):
    evaluation on an arbitrary tuple is the signed antisymmetric extension of
    the stored values, and a repeated index evaluates to zero.  Arity 0 means
    a single element of g (evaluated on the empty tuple).
    """

    __slots__ = ()
    # bound in this class's own dict, where the benchmark's tracer looks for it
    eval = SparseMap.eval

    def __init__(self, arity, dim_dom, dim_cod, entries=None):
        super().__init__(ungraded_space(int(dim_dom)), ungraded_space(int(dim_cod)),
                         arity, int(arity) - 1, entries)

    @property
    def arity(self) -> int:
        return self.weight

    @property
    def dim_dom(self) -> int:
        return self.space.dim

    @property
    def dim_cod(self) -> int:
        return self.target.dim

    @classmethod
    def from_operator(cls, op):
        """View a linear operator V -> g as a 1-ary element of the complex."""
        return cls(1, op.cols, op.rows, {(j,): op.column(j) for j in range(op.cols)})

    def to_operator(self):
        if self.arity != 1:
            raise ShapeMismatchError("only 1-ary maps correspond to operators")
        rows = tuple(
            tuple(self.eval((j,))[k] for j in range(self.dim_dom))
            for k in range(self.dim_cod)
        )
        return LinearOperator(rows, "V", "g")


def _require_matching(alg, rep, *maps) -> None:
    """Refuse maps or families on another space than the action's module or
    with values outside the algebra, and an action with other than one square
    matrix of the module dimension per algebra basis element: every kernel
    indexes them by those bases."""
    if any(f.space != rep.space for f in maps):
        raise ShapeMismatchError("maps do not live on the module of the action")
    if any(f.target != alg.space for f in maps):
        raise ShapeMismatchError("maps do not take values in the algebra")
    require_action(alg.dim, rep)


# The signs of the bracket by the degree parities m % 2 and n % 2 of f and g:
# the factor (-1)^((m+1)(n+1)) of f inserted into g, and the factors of a
# bracket of values by the parity of its f-block degree, read once per word.
_BRACKET_SIGNS = tuple(tuple((parity_sign((m + 1) * (n + 1)),
                              (-parity_sign(m + 1), -parity_sign(n + m + 1)))
                             for n in (0, 1)) for m in (0, 1))


def _bracket_on_canonical(f: SparseFamily, g: SparseFamily, alg, rep, word) -> Vector:
    """The graded bracket of f and g on a canonical word, such as every
    word of a walk: the one bracket kernel of every grading.

    Three sums over unshuffles: g inserted into f through the action, f
    inserted into g with the factor (-1)^((m+1)(n+1)), and the bracket of
    values with the per-term factor -(-1)^(n(sum of f-block degrees)+m+1),
    where m, n are the degrees of f and g.  When g is f, the two insertion
    sums are one sum with the coefficients -1 and (-1)^((m+1)(m+1)), so it
    is summed once with their sum, and not at all at odd m, where that is 0;
    this uses no axiom of the structure.  On alternating maps of arities n
    and m, families of degrees n - 1 and m - 1 in degree -1, it is
    :func:`courant_bracket`.

    The sums run over the word's cached :func:`split_table` entries, each
    distinct rearranged word once, split into canonical blocks: each value
    of f and g on a block is read straight from its entries, and the f-block
    degree enters through the parity the table stores.  An inserted letter
    is placed into its canonical rest by bisection.  Only the weights f and
    g have are visited.
    """
    dim_g = alg.dim
    par = f.space.parities
    p = len(word)
    fc, gc = f.components, g.components
    out = [0] * dim_g
    s2, factors = _BRACKET_SIGNS[f.degree & 1][g.degree & 1]
    # g inserted into an argument slot of f, and f into an argument slot of g
    for inner, outer, coef in ((fc, fc, s2 - 1),) if g is f else ((gc, fc, -1), (fc, gc, s2)):
        for l, il in inner.items() if coef else ():
            ol = outer.get(p - l)
            if ol is None or l >= p:
                continue
            for head, x, rest, eps in split_table(word, par, (l, 1, p - l - 1)):
                val = il.entries.get(head)
                if val is None:
                    continue
                inserted = rep.act_basis(val, x)
                if not vec_is_zero(inserted):
                    ol._insert_into(out, coef * eps, inserted, rest)
    # bracket of values, its factor read by the parity of the f-block degree
    for a, fa in fc.items():
        gb = gc.get(p - a)
        if gb is None:
            continue
        for left, right, eps, odd in split_table(word, par, (a, p - a)):
            x = fa.entries.get(left)
            if x is None:
                continue
            y = gb.entries.get(right)
            if y is None:
                continue
            factor = factors[odd] * eps
            br = alg.bracket(x, y)
            for k in range(dim_g):
                if br[k]:
                    out[k] += factor * br[k]
    return tuple(out)


def _cleared_bracket_inputs(f, g, alg, rep):
    """(df * dg, ds, f, g, alg, rep) with the inputs of a bracket as int
    images: f times df and g times dg, each map read as the one-weight family
    of its weight, and (alg, rep) times one ds.  Each map or family stores
    its image, so g is still f when it was.  Raises what the bracket raises
    before it computes a word."""
    _require_matching(alg, rep, *((f,) if g is f else (f, g)))
    (df, f), (dg, g) = f.cleared(), g.cleared()
    if isinstance(f, SparseMap):
        f, g = (SparseFamily.of(f),) * 2 if g is f else (SparseFamily.of(f), SparseFamily.of(g))
    ds, alg, rep = cleared_pair(alg, rep)
    return df * dg, ds, f, g, alg, rep


def _bracket_walk(f, g, alg, rep, weights) -> Walk:
    """The walk of [[f, g]] over the given weights, for two maps or two
    families of any grading: :func:`_bracket_on_canonical` on the int images
    (see :func:`_cleared_bracket_inputs`) of each word, canonical already."""
    dfg, ds, f, g, alg, rep = _cleared_bracket_inputs(f, g, alg, rep)
    return Walk(dfg * ds, f.space, weights,
                lambda word: _bracket_on_canonical(f, g, alg, rep, word))


def _walked_altmap(walk: Walk, dim_cod: int, divisor: int = 1) -> AltMap:
    """The alternating map of a walk over the words of one arity, divided by
    divisor, each value divided once."""
    arity, = walk.weights
    return AltMap._on(walk.space, ungraded_space(dim_cod), arity, arity - 1,
                      walk.by_weight(divisor).get(arity, {}))


def courant_bracket(f: AltMap, g: AltMap, alg, rep) -> AltMap:
    """Graded Lie bracket on C(V, g) attached to (g, [.,.], rho).

    For f of arity n and g of arity m the value on (u_1, ..., u_{m+n}) is

        - sum over (m,1,n-1)-unshuffles of (-1)^s f(rho(g(u_s1..u_sm)) u_s(m+1), u_s(m+2), ...)
        + (-1)^(mn) sum over (n,1,m-1)-unshuffles of (-1)^s g(rho(f(...)) u_s(n+1), ...)
        - (-1)^(mn) sum over (n,m)-unshuffles of (-1)^s [f(...), g(...)]

    Unshuffle shapes with a negative part contribute an empty sum.  Every
    term is bilinear in (f, g) and linear in the structure, so the sums,
    :func:`_bracket_on_canonical` in degree -1, run on the int images of f,
    g and (alg, rep) and each value is divided once.
    """
    return _walked_altmap(_bracket_walk(f, g, alg, rep, (f.arity + g.arity,)), f.dim_cod)


def _mc_walk(t: AltMap, alg, rep) -> Walk:
    """The walk of the self-bracket of a 1-ary map, twice :func:`mc_residual`."""
    if t.arity != 1:
        raise ShapeMismatchError("Maurer-Cartan candidates are 1-ary maps")
    return _bracket_walk(t, t, alg, rep, (2,))


def mc_residual(t: AltMap, alg, rep) -> AltMap:
    """Half the self-bracket of a 1-ary map; zero exactly for O-operators."""
    return _walked_altmap(_mc_walk(t, alg, rep), t.dim_cod, 2)


def d_T(t: AltMap, f: AltMap, alg, rep, force: bool = False) -> AltMap:
    """Differential [[t, .]] induced by an O-operator t.

    Squares to zero when t is an O-operator; pass ``force=True`` to evaluate
    the bracket for exploratory t without that guarantee.
    """
    if not force and not _mc_walk(t, alg, rep).vanishes():
        raise NotMaurerCartanError(
            "base map is not an O-operator; pass force=True to differentiate anyway"
        )
    return courant_bracket(t, f, alg, rep)


def _twisted_walk(t: AltMap, tp: AltMap, alg, rep) -> Walk:
    """The walk of [[t, tp]] + 1/2 [[tp, tp]] on the canonical arity-2
    words, computed on ints.

    With t and tp cleared over one common denominator d, and (alg, rep) over
    ds, the sum is 2 [[t, tp]] + [[tp, tp]] on the int images, and den is
    2 d^2 ds.  The bracket is bilinear, so the sum is the one bracket
    [[2 t + tp, tp]].  When t is an O-operator, [[t, t]] is zero and the sum
    is :func:`mc_residual` of t + tp.
    """
    if t.arity != 1 or tp.arity != 1:
        raise ShapeMismatchError("deformations are 1-ary maps")
    _require_matching(alg, rep, t, tp)
    den = common_denominator(x for f in (t, tp) for v in f.entries.values() for x in v)
    itp = tp.integral(den)
    left, right = SparseFamily.of(t.integral(2 * den) + itp), SparseFamily.of(itp)
    ds, alg, rep = cleared_pair(alg, rep)
    return Walk(2 * den * den * ds, t.space, (2,),
                lambda word: _bracket_on_canonical(left, right, alg, rep, word))


def deformation_check(t: AltMap, tp: AltMap, alg, rep) -> bool:
    """Whether t + tp is again an O-operator, tested via the Maurer-Cartan
    equation d_t(tp) + 1/2 [[tp, tp]] = 0 of the twisted complex.

    t must be an O-operator; this is not checked.  For any other t the
    function decides whether [[2 t + tp, tp]] vanishes, not whether t + tp
    is an O-operator: on the affine line it passes the identity with tp = 0.
    The test runs on ints and stops at the first word where it fails (see
    :func:`_twisted_walk`).
    """
    return _twisted_walk(t, tp, alg, rep).vanishes()
