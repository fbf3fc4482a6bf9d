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
"""

from __future__ import annotations

from .combinatorics import parity_sign, split_table
from .errors import NotMaurerCartanError, ShapeMismatchError
from .graded import SparseMap, Walk, ungraded_space
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


def _check_spaces(f: AltMap, g: AltMap, alg, rep):
    if f.dim_dom != g.dim_dom or f.dim_cod != g.dim_cod:
        raise ShapeMismatchError("maps live on different spaces")
    if f.dim_dom != rep.space_dim or f.dim_cod != alg.dim:
        raise ShapeMismatchError("maps do not match the algebra and module dimensions")
    require_action(alg.dim, rep)


def courant_on_word(f: AltMap, g: AltMap, alg, rep, word) -> Vector:
    """The bracket [[f, g]] of :func:`courant_bracket` on an explicit word of
    arity(f) + arity(g) arguments: its three sums over unshuffles.

    The bracket is alternating, so the word is sorted once into an
    increasing word, with the permutation sign of the sort, and a word
    repeating a letter gives zero.  The inversions are counted here, not by
    the graded kernels' Koszul sort, and the word's :func:`split_table`
    entries are read with parities None, so their signs are the permutation
    signs of :func:`~rotabaxter.combinatorics.sign`: this sum stays
    independent of :func:`~rotabaxter.homotopy.bracket_on_word`.  Every
    block of an unshuffle of an increasing word is increasing, so each value
    of f and g on a block is read straight from its entries; an inserted
    letter is placed into its increasing rest by bisection.  When g is f,
    the two insertion sums are one sum over one table with the coefficients
    -1 and (-1)^(nm), so it is summed once with the coefficient
    (-1)^(nm) - 1, and not at all when that is 0; this uses no axiom of the
    algebra or the action."""
    n, m = f.weight, g.weight  # the arities
    dim = f.target.dim
    if len(set(word)) < len(word):
        return (0,) * dim
    sgn = parity_sign(sum(a > b for i, a in enumerate(word) for b in word[i + 1:]))
    word = tuple(sorted(word))
    mn = parity_sign(m * n)
    val = [0] * dim
    # g inserted into f and f into g; a self-bracket sums the one table once
    for inner, outer, coef in ((f, f, mn - 1),) if g is f else ((g, f, -1), (f, g, mn)):
        a, b = inner.weight, outer.weight
        coef *= sgn
        for head, x, rest, sg in split_table(word, None, (a, 1, b - 1)) if b and coef else ():
            ival = inner.entries.get(head)
            if ival is None:
                continue
            inserted = rep.act_basis(ival, x)
            if not vec_is_zero(inserted):
                outer._insert_into(val, coef * sg, inserted, rest)
    mn *= sgn  # the bracket of values carries the sort's sign too
    for left, right, sg, _ in split_table(word, None, (n, m)):
        x = f.entries.get(left)
        if x is None:
            continue
        y = g.entries.get(right)
        if y is None:
            continue
        br = alg.bracket(x, y)
        sg *= mn
        for k in range(dim):
            val[k] -= sg * br[k]
    return tuple(val)


def _courant_walk(f: AltMap, g: AltMap, alg, rep) -> Walk:
    """The walk of [[f, g]], each value computed by :func:`courant_on_word`
    on the int images of the inputs."""
    _check_spaces(f, g, alg, rep)
    same = g is f
    df, f = f.cleared()
    dg, g = (df, f) if same else g.cleared()
    ds, alg, rep = cleared_pair(alg, rep)
    return Walk(df * dg * ds, f.space, (f.arity + g.arity,),
                lambda word: courant_on_word(f, g, alg, rep, word))


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
    term is bilinear in (f, g) and linear in the structure, so the sums run on
    the int images of f, g and (alg, rep) and each value is divided once.
    """
    return _walked_altmap(_courant_walk(f, g, alg, rep), f.dim_cod)


def _mc_walk(t: AltMap, alg, rep) -> Walk:
    """The walk of the self-bracket of a 1-ary map, twice :func:`mc_residual`."""
    if t.arity != 1:
        raise ShapeMismatchError("Maurer-Cartan candidates are 1-ary maps")
    return _courant_walk(t, t, alg, rep)


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
    _check_spaces(t, tp, alg, rep)
    den = common_denominator(x for f in (t, tp) for v in f.entries.values() for x in v)
    itp = tp.integral(den)
    left = t.integral(2 * den) + itp
    ds, alg, rep = cleared_pair(alg, rep)
    return Walk(2 * den * den * ds, t.space, (2,),
                lambda word: courant_on_word(left, itp, alg, rep, word))


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
