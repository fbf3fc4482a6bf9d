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

import itertools
from fractions import Fraction

from .combinatorics import parity_sign, sign, unshuffles
from .errors import NotMaurerCartanError, ShapeMismatchError, TruncationExceededError
from .graded import SparseMap, ungraded_space
from .linalg import ZERO, vec_is_zero

DEFAULT_ARITY_MAX = 6


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
    def from_operator(cls, op, dim_cod=None):
        """View a linear operator V -> g as a 1-ary element of the complex."""
        cod = len(op.matrix) if dim_cod is None else dim_cod
        cols = len(op.matrix[0]) if op.matrix else 0
        return cls(1, cols, cod, {(j,): op.column(j) for j in range(cols)})

    def to_operator(self):
        from .lie import LinearOperator

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


def courant_bracket(f: AltMap, g: AltMap, alg, rep, arity_max: int = DEFAULT_ARITY_MAX) -> AltMap:
    """Graded Lie bracket on C(V, g) attached to (g, [.,.], rho).

    For f of arity n and g of arity m the value on (u_1, ..., u_{m+n}) is

        - sum over (m,1,n-1)-unshuffles of (-1)^s f(rho(g(u_s1..u_sm)) u_s(m+1), u_s(m+2), ...)
        + (-1)^(mn) sum over (n,1,m-1)-unshuffles of (-1)^s g(rho(f(...)) u_s(n+1), ...)
        - (-1)^(mn) sum over (n,m)-unshuffles of (-1)^s [f(...), g(...)]

    Unshuffle shapes with a negative part contribute an empty sum.
    """
    _check_spaces(f, g, alg, rep)
    n, m = f.arity, g.arity
    total_arity = n + m
    if total_arity > arity_max:
        raise TruncationExceededError(
            f"bracket of arities {n} and {m} exceeds the arity cap {arity_max}"
        )
    mn = parity_sign(m * n)
    entries = {}
    for word in itertools.combinations(range(f.dim_dom), total_arity):
        val = [ZERO] * f.dim_cod
        if n >= 1:
            for s in unshuffles((m, 1, n - 1)):
                sg = sign(s)
                gval = g.eval(tuple(word[s[t]] for t in range(m)))
                if vec_is_zero(gval):
                    continue
                inserted = rep.act_basis(gval, word[s[m]])
                if vec_is_zero(inserted):
                    continue
                term = f.eval_insert(inserted, tuple(word[s[t]] for t in range(m + 1, total_arity)))
                for k in range(f.dim_cod):
                    val[k] -= sg * term[k]
        if m >= 1:
            for s in unshuffles((n, 1, m - 1)):
                sg = mn * sign(s)
                fval = f.eval(tuple(word[s[t]] for t in range(n)))
                if vec_is_zero(fval):
                    continue
                inserted = rep.act_basis(fval, word[s[n]])
                if vec_is_zero(inserted):
                    continue
                term = g.eval_insert(inserted, tuple(word[s[t]] for t in range(n + 1, total_arity)))
                for k in range(f.dim_cod):
                    val[k] += sg * term[k]
        for s in unshuffles((n, m)):
            sg = mn * sign(s)
            x = f.eval(tuple(word[s[t]] for t in range(n)))
            if vec_is_zero(x):
                continue
            y = g.eval(tuple(word[s[t]] for t in range(n, total_arity)))
            if vec_is_zero(y):
                continue
            br = alg.bracket(x, y)
            for k in range(f.dim_cod):
                val[k] -= sg * br[k]
        if any(val):
            entries[word] = tuple(val)
    return AltMap(total_arity, f.dim_dom, f.dim_cod, entries)


def mc_residual(t: AltMap, alg, rep, arity_max: int = DEFAULT_ARITY_MAX) -> AltMap:
    """Half the self-bracket of a 1-ary map; zero exactly for O-operators."""
    if t.arity != 1:
        raise ShapeMismatchError("Maurer-Cartan candidates are 1-ary maps")
    return courant_bracket(t, t, alg, rep, arity_max).scale(Fraction(1, 2))


def d_T(t: AltMap, f: AltMap, alg, rep, force: bool = False,
        arity_max: int = DEFAULT_ARITY_MAX) -> AltMap:
    """Differential [[t, .]] induced by an O-operator t.

    Squares to zero when t is an O-operator; pass ``force=True`` to evaluate
    the bracket for exploratory t without that guarantee.
    """
    if not force and not mc_residual(t, alg, rep, arity_max).is_zero():
        raise NotMaurerCartanError(
            "base map is not an O-operator; pass force=True to differentiate anyway"
        )
    return courant_bracket(t, f, alg, rep, arity_max)


def deformation_check(t: AltMap, tp: AltMap, alg, rep,
                      arity_max: int = DEFAULT_ARITY_MAX) -> bool:
    """Whether t + tp is again an O-operator, tested via the Maurer-Cartan
    equation d_t(tp) + 1/2 [[tp, tp]] = 0 of the twisted complex."""
    if t.arity != 1 or tp.arity != 1:
        raise ShapeMismatchError("deformations are 1-ary maps")
    lin = courant_bracket(t, tp, alg, rep, arity_max)
    quad = courant_bracket(tp, tp, alg, rep, arity_max).scale(Fraction(1, 2))
    return (lin + quad).is_zero()


def random_altmap(rng, arity, dim_dom, dim_cod, pool=None, density=0.8) -> AltMap:
    """Random alternating map for property tests; deterministic given rng."""
    if pool is None:
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(1, 2), Fraction(-1, 3)]
    entries = {}
    for word in itertools.combinations(range(dim_dom), arity):
        vec = tuple(
            rng.choice(pool) if rng.random() < density else ZERO
            for _ in range(dim_cod)
        )
        entries[word] = vec
    return AltMap(arity, dim_dom, dim_cod, entries)
