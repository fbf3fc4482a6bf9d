"""Pre-Lie algebras, the graded Lie algebra of hooked maps on V, and the map
from the deformation complex of (g, rho) into it.

A hooked map of arity k is an element of Hom(wedge^k V (x) V, V): alternating
in its first k slots, unconstrained in the final slot.  The compose operation
below makes the hooked maps a graded Lie algebra (degrees are the arities)
whose square-zero 1-ary elements are precisely the pre-Lie products.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import parity_sign, signed_unshuffles
from .deformation import DEFAULT_ARITY_MAX, AltMap
from .errors import NotMaurerCartanError, ShapeMismatchError, TruncationExceededError
from .graded import SparseMap, ungraded_space
from .linalg import (
    Clearable,
    Vector,
    ZERO,
    bilinear,
    divided,
    table_from_pairs,
    vec_is_zero,
    vec_sub,
)
from .reports import Report, named_residual

# Global normalization of the compose operation.  The sign is fixed by
# requiring that f |-> (u_1..u_k, w) |-> rho(f(u_1..u_k)) w intertwine the
# deformation bracket with the bracket built from this compose; the opposite
# choice fails that homomorphism law by a global -1.  Pinned by
# test_prelie.py::test_compose_normalization_pinned.
COMPOSE_NORMALIZATION = -1


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

    def product_basis(self, i: int, j: int) -> Vector:
        return self.mu[i][j]

    product = bilinear


def prelie_product(basis, products) -> PreLieProduct:
    """Build a PreLieProduct from sparse data ``{(i, j): {k: coeff}}``; a
    product has no symmetry, so nothing is completed."""
    basis = tuple(basis)
    return PreLieProduct(basis, table_from_pairs(len(basis), products))


def check_prelie(p: PreLieProduct) -> Report:
    """Verify left-symmetry (x*y)*z - x*(y*z) = (y*x)*z - y*(x*z) on basis triples."""
    n = p.dim
    if len(p.mu) != n or any(len(pl) != n or any(len(r) != n for r in pl) for pl in p.mu):
        raise ShapeMismatchError("product constants do not match the basis")
    witness = None
    from .linalg import basis_vector

    for i in range(n):
        ei = basis_vector(n, i)
        for j in range(n):
            ej = basis_vector(n, j)
            for k in range(n):
                ek = basis_vector(n, k)
                res = vec_sub(
                    vec_sub(p.product(p.product(ei, ej), ek), p.product(ei, p.product(ej, ek))),
                    vec_sub(p.product(p.product(ej, ei), ek), p.product(ej, p.product(ei, ek))),
                )
                if not vec_is_zero(res):
                    witness = {
                        "at": [i + 1, j + 1, k + 1],
                        "residual": named_residual(res, p.basis),
                    }
                    break
            if witness:
                break
        if witness:
            break
    return Report("check-prelie", witness is None, witness=witness)


def commutator_algebra(p: PreLieProduct):
    """The sub-adjacent Lie bracket [x, y] = x*y - y*x of a pre-Lie product."""
    from .lie import LieAlgebra

    n = p.dim
    c = tuple(
        tuple(
            tuple(p.mu[i][j][k] - p.mu[j][i][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return LieAlgebra(p.basis, c)


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


def product_of_hook(h: HookedMap, basis) -> PreLieProduct:
    if h.arity != 1:
        raise ShapeMismatchError("only 1-ary hooked maps are bilinear products")
    n = h.dim
    mu = tuple(
        tuple(h.eval((i,), j) for j in range(n))
        for i in range(n)
    )
    return PreLieProduct(tuple(basis), mu)


def circ(alpha: HookedMap, beta: HookedMap, arity_max: int = DEFAULT_ARITY_MAX) -> HookedMap:
    """Compose of hooked maps; arities add.

    For alpha of arity n and beta of arity m, the two summands insert beta
    either into an alternating slot of alpha (over (m,1,n-1)-unshuffles, beta
    absorbing the singleton into its free slot) or into the free slot of
    alpha (over (n,m)-unshuffles, with the factor (-1)^(mn)); the final
    argument never permutes.  See COMPOSE_NORMALIZATION for the global sign.
    Both summands are bilinear in (alpha, beta), so they run on the int
    images of the two maps and each value is divided once.
    """
    if alpha.dim != beta.dim:
        raise ShapeMismatchError("hooked maps live on different spaces")
    a, b = alpha.arity, beta.arity
    total = a + b
    if total > arity_max:
        raise TruncationExceededError(
            f"compose of arities {a} and {b} exceeds the arity cap {arity_max}"
        )
    ab = parity_sign(a * b)
    dim = alpha.dim
    da, alpha = alpha.cleared()
    db, beta = beta.cleared()
    den = da * db
    into_slot = signed_unshuffles((b, 1, a - 1)) if a >= 1 else ()
    into_last = signed_unshuffles((a, b))
    entries = {}
    for word in itertools.combinations(range(dim), total):
        # beta's value in an alternating slot does not depend on the free
        # argument w, so it is evaluated once per word
        slot_terms = []
        for s, sg in into_slot:
            u = tuple(word[i] for i in s)
            inner = beta.eval(u[:b], u[b])
            if not vec_is_zero(inner):
                slot_terms.append((sg, inner, u[b + 1:]))
        for w in range(dim):
            val = [0] * dim
            for sg, inner, rest in slot_terms:
                term = alpha.eval_insert(inner, rest, w)
                for k in range(dim):
                    val[k] += sg * term[k]
            for s, sg in into_last:
                sg *= ab
                u = tuple(word[i] for i in s)
                inner = beta.eval(u[a:], w)
                if vec_is_zero(inner):
                    continue
                term = alpha.eval_last_insert(u[:a], inner)
                for k in range(dim):
                    val[k] += sg * term[k]
            if any(val):
                entries[(word, w)] = divided([COMPOSE_NORMALIZATION * x for x in val], den)
    return HookedMap._on(alpha.space, alpha.space, total, total, entries)


def mn_bracket(alpha: HookedMap, beta: HookedMap,
               arity_max: int = DEFAULT_ARITY_MAX) -> HookedMap:
    """Graded Lie bracket alpha o beta - (-1)^(nm) beta o alpha on hooked maps.

    A 1-ary alpha defines a pre-Lie product exactly when [alpha, alpha] = 0.
    """
    ab = parity_sign(alpha.arity * beta.arity)
    return circ(alpha, beta, arity_max) - circ(beta, alpha, arity_max).scale(ab)


def phi(f: AltMap, rep) -> HookedMap:
    """Hooked map (u_1..u_k, w) |-> rho(f(u_1..u_k)) w attached to f."""
    if f.dim_dom != rep.space_dim:
        raise ShapeMismatchError("map and representation live on different modules")
    entries = {}
    for key, gval in f.entries.items():
        mat = rep.rho(gval)
        for j in range(rep.space_dim):
            col = tuple(mat[r][j] for r in range(rep.space_dim))
            if any(col):
                entries[(key, j)] = col
    return HookedMap(f.arity, rep.space_dim, entries)


def check_phi_homomorphism(f: AltMap, g: AltMap, alg, rep,
                           arity_max: int = DEFAULT_ARITY_MAX) -> bool:
    """Exact equality of phi([[f, g]]) and [phi(f), phi(g)]."""
    from .deformation import courant_bracket

    lhs = phi(courant_bracket(f, g, alg, rep, arity_max), rep)
    rhs = mn_bracket(phi(f, rep), phi(g, rep), arity_max)
    return lhs == rhs


def induce_prelie(t, alg, rep, force: bool = False) -> PreLieProduct:
    """Pre-Lie product u * v = rho(Tu) v induced by an O-operator T."""
    from .lie import oop_defect

    if not force and not oop_defect(alg, rep, t).is_zero():
        raise NotMaurerCartanError(
            "operator is not an O-operator; pass force=True to build the product anyway"
        )
    n = rep.space_dim
    mu = tuple(
        tuple(rep.act_basis(t.column(i), j) for j in range(n))
        for i in range(n)
    )
    return PreLieProduct(rep.basis, mu)


def fiber_classes(ops, alg, rep) -> list[list]:
    """Group verified O-operators by exact equality of their induced products.

    Equality is structural on the product constants in the given basis, so
    the partition is basis-dependent.
    """
    from .lie import oop_defect

    classes: dict = {}
    order: list = []
    for op in ops:
        if not oop_defect(alg, rep, op).is_zero():
            raise NotMaurerCartanError("fiber classification requires verified O-operators")
        key = induce_prelie(op, alg, rep, force=True).mu
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append(op)
    return [classes[k] for k in order]


def random_hooked(rng, arity, dim, pool=None, density=0.7) -> HookedMap:
    """Random hooked map for property tests; deterministic given rng."""
    if pool is None:
        pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
    entries = {}
    for word in itertools.combinations(range(dim), arity):
        for w in range(dim):
            vec = tuple(
                rng.choice(pool) if rng.random() < density else ZERO
                for _ in range(dim)
            )
            entries[(word, w)] = vec
    return HookedMap(arity, dim, entries)
