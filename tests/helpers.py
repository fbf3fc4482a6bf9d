"""Generators, oracles and relabelers that only the tests call.

* ``random_*`` draw the property tests' inputs, deterministic given the rng.
* :func:`expand_low_identities` is the hand expansion of the generalized
  Rota-Baxter residuals at weights 0, 1 and 2, the oracle that
  ``homotopy_oop_residual`` is compared with; it reads no unshuffle table.
* :func:`courant_on_word` is the ungraded bracket summed with permutation
  signs, the oracle that the one graded bracket kernel is compared with on
  alternating maps.
* The relabelers copy an ungraded map's entries verbatim onto the degree -1
  spaces of its graded counterpart, so a graded check can be compared with
  the ungraded one verdict for verdict.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from rotabaxter.combinatorics import parity_sign, split_table
from rotabaxter.deformation import AltMap
from rotabaxter.errors import ShapeMismatchError
from rotabaxter.graded import (
    GradedRepresentation,
    GradedVectorSpace,
    SGLA,
    canonical_words,
    concentrated,
    from_lie,
    from_representation,
)
from rotabaxter.homotopy import (
    GradedHookedMap,
    GradedHookFamily,
    GradedSymFamily,
    GradedSymMap,
    HomotopyOperator,
    PreLieInfinity,
    graded_bracket,
    word_degree,
)
from rotabaxter.lie import LieAlgebra
from rotabaxter.linalg import ZERO, Vector, fr, vec_add, vec_is_zero, vec_sub
from rotabaxter.prelie import HookedMap, PreLieProduct, hook_of_product


class TruncationExceededError(ValueError):
    """A computation needs components beyond a family's truncation."""


def compose(p, q) -> tuple[int, ...]:
    """The permutation acting as q followed by p."""
    return tuple(p[q[i]] for i in range(len(q)))


def vec_scale(c, v: Vector) -> Vector:
    c = fr(c)
    return tuple(c * x for x in v)


def eval_last_insert(m, args, last_vec: Vector) -> Vector:
    """Evaluate a map with a free slot with a vector of V in that last slot,
    expanded linearly."""
    args = tuple(args)
    out = [0] * m.target.dim
    for j, coeff in enumerate(last_vec):
        if coeff:
            for k, x in enumerate(m.eval(args, j)):
                if x:
                    out[k] += coeff * x
    return tuple(out)


def omega(t: HomotopyOperator) -> Vector:
    """The weight-0 component T_0 of a homotopy operator, an element of g."""
    return t.component(0).eval(())


def shifted_bracket(f, g, alg, rep, p_max):
    """The bracket moved through the degree shift, (-1)^deg(f) [[f, g]]: graded
    symmetric, [f, g] = (-1)^(mn) [g, f], with the graded Leibniz rule
    [f, [g, h]] = (-1)^(m+1) [[f, g], h] + (-1)^((m+1)(n+1)) [g, [f, h]]."""
    return graded_bracket(f, g, alg, rep, p_max).scale(parity_sign(f.degree))


def action_matrix(rep, x: Vector):
    """rho(x) = sum_a x_a M_a, summed straight from the action's matrices."""
    d = rep.space_dim
    return tuple(tuple(sum(xa * m[r][c] for xa, m in zip(x, rep.matrices)) for c in range(d))
                 for r in range(d))


def commutator_algebra(p: PreLieProduct) -> LieAlgebra:
    """The sub-adjacent Lie bracket [x, y] = x*y - y*x of a pre-Lie product."""
    n = p.dim
    c = tuple(
        tuple(
            tuple(p.mu[i][j][k] - p.mu[j][i][k] for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return LieAlgebra(p.basis, c)


def courant_on_word(f: AltMap, g: AltMap, alg, rep, word) -> Vector:
    """The bracket [[f, g]] of ``courant_bracket`` on an explicit word of
    arity(f) + arity(g) arguments: its three sums over unshuffles.

    The bracket is alternating, so the word is sorted once into an
    increasing word, with the permutation sign of the sort, and a word
    repeating a letter gives zero.  The inversions are counted here, not by
    the graded kernels' Koszul sort, and the word's ``split_table`` entries
    are read with parities None, so their signs are the permutation signs of
    ``combinatorics.sign``: this sum stays independent of the graded bracket
    kernel.  Every block of an unshuffle of an increasing word is
    increasing, so each value of f and g on a block is read straight from
    its entries; an inserted letter is placed into its increasing rest by
    bisection.  When g is f, the two insertion sums are one sum over one
    table with the coefficients -1 and (-1)^(nm), so it is summed once with
    the coefficient (-1)^(nm) - 1, and not at all when that is 0."""
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


# -- random inputs --------------------------------------------------------------

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


# -- the hand expansion -----------------------------------------------------------

def expand_low_identities(t: HomotopyOperator, alg: SGLA, rep: GradedRepresentation):
    """Hand-expanded generalized Rota-Baxter residuals at weights 0, 1, 2.

    Independent of the unshuffle machinery; each returned map is oriented to
    coincide with the corresponding output of ``homotopy_oop_residual``:

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
    omega_ = omega(t)
    t1 = t.component(1)
    t2 = t.component(2)
    half = Fraction(1, 2)
    r0_val = vec_scale(half, alg.bracket(omega_, omega_))
    r0 = GradedSymMap(space, target, 0, 1,
                      {(): r0_val} if not vec_is_zero(r0_val) else {})
    entries1 = {}
    for (j,) in canonical_words(space, 1):
        val = vec_sub(alg.bracket(omega_, t1.eval((j,))),
                      t1.eval_insert(rep.act_basis(omega_, j), ()))
        if not vec_is_zero(val):
            entries1[(j,)] = val
    r1 = GradedSymMap(space, target, 1, 1, entries1)
    entries2 = {}
    for (i, j) in canonical_words(space, 2):
        sgn = parity_sign(space.degrees[i] * space.degrees[j])
        val = alg.bracket(t1.eval((i,)), t1.eval((j,)))
        val = vec_sub(val, t1.eval_insert(rep.act_basis(t1.eval((i,)), j), ()))
        val = vec_sub(val, vec_scale(sgn, t1.eval_insert(rep.act_basis(t1.eval((j,)), i), ())))
        val = vec_sub(val, t2.eval_insert(rep.act_basis(omega_, i), (j,)))
        val = vec_sub(val, vec_scale(sgn, t2.eval_insert(rep.act_basis(omega_, j), (i,))))
        val = vec_add(val, alg.bracket(omega_, t2.eval((i, j))))
        if not vec_is_zero(val):
            entries2[(i, j)] = val
    r2 = GradedSymMap(space, target, 2, 1, entries2)
    return r0, r1, r2


# -- ungraded maps relabeled onto degree -1 spaces -----------------------------

def sym_map_from_alt(f: AltMap, space: GradedVectorSpace,
                     target: GradedVectorSpace) -> GradedSymMap:
    """An alternating k-ary map as a weight-k, degree-(k-1) symmetric map."""
    if f.dim_dom != space.dim or f.dim_cod != target.dim:
        raise ShapeMismatchError("map does not match the graded spaces")
    return GradedSymMap(space, target, f.weight, f.degree, f.entries)


def family_from_alt(f: AltMap, space: GradedVectorSpace,
                    target: GradedVectorSpace) -> GradedSymFamily:
    comp = sym_map_from_alt(f, space, target)
    return GradedSymFamily(space, target, comp.degree, {comp.weight: comp})


def embed_pair(alg, rep):
    """Embed an ungraded (algebra, representation) pair in degree -1."""
    return from_lie(alg), from_representation(rep)


def hook_from_hooked(h: HookedMap, space: GradedVectorSpace) -> GradedHookedMap:
    """An ungraded hooked map of arity k as a degree-k graded hooked map."""
    if h.dim != space.dim:
        raise ShapeMismatchError("hooked map does not match the graded space")
    return GradedHookedMap(space, h.weight, h.degree, h.entries)


def hook_family_from_hooked(h: HookedMap, space: GradedVectorSpace) -> GradedHookFamily:
    comp = hook_from_hooked(h, space)
    return GradedHookFamily(space, comp.degree, {comp.weight: comp})


def prelie_infinity_from_product(p: PreLieProduct) -> PreLieInfinity:
    """An ungraded pre-Lie product as the single binary operation of a
    homotopy structure on the degree -1 concentrated space."""
    space = concentrated(p.basis, -1)
    return PreLieInfinity(space, 2, {2: GradedHookedMap(space, 1, 1, hook_of_product(p).entries)})
