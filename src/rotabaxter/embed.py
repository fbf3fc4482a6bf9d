"""Embeddings of the ungraded structures into the graded calculus.

Everything is concentrated in degree -1, where the graded-symmetric word on
distinct letters is alternating and every Koszul sign reduces to a
permutation parity.  The ungraded maps already are the graded ones on
degree -1 spaces named by position, so each embedding only relabels the
spaces; the graded checks then agree verdict for verdict with their
ungraded counterparts.
"""

from __future__ import annotations

from .deformation import AltMap
from .errors import ShapeMismatchError
from .graded import GradedVectorSpace, SGLA, concentrated, from_lie, from_representation
from .homotopy import (
    GradedHookedMap,
    GradedHookFamily,
    GradedSymFamily,
    GradedSymMap,
    HomotopyOperator,
    PreLieInfinity,
)
from .prelie import HookedMap, PreLieProduct, hook_of_product


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


def alt_from_sym(comp: GradedSymMap) -> AltMap:
    """Inverse of :func:`sym_map_from_alt` on degree -1 concentrated spaces."""
    return AltMap(comp.weight, comp.space.dim, comp.target.dim, comp.entries)


def homotopy_operator_from_linear(t, alg_graded: SGLA, space: GradedVectorSpace,
                                  truncation: int = 1) -> HomotopyOperator:
    """A linear operator V -> g as a weight-1 homotopy operator."""
    if t.rows != alg_graded.dim or t.cols != space.dim:
        raise ShapeMismatchError("operator does not match the graded spaces")
    comp = GradedSymMap(space, alg_graded.space, 1, 0, AltMap.from_operator(t).entries)
    return HomotopyOperator(space, alg_graded.space, {1: comp}, truncation=truncation)


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
