"""Embeddings of the ungraded structures into the graded calculus.

Everything is concentrated in degree -1, where the graded-symmetric word on
distinct letters is alternating and every Koszul sign reduces to a
permutation parity.  The ungraded maps already are the graded ones on
degree -1 spaces named by position, so an embedding only relabels the
spaces; the graded checks then agree verdict for verdict with their
ungraded counterparts.  The algebra and its action embed by
:func:`~rotabaxter.graded.from_lie` and
:func:`~rotabaxter.graded.from_representation`.
"""

from __future__ import annotations

from .deformation import AltMap
from .errors import ShapeMismatchError
from .graded import GradedVectorSpace, SGLA
from .homotopy import GradedSymMap, HomotopyOperator


def homotopy_operator_from_linear(t, alg_graded: SGLA,
                                  space: GradedVectorSpace) -> HomotopyOperator:
    """A linear operator V -> g as a weight-1 homotopy operator."""
    if t.rows != alg_graded.dim or t.cols != space.dim:
        raise ShapeMismatchError("operator does not match the graded spaces")
    comp = GradedSymMap(space, alg_graded.space, 1, 0, AltMap.from_operator(t).entries)
    return HomotopyOperator(space, alg_graded.space, {1: comp})
