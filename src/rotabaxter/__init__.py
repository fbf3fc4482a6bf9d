"""Exact verification of Rota-Baxter and O-operator identities, their
Maurer-Cartan characterizations, and graded/homotopy generalizations."""

from .combinatorics import koszul_sign, multinomial, sign, unshuffles
from .deformation import (
    AltMap,
    courant_bracket,
    d_T,
    deformation_check,
    mc_residual,
)
from .graded import (
    GradedRepresentation,
    GradedVectorSpace,
    SGLA,
    adjoint_graded,
    check_graded_rep,
    check_sdgla,
    check_sgla,
    from_lie,
    from_representation,
    graded_space,
    sgla,
)
from .homotopy import (
    GradedHookedMap,
    GradedHookFamily,
    GradedSymFamily,
    GradedSymMap,
    HomotopyOperator,
    PreLieInfinity,
    check_prelie_infinity,
    check_psi_homomorphism,
    graded_bracket,
    homotopy_oop_residual,
    hook_bracket,
    induce_prelie_infinity,
    is_homotopy_oop,
    mc_check_homotopy,
    psi,
    psi_homomorphism_defect,
)
from .lie import (
    LieAlgebra,
    LinearOperator,
    Representation,
    adjoint,
    check_lie,
    check_representation,
    is_rota_baxter,
    lie_algebra,
    oop_defect,
    operator,
    search_rbo,
)
from .prelie import (
    HookedMap,
    PreLieProduct,
    check_phi_homomorphism,
    check_prelie,
    circ,
    induce_prelie,
    mn_bracket,
    phi,
    phi_homomorphism_defect,
    prelie_product,
)
from .reports import Report

__version__ = "0.1.0"
