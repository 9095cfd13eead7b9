"""Exact-arithmetic toolkit for almost contact metric structures on Lie
algebras: classification, weighted Heisenberg normal forms, Chevalley-
Eilenberg cohomology, and closed invariant 2-forms on reductive splits.

Sign convention everywhere: d eta(X, Y) = -eta([X, Y]).
"""

from .acm import (
    AcmStructure,
    classify_structure,
    closedness_suite,
    curvature,
    double_aqs_check,
    levi_civita,
    nijenhuis_phi,
    operators_A_psi,
    sectional_curvature,
    structure_rank,
    validate_acm,
    xi_killing_check,
)
from .adapted import AdaptedFrame, adapted_frame
from .classifier import HeisenbergIso, classify_nilpotent_aqs, classify_nilpotent_qs
from .constructors import (
    Cocycle,
    KahlerLieAlgebra,
    abelian,
    central_extension,
    invariance_type,
    kahler,
    standard_kahler,
    su2,
    su3,
    weighted_heisenberg_2n1,
    weighted_heisenberg_4n1,
)
from .exterior import KForm, ce_betti, ce_d, rank_of_eta, theta, wedge
from .invariant_forms import (
    ReductiveSplit,
    centralizer_of_torus,
    invariant_closed_2forms,
    moment_element,
    reductive_split,
    type_11_check,
)
from .lie_core import (
    LieAlgebra,
    bracket,
    center,
    derivations,
    jacobi_check,
    killing_form,
    lower_central_series,
)
from .linalg import Subspace

__version__ = "0.1.0"

__all__ = [
    "AcmStructure",
    "AdaptedFrame",
    "Cocycle",
    "HeisenbergIso",
    "KForm",
    "KahlerLieAlgebra",
    "LieAlgebra",
    "ReductiveSplit",
    "Subspace",
    "abelian",
    "adapted_frame",
    "bracket",
    "ce_betti",
    "ce_d",
    "center",
    "central_extension",
    "centralizer_of_torus",
    "classify_nilpotent_aqs",
    "classify_nilpotent_qs",
    "classify_structure",
    "closedness_suite",
    "curvature",
    "derivations",
    "double_aqs_check",
    "invariance_type",
    "invariant_closed_2forms",
    "jacobi_check",
    "kahler",
    "killing_form",
    "levi_civita",
    "lower_central_series",
    "moment_element",
    "nijenhuis_phi",
    "operators_A_psi",
    "rank_of_eta",
    "reductive_split",
    "sectional_curvature",
    "standard_kahler",
    "structure_rank",
    "su2",
    "su3",
    "theta",
    "type_11_check",
    "validate_acm",
    "weighted_heisenberg_2n1",
    "weighted_heisenberg_4n1",
    "wedge",
    "xi_killing_check",
]
