"""Exact invariants of plane line arrangements with double and triple points:
monodromy eigenspaces of the Milnor fiber, reduced-pencil decompositions,
resonance components, and cube Catalan equations over function fields."""

from .eisenstein import EisensteinNumber, ParseError, parse_eisenstein, OMEGA, OMEGA2, MU3
from .forms import (
    HomForm,
    UniPoly,
    product_of_linear_forms,
    squarefree_cube_split,
    squarefree_decomposition,
    uni_gcd,
)
from .arrangement import (
    Arrangement,
    CombinatorialType,
    IncidencePoint,
    Line,
    MultiplicityError,
    combinatorial_type,
    intersection_points,
    point_census,
    proj_transform,
    require_multiplicities_ok,
)
from .milnor import MilnorReport, milnor_report, superabundance
from .pencils import PencilDecomposition, beta3, find_pencils
from .resonance import (
    component_isotropy_check,
    pencil_basis,
    resonance_kernel_dim,
    triple_point_basis,
    wedge_vanishes,
)
from .catalan import (
    DescentObstruction,
    QuasiToricRelation,
    base_solution,
    descend_step,
    generate_solutions,
    pullback_solution,
    relations_equivalent,
    verify_relation,
)

__all__ = [
    "Arrangement",
    "CombinatorialType",
    "DescentObstruction",
    "EisensteinNumber",
    "HomForm",
    "IncidencePoint",
    "Line",
    "MilnorReport",
    "MultiplicityError",
    "MU3",
    "OMEGA",
    "OMEGA2",
    "ParseError",
    "PencilDecomposition",
    "QuasiToricRelation",
    "UniPoly",
    "base_solution",
    "beta3",
    "combinatorial_type",
    "component_isotropy_check",
    "descend_step",
    "find_pencils",
    "generate_solutions",
    "intersection_points",
    "milnor_report",
    "parse_eisenstein",
    "pencil_basis",
    "point_census",
    "product_of_linear_forms",
    "proj_transform",
    "pullback_solution",
    "relations_equivalent",
    "require_multiplicities_ok",
    "resonance_kernel_dim",
    "squarefree_cube_split",
    "squarefree_decomposition",
    "superabundance",
    "triple_point_basis",
    "uni_gcd",
    "verify_relation",
    "wedge_vanishes",
]
