"""Exact-arithmetic tools for the generalized Hirzebruch family.

Three constructions of the same family of symplectic quasifolds, one per
subpackage theme: toric data from nonrational polytopes (polyhedron, fan,
quasilattice, delzant), the Gale dual and the leaf tables of its foliation
(gale, foliation), and nonrational symplectic cuts (cut).  The pipeline
module ties them together and checks they agree.
"""

from .scalar import (
    ONE,
    ParamSpec,
    Q,
    QuadScalar,
    ScalarContextError,
    ScalarDomainError,
    ZERO,
    format_scalar,
    parse_scalar,
    sqrt,
)
from .polyhedron import (
    HalfPlane,
    InfeasibleRegionError,
    NotPointedError,
    Polyhedron2,
    hrep_from_vrep,
    intersect_halfplane,
    polygon,
    vrep_from_hrep,
)
from .fan import Fan2, NonSimpleError, is_complete, is_rational, is_smooth, normal_fan
from .quasilattice import (
    GroupDesc,
    Quasilattice,
    hirzebruch_quasilattice,
    quotient_order,
    z2,
)
from .gale import (
    NotBalancedError,
    PointConfig,
    Triangulation,
    VectorConfig,
    VirtualChamber,
    augment_ghosts,
    chamber_from_triangulation,
    is_balanced,
    is_odd,
    is_polytopal,
    relation_basis,
)
from .delzant import (
    MomentComponent,
    PolytopeTriple,
    QuasifoldPresentation,
    moment_map_coeffs,
    presentation,
)
from .cut import (
    AmountTooLargeError,
    CutResult,
    NoOpCutError,
    blowup_corner,
    cut_polyhedron,
)
from .foliation import LeafReport, classify_leaves
from .pipeline import (
    PipelineInconsistency,
    ReportDocument,
    build_report,
    hirzebruch_vector_config,
    strip,
    strip_cut,
    trapezoid,
    triangle,
    triangle_blowup,
)

__version__ = "0.1.0"

__all__ = [
    "AmountTooLargeError",
    "CutResult",
    "Fan2",
    "GroupDesc",
    "HalfPlane",
    "InfeasibleRegionError",
    "LeafReport",
    "MomentComponent",
    "NoOpCutError",
    "NonSimpleError",
    "NotBalancedError",
    "NotPointedError",
    "ONE",
    "ParamSpec",
    "PipelineInconsistency",
    "PointConfig",
    "Polyhedron2",
    "PolytopeTriple",
    "Q",
    "QuadScalar",
    "QuasifoldPresentation",
    "Quasilattice",
    "ReportDocument",
    "ScalarContextError",
    "ScalarDomainError",
    "Triangulation",
    "VectorConfig",
    "VirtualChamber",
    "ZERO",
    "augment_ghosts",
    "blowup_corner",
    "build_report",
    "chamber_from_triangulation",
    "classify_leaves",
    "cut_polyhedron",
    "format_scalar",
    "hirzebruch_quasilattice",
    "hirzebruch_vector_config",
    "hrep_from_vrep",
    "intersect_halfplane",
    "is_balanced",
    "is_complete",
    "is_odd",
    "is_polytopal",
    "is_rational",
    "is_smooth",
    "moment_map_coeffs",
    "normal_fan",
    "parse_scalar",
    "polygon",
    "presentation",
    "quotient_order",
    "relation_basis",
    "sqrt",
    "strip",
    "strip_cut",
    "trapezoid",
    "triangle",
    "triangle_blowup",
    "vrep_from_hrep",
    "z2",
]
