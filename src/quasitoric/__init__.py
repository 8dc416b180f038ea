"""Exact-arithmetic tools for the generalized Hirzebruch family.

Three constructions of the same family of symplectic quasifolds, one per
subpackage theme: toric data from nonrational polytopes (polyhedron, fan,
quasilattice, delzant), the Gale dual and the leaf tables of its foliation
(gale, foliation), and nonrational symplectic cuts (cut).  The pipeline
module ties them together and checks they agree; ``quasitoric.cli`` is the
command line.  The top level exports only the names the benchmark's kernels
read; everything else is imported from its module.
"""

from .polyhedron import HalfPlane, vrep_from_hrep
from .quasilattice import hirzebruch_quasilattice
from .scalar import ParamSpec, Q, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "HalfPlane",
    "ParamSpec",
    "Q",
    "hirzebruch_quasilattice",
    "parse_scalar",
    "vrep_from_hrep",
]
