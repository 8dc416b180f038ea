"""The full generalized-Hirzebruch pipeline for a parameter a > 0.

Builds the trapezoid, its normal fan and quasilattice, the balanced vector
configuration and its dual point configuration, the quasifold presentation,
the strip cut, the triangle blow-up, and the leaf classification, and checks
that the three polytope constructions agree.
Each fact has one owner: the strip and the cut half-plane, for P_a, T_a
and the strip cut; one triple, whose normals are checked in Q_a once;
Q_a and Gamma_a, the strip cut's, for the report's one ``quasilattice``
and ``gamma`` and all their users, as P_a is its one ``polytope``; and V_a's
relation rows, the Gale side's, for the moment map and the phase map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import jsonio
from .cut import CutResult, blowup_corner, cut_polyhedron
from .delzant import (
    MomentComponent,
    PolytopeTriple,
    QuasifoldPresentation,
    moment_map_coeffs,
    presentation,
)
from .fan import Fan2, is_complete, is_rational, is_smooth, normal_fan
from .foliation import LeafReport, classify_leaves
from .gale import (
    PointConfig,
    Triangulation,
    VectorConfig,
    VirtualChamber,
    augment_ghosts,
    chamber_from_triangulation,
    gale_points,
    is_balanced,
    is_polytopal,
    relation_basis,
    relations_odd,
)
from .linalg import Vec2
from .polyhedron import HalfPlane, Polyhedron2, vrep_from_hrep
from .quasilattice import Quasilattice, z2
from .scalar import ParamSpec, Q, QuadScalar


class PipelineInconsistency(RuntimeError):
    """The three polytope constructions disagree."""


# the moment image of C x S^2: x >= 0, y >= 0, y <= 1
_STRIP = (HalfPlane((Q(1), Q(0)), Q(0)), HalfPlane((Q(0), Q(1)), Q(0)), HalfPlane((Q(0), Q(-1)), Q(-1)))


def cut_halfplane(a: ParamSpec) -> HalfPlane:
    """<mu, (-1, a)> >= -1, i.e. x <= a*y + 1: the cut that gives F_a."""
    return HalfPlane((Q(-1), a.value), Q(-1))


def trapezoid_halfplanes(a: ParamSpec) -> list[HalfPlane]:
    """P_a's: the strip's half-planes, then the cut."""
    return [*_STRIP, cut_halfplane(a)]


def trapezoid(a: ParamSpec) -> Polyhedron2:
    """P_a: vertices (0,0), (0,1), (a+1,1), (1,0)."""
    return vrep_from_hrep(trapezoid_halfplanes(a))


@functools.cache
def strip() -> Polyhedron2:
    """[0, inf) x [0, 1], the same for every a: enumerated once per process
    and shared, which is safe because ``Polyhedron2`` is frozen."""
    return vrep_from_hrep(list(_STRIP))


def triangle(a: ParamSpec) -> Polyhedron2:
    """T_a: vertices (0,-1/a), (0,1), (a+1,1); the weighted projective
    polytope whose corner chop gives P_a: P_a's half-planes without y >= 0."""
    x_min, _, y_max, cut = trapezoid_halfplanes(a)
    return vrep_from_hrep([x_min, y_max, cut])


def triangulation_from_fan(fan: Fan2) -> Triangulation:
    """Maximal pairs from the fan's cones (1-based), plus singletons and
    the empty face."""
    subsets = {frozenset((i + 1, j + 1)) for i, j in fan.maximal_cones}
    for i in range(len(fan.ray_generators)):
        subsets.add(frozenset((i + 1,)))
    subsets.add(frozenset())
    return Triangulation(frozenset(subsets))


def five_constraint_triple(p: Polyhedron2, qa: Quasilattice, a: ParamSpec) -> PolytopeTriple:
    """The trapezoid triple (P_a, Q_a) with the extra half-plane -a*y >= -2a."""
    av = a.value
    return PolytopeTriple(p, qa, (HalfPlane((Q(0), -av), Q(-2) * av),))


@dataclass(frozen=True)
class GaleSide:
    """V_a, whether it is balanced, its relation basis and whether that
    makes V_a odd, the dual points Lambda read off that basis, and the
    chamber of the fan's triangulation with its polytopality witness."""

    vector_config: VectorConfig
    balanced: bool
    relation_matrix: tuple[tuple[QuadScalar, ...], ...]
    odd: bool
    gale_points: PointConfig
    triangulation: Triangulation
    chamber: VirtualChamber
    polytopal: bool
    witness: Vec2 | None


def gale_side(fan: Fan2) -> GaleSide:
    """The Gale-dual side of F_a, for the normal fan of P_a: V_a is its rays,
    the facet normals of P_a in hrep order, (1,0), (0,1), (0,-1), (-1,a),
    and the ghost (0,-a) that balances them."""
    vc = augment_ghosts(VectorConfig(fan.ray_generators))
    rows = tuple(tuple(r) for r in relation_basis(vc))
    lam = gale_points(rows)
    tri = triangulation_from_fan(fan)
    chamber = chamber_from_triangulation(tri, len(vc))
    polytopal, witness = is_polytopal(lam, chamber)
    return GaleSide(vc, is_balanced(vc), rows, relations_odd(rows), lam, tri, chamber,
                    polytopal, witness)


MOMENT_CONSTANT_NOTE = (
    "moment map: the component with coefficients (1,0,a,1,0) has constant "
    "-(1+a), from pairing coefficients with the facet offsets; the variant "
    "constant -1+a is inconsistent with the level equation "
    "|z1|^2+a|z3|^2+|z4|^2 = 1+a and is not used"
)


@dataclass(frozen=True)
class ReportDocument:
    a: ParamSpec
    polytope: Polyhedron2
    fan: Fan2
    fan_is_complete: bool
    fan_rational_in_z2: bool
    fan_rational_in_qa: bool
    fan_smooth_in_z2: bool
    gale: GaleSide
    presentation: QuasifoldPresentation
    moment_components: tuple[MomentComponent, ...]
    cut: CutResult
    blowup_polytope: Polyhedron2
    leaf_report: LeafReport

    def to_json(self) -> dict:
        g = self.gale
        return {
            "a": jsonio.scalar_to_json(self.a.value),
            "polytope": jsonio.polyhedron_to_json(self.polytope),
            "fan": jsonio.fan_to_json(self.fan),
            "fan_predicates": {
                "complete": self.fan_is_complete,
                "rational_in_z2": self.fan_rational_in_z2,
                "rational_in_qa": self.fan_rational_in_qa,
                "smooth_in_z2": self.fan_smooth_in_z2,
            },
            "quasilattice": jsonio.quasilattice_to_json(self.cut.augmented_quasilattice),
            "gamma": jsonio.group_to_json(self.cut.gamma),
            "vector_config": jsonio.vector_config_to_json(g.vector_config),
            "vector_config_balanced": g.balanced,
            "vector_config_odd": g.odd,
            "triangulation": jsonio.subsets_to_json(g.triangulation),
            "relation_matrix": jsonio.matrix_to_json(g.relation_matrix),
            "gale_points": jsonio.point_config_to_json(g.gale_points),
            "chamber": jsonio.subsets_to_json(g.chamber),
            "polytopal": g.polytopal,
            "polytopal_witness": jsonio.vec_to_json(g.witness) if g.witness else None,
            "presentation": jsonio.presentation_to_json(self.presentation),
            "moment_components": [
                jsonio.component_to_json(c) for c in self.moment_components
            ],
            "cut": jsonio.cut_result_to_json(self.cut),
            "blowup_polytope": jsonio.polyhedron_to_json(self.blowup_polytope),
            "leaf_report": jsonio.leaf_report_to_json(self.leaf_report),
            "warnings": [MOMENT_CONSTANT_NOTE],
        }


def strip_cut(a: ParamSpec, lattice: Quasilattice) -> CutResult:
    """Cut the strip by ``cut_halfplane(a)`` over the lattice (Z^2 for F_a)."""
    h = cut_halfplane(a)
    return cut_polyhedron(strip(), lattice, h.normal, h.offset)


def triangle_blowup(a: ParamSpec) -> Polyhedron2:
    """Blow up T_a at (0, -1/a) of amount 1/a: chop with y >= 0."""
    inv_a = Q(1) / a.value
    return blowup_corner(triangle(a), (Q(0), -inv_a), (Q(0), Q(1)), inv_a)


def build_report(a: ParamSpec) -> ReportDocument:
    p = trapezoid(a)
    fan = normal_fan(p)
    lattice = z2()
    gale = gale_side(fan)
    cut_result = strip_cut(a, lattice)
    qa = cut_result.augmented_quasilattice
    triple = five_constraint_triple(p, qa, a)
    components = moment_map_coeffs(triple.halfplanes(), gale.relation_matrix)
    # P_a's relation rows: V_a's below the all-ones one, without the ghost column (0 there)
    d, rows = len(fan.ray_generators), gale.relation_matrix[1:]
    if any(not b.is_zero() for row in rows for b in row[d:]):
        raise PipelineInconsistency(f"a relation of V_a is nonzero at its ghost for a = {a}")
    pres = presentation(triple, [row[:d] for row in rows], cut_result.gamma)
    blowup = triangle_blowup(a)

    same_cut = cut_result.kept_piece.same_region(p)
    same_blow = blowup.same_region(p)
    if not (same_cut and same_blow):
        raise PipelineInconsistency(
            f"polytope constructions disagree for a = {a}: "
            f"cut match {same_cut}, blow-up match {same_blow}"
        )

    return ReportDocument(
        a=a,
        polytope=p,
        fan=fan,
        fan_is_complete=is_complete(fan),
        fan_rational_in_z2=is_rational(fan, lattice),
        fan_rational_in_qa=is_rational(fan, qa),
        fan_smooth_in_z2=is_smooth(fan, lattice),
        gale=gale,
        presentation=pres,
        moment_components=tuple(components),
        cut=cut_result,
        blowup_polytope=blowup,
        leaf_report=classify_leaves(cut_result.gamma),
    )
