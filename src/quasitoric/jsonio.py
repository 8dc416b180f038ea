"""JSON forms for every domain type.

Scalars always carry the exact (r, s, d) triple plus an advisory ``float``
field; consumers must treat the float as a convenience only.  It stays, as
it renders a value for a reader and repeats no other field.  Each writer
writes its object's own facts, so a report holds one copy of Gamma and P_a;
the ``cut`` command adds the kept piece and Gamma to the cut's own fields.
"""

from __future__ import annotations

from .cut import CutResult
from .delzant import MomentComponent, QuasifoldPresentation
from .fan import Fan2
from .foliation import LeafReport
from .gale import PointConfig, Triangulation, VectorConfig, VirtualChamber
from .polyhedron import HalfPlane, Polyhedron2, hrep_from_vrep, vrep_from_hrep
from .quasilattice import GroupDesc, Quasilattice
from .scalar import scalar_from_json, scalar_to_json


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _list(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key!r} must be a JSON list, got {type(value).__name__}")
    return value


def vec_to_json(v):
    return [scalar_to_json(v[0]), scalar_to_json(v[1])]


def vec_from_json(obj):
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ValueError("a vector must be a JSON list of two scalars")
    return (scalar_from_json(obj[0]), scalar_from_json(obj[1]))


def halfplane_to_json(h: HalfPlane):
    return {"normal": vec_to_json(h.normal), "offset": scalar_to_json(h.offset)}


def halfplane_from_json(obj) -> HalfPlane:
    obj = _object(obj, "a half-plane")
    return HalfPlane(vec_from_json(obj["normal"]), scalar_from_json(obj["offset"]))


def polyhedron_to_json(p: Polyhedron2):
    return {
        "hrep": [halfplane_to_json(h) for h in p.hrep],
        "vertices": [vec_to_json(v) for v in p.vertices],
        "rays": [vec_to_json(r) for r in p.rays],
        "bounded": p.bounded,
        "simple": p.simple,
    }


MAX_ENTRIES = 32  # the enumeration's work grows fast in them


class TooLargeError(ValueError):
    """More than ``MAX_ENTRIES`` half-planes, vertices plus rays or vectors, as given."""


def polyhedron_from_json(obj) -> Polyhedron2:
    obj = _object(obj, "a polyhedron")
    hrep = _list(obj, "hrep")
    verts, rays = ([], []) if hrep else (_list(obj, "vertices"), _list(obj, "rays"))
    if len(hrep) + len(verts) + len(rays) > MAX_ENTRIES:
        raise TooLargeError(f"more than {MAX_ENTRIES} {'half-planes' if hrep else 'vertices and rays'}")
    if hrep:
        return vrep_from_hrep([halfplane_from_json(h) for h in hrep])
    return vrep_from_hrep(hrep_from_vrep([vec_from_json(v) for v in verts], [vec_from_json(r) for r in rays]))


def fan_to_json(f: Fan2):
    return {
        "ray_generators": [vec_to_json(g) for g in f.ray_generators],
        "maximal_cones": [sorted(c) for c in f.maximal_cones],
    }


def quasilattice_to_json(q: Quasilattice):
    return {
        "generators": [vec_to_json(g) for g in q.generators],
        "param": scalar_to_json(q.param.value) if q.param else None,
    }


def group_to_json(g: GroupDesc):
    return {
        "kind": g.kind,
        "order": g.order,
        "rotation_coefficient": scalar_to_json(g.rotation_coefficient)
        if g.rotation_coefficient is not None
        else None,
    }


def vector_config_to_json(v: VectorConfig):
    return {
        "vectors": [vec_to_json(x) for x in v.vectors],
        "ghost_indices": sorted(v.ghost_indices),
    }


def vector_config_from_json(obj) -> VectorConfig:
    obj = _object(obj, "a vector configuration")
    if len(_list(obj, "vectors")) > MAX_ENTRIES:  # the relation basis costs about n^3
        raise TooLargeError(f"more than {MAX_ENTRIES} vectors")
    vectors = tuple(vec_from_json(x) for x in _list(obj, "vectors"))
    ghosts = _list(obj, "ghost_indices")
    if not all(type(i) is int and 1 <= i <= len(vectors) for i in ghosts):
        raise ValueError(f"'ghost_indices' must be a JSON list of integers in 1..{len(vectors)}")
    return VectorConfig(vectors, frozenset(ghosts))


def point_config_to_json(p: PointConfig):
    return {"points": [vec_to_json(x) for x in p.points]}


def matrix_to_json(rows):
    return [[scalar_to_json(x) for x in row] for row in rows]


def subsets_to_json(x: Triangulation | VirtualChamber):
    """A triangulation's or a virtual chamber's subsets, each sorted."""
    return {"subsets": sorted(sorted(s) for s in x.subsets)}


def component_to_json(c: MomentComponent):
    return {
        "coefficients": [scalar_to_json(x) for x in c.coefficients],
        "constant": scalar_to_json(c.constant),
        "equation": c.render(),
    }


def presentation_to_json(p: QuasifoldPresentation):
    return {
        "facet_count": p.facet_count,
        "relation_rows": matrix_to_json(p.relation_rows),
        "level_components": [component_to_json(c) for c in p.level_components],
        "group_phase_map": p.group_phases(),
        "quasitorus": p.quasitorus,
        "divisor_orders": [list(x) for x in p.divisor_orders],
    }


def cut_result_to_json(r: CutResult):
    """The cut's own fields: a report's ``polytope`` and ``gamma`` are its kept piece and Gamma."""
    return {
        "other_piece": polyhedron_to_json(r.other_piece),
        "reduced_face": polyhedron_to_json(r.reduced_face),
        "augmented_quasilattice": quasilattice_to_json(r.augmented_quasilattice),
        "cut_halfplane": halfplane_to_json(r.cut_halfplane),
    }


def leaf_report_to_json(r: LeafReport):
    return {
        "generic_leaf": r.generic_leaf,
        "generic_closure": r.generic_closure,
        "special_leaf_generic_stratum": r.special_leaf_generic_stratum,
        "special_leaf_degenerate_stratum": r.special_leaf_degenerate_stratum,
        "covering_degree": r.covering_degree,
        "notes": list(r.notes),
    }
