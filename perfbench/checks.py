"""Correctness checks, one per op, independent of the layers under test.

Each check reads the program's JSON output with the benchmark's own exact
arithmetic (``exact``) and compares it with what the input was built to
give.  It returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math

from . import exact as X


def _vertices(poly_json):
    return [X.vec_from_json(v) for v in poly_json["vertices"]]


def _is_rational(a) -> bool:
    return a[2] is None


def check_report(doc, a):
    if X.from_json(doc["a"]) != a:
        return "report is for another parameter"
    verts = _vertices(doc["polytope"])
    want = {(X.ZERO, X.ZERO), (X.ONE, X.ZERO), (X.add(a, X.ONE), X.ONE), (X.ZERO, X.ONE)}
    if len(verts) != 4 or set(verts) != want:
        return "P_a vertices are not (0,0), (1,0), (a+1,1), (0,1)"
    gamma = doc["gamma"]
    if not _is_rational(a):
        kind, order = "dense_cyclic", None
    elif a[0].denominator == 1:
        kind, order = "trivial", None
    else:
        kind, order = "finite_cyclic", a[0].denominator
    if gamma["kind"] != kind or gamma["order"] != order:
        return f"gamma is {gamma['kind']}/{gamma['order']}, expected {kind}/{order}"
    if doc["polytopal"] is not True:
        return "chamber reported not polytopal"
    if doc["fan_predicates"]["smooth_in_z2"] != X.is_integer(a):
        return "smooth_in_z2 disagrees with the integrality of a"
    return None


# -- polygons -------------------------------------------------------------------


def _feasible(v, hrep) -> bool:
    return all(X.sign(X.sub(X.dot(v, n), c)) >= 0 for n, c in hrep)


def _tight(v, hrep) -> int:
    return sum(1 for n, c in hrep if X.sign(X.sub(X.dot(v, n), c)) == 0)


def _check_piece(piece, n_vertices, n_rays, hrep, what):
    """The expected vertex and ray counts, and every vertex satisfies every
    constraint and is tight on exactly two (the constructions keep implied
    constraints strictly loose)."""
    verts = _vertices(piece)
    if len(verts) != n_vertices or len(set(verts)) != n_vertices:
        return f"{what}: {len(verts)} vertices, expected {n_vertices}"
    if len(piece["rays"]) != n_rays:
        return f"{what}: {len(piece['rays'])} rays, expected {n_rays}"
    for v in verts:
        if not _feasible(v, hrep):
            return f"{what}: a vertex violates a constraint"
        if _tight(v, hrep) != 2:
            return f"{what}: a vertex is not tight on exactly two constraints"
    return None


def check_polygon_normal_fan(doc, poly):
    gens = [X.vec_from_json(g) for g in doc["ray_generators"]]
    facet_normals = {poly.hrep[i][0] for i in poly.facets}
    if len(gens) != len(poly.facets) or set(gens) != facet_normals:
        return f"fan has {len(gens)} rays, expected the {len(poly.facets)} facet normals"
    cones = {frozenset((gens[i], gens[j])) for i, j in doc["maximal_cones"]}
    want = {frozenset((poly.hrep[a][0], poly.hrep[b][0])) for a, b in poly.vertex_facets}
    if len(doc["maximal_cones"]) != len(poly.vertices) or cones != want:
        return "maximal cones do not pair the facets at each vertex"
    return None


def check_polygon_blowup(doc, poly, vertex, nu, amount):
    chop = (nu, X.add(X.dot(vertex, nu), amount))
    hrep = poly.hrep + [chop]
    err = _check_piece(doc, len(poly.vertices) + 1, len(poly.rays), hrep, "blow-up")
    if err:
        return err
    if len(doc["hrep"]) != len(poly.facets) + 1:
        return f"blow-up has {len(doc['hrep'])} facets, expected {len(poly.facets) + 1}"
    if vertex in _vertices(doc):
        return "blow-up kept the chopped vertex"
    return None


def _gamma_kind(nu):
    if any(x[2] is not None for x in nu):
        return "dense_cyclic", None
    dens = [x[0].denominator for x in nu]
    order = math.lcm(*dens)
    return ("trivial", None) if order == 1 else ("finite_cyclic", order)


def check_polygon_cut(doc, poly, nu, level):
    values = [X.sign(X.sub(X.dot(v, nu), level)) for v in poly.vertices]
    keep = (nu, level)
    other = ((X.neg(nu[0]), X.neg(nu[1])), X.neg(level))
    above, below = values.count(1), values.count(-1)
    for key, n_vertices, extra in (
        ("kept_piece", above + 2, [keep]),
        ("other_piece", below + 2, [other]),
        ("reduced_face", 2, [keep, other]),
    ):
        piece = doc[key]
        verts = _vertices(piece)
        if len(verts) != n_vertices or piece["rays"]:
            return f"{key}: {len(verts)} vertices and {len(piece['rays'])} rays, expected {n_vertices} and 0"
        for v in verts:
            if not _feasible(v, poly.hrep + extra):
                return f"{key}: a vertex violates a constraint"
            # on the face, the cut line counts once though it is two constraints
            if _tight(v, poly.hrep + extra[:1]) != 2:
                return f"{key}: a vertex is not tight on exactly two constraints"
        if key != "reduced_face" and len(piece["hrep"]) != n_vertices:
            return f"{key}: {len(piece['hrep'])} facets for {n_vertices} vertices"
    gamma = doc["gamma"]
    kind, order = _gamma_kind(nu)
    if gamma["kind"] != kind or gamma["order"] != order:
        return f"cut gamma is {gamma['kind']}/{gamma['order']}, expected {kind}/{order}"
    return None


def check(op, rc, out: bytes) -> str | None:
    """The verdict on one op's exit code and stdout."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "stdout is not one JSON document"
    e = op.expect
    try:
        if "polygon" in e:
            poly = e["polygon"]
            if op.kind == "normal-fan":
                return check_polygon_normal_fan(doc, poly)
            if op.kind == "cut":
                return check_polygon_cut(doc, poly, e["nu"], e["level"])
            return check_polygon_blowup(doc, poly, e["vertex"], e["nu"], e["amount"])
        return check_report(doc, e["a"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"output does not have the expected form: {type(exc).__name__}: {exc}"
