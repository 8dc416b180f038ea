"""Exact 2D convex polyhedra: half-plane (H) and vertex+ray (V) descriptions.

Polyhedra may be unbounded but must be pointed (have at least one vertex).
Vertex enumeration intersects every pair of the n boundary lines and keeps
the points that satisfy all n constraints, O(n^3) exact steps.  Redundant
constraints go in one pass: one strictly loose at every vertex costs a slack
test, and only one that touches the region pays another enumeration.  So an
irredundant n-gon still costs about n^3.4 (measured from n = 4 to n = 24).

A region without a vertex is either empty or unpointed.  A nonempty region
whose normals span the plane is pointed, so the enumeration would have found
a vertex: two nonparallel normals mean the region is empty.  When all
normals are parallel to n0, each constraint bounds <mu, n0> from one side,
and the region (a half-plane, slab or line) is nonempty iff the largest
lower bound is at most the smallest upper bound.

``split(p, h)`` clips P against h's line as Sutherland and Hodgman clip a
polygon: one walk of P's edges gives both pieces and the face of P on the
line, with no enumeration.  It needs an irredundant ``p.hrep`` (as
``vrep_from_hrep`` returns) and P with an interior, and then equals the
enumeration of ``p.hrep`` plus h, plus h.flipped(), or plus both.

``chop_vertex(p, v, h)`` gives P cap h without an enumeration when h cuts
off only the vertex v: the two constraints tight at v meet h's line at the
two new vertices, in O(n) exact steps plus the ccw sort, and O(n^2) for
the rays of an unbounded P.  It needs an irredundant ``p.hrep``, P with an
interior, v strictly outside h, every other vertex strictly inside h, no
ray of P with <r, h.normal> < 0, and neither constraint tight at v parallel
to h's line; then it equals ``vrep_from_hrep(list(p.hrep) + [h])``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .linalg import Vec2, cross, dot, is_zero_vec, rot90, smul, solve2x2, vneg, vsub
from .scalar import Q, QuadScalar


class InfeasibleRegionError(ValueError):
    """The half-plane system has empty intersection."""


class NotPointedError(ValueError):
    """The region is nonempty but has no vertex (full plane, slab, ...)."""


class NoOpCutError(ValueError):
    """The cutting line misses the interior of the polyhedron, or the
    polyhedron has none."""


@dataclass(frozen=True)
class HalfPlane:
    """The constraint <mu, normal> >= offset, with inward-pointing normal."""

    normal: Vec2
    offset: QuadScalar

    def __post_init__(self):
        if is_zero_vec(self.normal):
            raise ValueError("half-plane normal must be nonzero")
        object.__setattr__(self, "offset", Q(self.offset))

    def slack(self, point: Vec2) -> QuadScalar:
        return dot(point, self.normal) - self.offset

    def holds(self, point: Vec2) -> bool:
        return self.slack(point).sign() >= 0

    def tight(self, point: Vec2) -> bool:
        return self.slack(point).is_zero()

    def flipped(self) -> "HalfPlane":
        return HalfPlane(vneg(self.normal), -self.offset)

    def _key(self):
        # scale-normalized key for duplicate detection only; the stored
        # normal is data and is never rescaled
        n, o = self.normal, self.offset
        lead = n[0] if not n[0].is_zero() else n[1]
        inv = lead.inv()
        return (n[0] * inv, n[1] * inv, o * inv, lead.sign())


def _dedup_halfplanes(hrep):
    seen = set()
    out = []
    for h in hrep:
        k = h._key()
        if k not in seen:
            seen.add(k)
            out.append(h)
    return out


def _angle_class(v: Vec2) -> int:
    """0 for the upper half turn (includes +x axis), 1 for the lower."""
    s1 = v[1].sign()
    if s1 > 0 or (s1 == 0 and v[0].sign() > 0):
        return 0
    return 1


def _angle_cmp(u: Vec2, v: Vec2) -> int:
    cu, cv = _angle_class(u), _angle_class(v)
    if cu != cv:
        return -1 if cu < cv else 1
    c = cross(u, v).sign()
    return -c


def sort_by_angle(vectors: list[Vec2]) -> list[Vec2]:
    """Counterclockwise angular order starting from the +x axis."""
    return sorted(vectors, key=functools.cmp_to_key(_angle_cmp))


def _lex_cmp(p: Vec2, q: Vec2) -> int:
    for a, b in zip(p, q):
        s = (a - b).sign()
        if s:
            return s
    return 0


def _order_ccw(points: list[Vec2]) -> list[Vec2]:
    if len(points) <= 2:
        return sorted(points, key=functools.cmp_to_key(_lex_cmp))
    n = len(points)
    cx = points[0][0]
    cy = points[0][1]
    for p in points[1:]:
        cx = cx + p[0]
        cy = cy + p[1]
    centroid = (cx / n, cy / n)
    rel = sorted(points, key=functools.cmp_to_key(
        lambda p, q: _angle_cmp(vsub(p, centroid), vsub(q, centroid))))
    # rotate so the lexicographically smallest vertex comes first
    best = 0
    for i in range(1, n):
        if _lex_cmp(rel[i], rel[best]) < 0:
            best = i
    return rel[best:] + rel[:best]


def _canonical_ray(r: Vec2) -> Vec2:
    lead = r[0] if not r[0].is_zero() else r[1]
    return smul(abs(lead).inv(), r)


@dataclass(frozen=True)
class Polyhedron2:
    """A pointed 2D convex polyhedron; vertices counterclockwise, plus
    recession-ray directions when unbounded."""

    hrep: tuple[HalfPlane, ...]
    vertices: tuple[Vec2, ...]
    rays: tuple[Vec2, ...] = field(default_factory=tuple)

    @property
    def bounded(self) -> bool:
        return not self.rays

    @property
    def simple(self) -> bool:
        return all(
            sum(1 for h in self.hrep if h.tight(v)) == 2 for v in self.vertices
        )

    def contains(self, point: Vec2) -> bool:
        return all(h.holds(point) for h in self.hrep)

    def area(self) -> QuadScalar:
        if not self.bounded:
            raise ValueError("area of an unbounded polyhedron")
        total = Q(0)
        vs = self.vertices
        for i in range(len(vs)):
            total = total + cross(vs[i], vs[(i + 1) % len(vs)])
        return abs(total) / 2

    def same_region(self, other: "Polyhedron2") -> bool:
        return (
            set(self.vertices) == set(other.vertices)
            and {_canonical_ray(r) for r in self.rays}
            == {_canonical_ray(r) for r in other.rays}
        )

    def __eq__(self, other):
        if not isinstance(other, Polyhedron2):
            return NotImplemented
        return self.vertices == other.vertices and self.rays == other.rays

    def __hash__(self):
        return hash((self.vertices, self.rays))


def _recession_rays(hrep: list[HalfPlane]) -> list[Vec2]:
    candidates = []
    for h in hrep:
        for r in (rot90(h.normal), vneg(rot90(h.normal))):
            if all(dot(r, g.normal).sign() >= 0 for g in hrep):
                candidates.append(_canonical_ray(r))
    out = []
    for r in candidates:
        if r not in out:
            out.append(r)
    return out


def _drop_redundant(hrep: list[HalfPlane], verts: list[Vec2]) -> list[HalfPlane]:
    """Drop the redundant constraints of the pointed region P with vertices
    ``verts`` in one left-to-right pass.

    A constraint strictly loose at every vertex of P goes without an
    enumeration: the least slack over P is reached at a vertex, so its line
    misses P.  Any other constraint is redundant iff the region of the
    others (which must have a vertex) is inside it.  A drop leaves the
    region equal to P, so a kept constraint stays needed: no restart.
    """
    kept, idx = list(hrep), 0
    while idx < len(kept):
        h, others = kept[idx], kept[:idx] + kept[idx + 1 :]
        if all(h.slack(v).sign() > 0 for v in verts) or (
            (cands := _candidate_vertices(others))
            and all(h.holds(v) for v in cands)
            and all(dot(r, h.normal).sign() >= 0 for r in _recession_rays(others))
        ):
            kept.pop(idx)
        else:
            idx += 1
    return kept


def _candidate_vertices(hrep: list[HalfPlane]) -> list[Vec2]:
    pts = []
    for i in range(len(hrep)):
        for j in range(i + 1, len(hrep)):
            p = solve2x2(hrep[i].normal, hrep[j].normal,
                         (hrep[i].offset, hrep[j].offset))
            if p is None:
                continue
            if all(h.holds(p) for h in hrep) and p not in pts:
                pts.append(p)
    return pts


def _vertexless_error(hrep: list[HalfPlane]) -> ValueError:
    """Empty or unpointed, for a region without a vertex (module docstring)."""
    n0 = hrep[0].normal if hrep else None
    lower, upper = [], []
    for h in hrep:
        if not cross(h.normal, n0).is_zero():
            return InfeasibleRegionError("constraints have empty intersection")
        # bounds <mu, n0> / |n0|^2 by offset / s, from below iff s > 0
        s = dot(h.normal, n0)
        (lower if s.sign() > 0 else upper).append(h.offset / s)
    if lower and upper and max(lower) > min(upper):
        return InfeasibleRegionError("constraints have empty intersection")
    return NotPointedError("region has no vertex")


def vrep_from_hrep(hrep: list[HalfPlane]) -> Polyhedron2:
    """Enumerate vertices and recession rays of a half-plane intersection.

    Raises InfeasibleRegionError for empty regions and NotPointedError for
    nonempty regions without a vertex.
    """
    hrep = _dedup_halfplanes(hrep)
    verts = _candidate_vertices(hrep)
    if not verts:
        raise _vertexless_error(hrep)
    rays = _recession_rays(hrep)
    hrep = _drop_redundant(hrep, verts)
    return Polyhedron2(tuple(hrep), tuple(_order_ccw(verts)), tuple(rays))


def flat_direction(vertices, rays) -> Vec2 | None:
    """A direction e along which every vertex difference and ray lies, when
    conv(vertices) + cone(rays) is flat ((1, 0) for a point); None when it
    has an interior."""
    dirs = [d for d in [vsub(v, vertices[0]) for v in vertices[1:]] + list(rays)
            if not is_zero_vec(d)]
    e = dirs[0] if dirs else (Q(1), Q(0))
    return e if all(cross(e, d).is_zero() for d in dirs) else None


def hrep_from_vrep(vertices: list[Vec2], rays: list[Vec2] = ()) -> list[HalfPlane]:
    """Facet constraints of conv(vertices) + cone(rays); needs >= 1 vertex.

    A flat input, whose vertex differences and rays all lie along one
    direction e, gets an end cap <mu, e> >= min or <mu, -e> >= -max on each
    side that no ray leaves, then its line in both directions: a point (e =
    (1, 0)) gets four constraints, a segment four and a ray three, so it
    reads as the H-form of that set."""
    if not vertices:
        raise ValueError("need at least one vertex")
    vertices = list(vertices)
    rays = list(rays)
    e = flat_direction(vertices, rays)
    if e is not None:
        out = []
        for sign in (1, -1):
            cap = smul(sign, e)
            if all(dot(r, cap).sign() >= 0 for r in rays):
                out.append(HalfPlane(cap, min(dot(v, cap) for v in vertices)))
        n = rot90(e)
        return out + [HalfPlane(n, dot(vertices[0], n)), HalfPlane(vneg(n), -dot(vertices[0], n))]
    cands = []
    for i, v in enumerate(vertices):
        for w in vertices[i + 1 :]:
            e = vsub(w, v)
            if is_zero_vec(e):
                continue
            for n in (rot90(e), vneg(rot90(e))):
                cands.append(HalfPlane(n, dot(v, n)))
        for r in rays:
            for n in (rot90(r), vneg(rot90(r))):
                cands.append(HalfPlane(n, dot(v, n)))
    valid = [
        h
        for h in cands
        if all(h.holds(v) for v in vertices)
        and all(dot(r, h.normal).sign() >= 0 for r in rays)
    ]
    valid = _dedup_halfplanes(valid)
    # keep only facets: tight at two vertices, or a vertex plus a parallel ray
    out = []
    for h in valid:
        tight_v = sum(1 for v in vertices if h.tight(v))
        tight_r = sum(1 for r in rays if dot(r, h.normal).is_zero())
        if tight_v >= 2 or (tight_v >= 1 and tight_r >= 1):
            out.append(h)
    return out


def split(p: Polyhedron2, h: HalfPlane) -> tuple[Polyhedron2, Polyhedron2, Polyhedron2]:
    """The pieces P cap h and P cap h.flipped() and the face of P on h's
    line, from one walk of P's edges: O(n^2) slack tests find the edges'
    ends, at most two solves give the crossings, and the rays of an
    unbounded P take O(n^2) more.

    Preconditions: ``p.hrep`` is irredundant and P has an interior.  Then
    each constraint g of P has one edge: two vertices tight at g, or one and
    the ray of P parallel to g (no ray is parallel to a bounded edge, which
    would then run on).  The edge crosses h's line iff its two ends (a ray by
    the sign of <r, h.normal>) have strictly opposite slack signs, at g's
    line cap h's.  The line meets the interior of P iff some vertex or ray
    lies strictly on each side; NoOpCutError if not.  Otherwise the results
    equal ``vrep_from_hrep(list(p.hrep) + k)`` for k = [h], [h.flipped()]
    and [h, h.flipped()], field for field:

    - vertices: a feasible point on two boundary lines is a vertex of P on
      the closed side (on the line, for the face) or a crossing, which lies
      inside one edge; ``_order_ccw`` orders a set of vertices the same
      whatever their input order (see ``chop_vertex``);
    - rays: the line crosses P, so no constraint of P repeats h or
      h.flipped(), the enumeration's deduplication keeps its input whole and
      takes the rays from it, as here.  The face's one possible ray is the
      line's direction in the recession cone of P, the kept piece's ray
      orthogonal to h.normal;
    - hrep: the ``_drop_redundant`` scan keeps, in input order, the
      constraints whose face has positive length.  On a piece, that is h
      and each g whose edge has an end strictly on the piece's side (an edge
      with both ends on the line would lie on it and miss the interior).
      On the face, a constraint strictly loose at both ends goes; one tight
      at an end bounds the line there on the side away from the face, as
      every constraint tight at that end does, so it is redundant while a
      later one is tight at the same end and needed once it is the last.  h
      and h.flipped() come last and are both needed.
    """
    side = {v: h.slack(v).sign() for v in p.vertices}
    ray_side = {r: dot(r, h.normal).sign() for r in p.rays}
    if not {1, -1} <= {*side.values(), *ray_side.values()}:
        raise NoOpCutError(f"cut line <mu, ({h.normal[0]}, {h.normal[1]})> = {h.offset} "
                           "does not meet the interior")
    kept_h, other_h, crossings, last = [], [], [], {}
    for i, g in enumerate(p.hrep):
        ends = [v for v in p.vertices if g.tight(v)]
        signs = [side[v] for v in ends] + [
            ray_side[r] for r in p.rays if dot(r, g.normal).is_zero()]
        lo, hi = min(signs), max(signs)
        if hi > 0:
            kept_h.append(g)
        if lo < 0:
            other_h.append(g)
        if hi > 0 > lo:
            x = solve2x2(g.normal, h.normal, (g.offset, h.offset))
            crossings.append(x)
            last[x] = i
        for v in ends:
            if side[v] == 0:
                last[v] = i
    flip, pieces = h.flipped(), []
    for k, hrep, s in ((h, kept_h, 1), (flip, other_h, -1)):
        verts = [v for v in p.vertices if side[v] * s >= 0] + crossings
        rays = _recession_rays(list(p.hrep) + [k]) if p.rays else []
        pieces.append(Polyhedron2((*hrep, k), tuple(_order_ccw(verts)), tuple(rays)))
    kept, other = pieces
    face = Polyhedron2(
        (*(p.hrep[i] for i in sorted(last.values())), h, flip),
        tuple(_order_ccw([v for v in p.vertices if side[v] == 0] + crossings)),
        tuple(r for r in kept.rays if dot(r, h.normal).is_zero()),
    )
    return kept, other, face


def chop_vertex(p: Polyhedron2, v: Vec2, h: HalfPlane) -> Polyhedron2:
    """P cap h for a half-plane h that cuts off the vertex v of P and nothing
    else, without an enumeration.

    Preconditions: ``p.hrep`` is irredundant, P has an interior, v is
    strictly outside h, every other vertex of P is strictly inside h, no ray
    r of P has <r, h.normal> < 0, and neither constraint tight at v is
    parallel to h's line.  Then the result equals
    ``vrep_from_hrep(list(p.hrep) + [h])`` field for field:

    - vertices: P has an interior and an irredundant hrep, so exactly two
      constraints are tight at v, one per edge at v.  Each edge runs from v
      to another vertex, strictly inside h, or along a ray r of P with
      <r, h.normal> > 0 (>= 0, and not parallel to h's line); so h's line
      crosses it at one point other than v, where the edge's line meets h's.
      The other vertices are strictly inside h and stay.  The enumeration
      finds the same set, and ``_order_ccw`` orders a set of vertices the
      same whatever their input order: it sorts one or two lexicographically,
      and of three or more, which are never collinear, no two have the same
      angle about their centroid, which lies strictly inside their hull.
    - rays: an irredundant ``p.hrep`` has no duplicates, and h is not one of
      its constraints (v satisfies each of those, not h), so the
      enumeration's deduplication keeps ``list(p.hrep) + [h]`` whole and
      takes its rays from it, as here.  A bounded P has none, and nor
      does any subset of it.  ``p.rays`` came from P's input hrep, whose
      redundant constraints can put them in another order.
    - hrep: the ``_drop_redundant`` scan keeps every constraint whose face
      on P cap h is an edge.  h's face joins the two new vertices.  A
      constraint of P keeps a part of its edge of P of positive length: an
      edge away from v keeps all of it, and an edge at v keeps the part
      from the new vertex on.  So the hrep is ``p.hrep + (h,)``.
    """
    new = [solve2x2(g.normal, h.normal, (g.offset, h.offset)) for g in p.hrep if g.tight(v)]
    hrep = p.hrep + (h,)
    rays = _recession_rays(list(hrep)) if p.rays else []
    verts = [w for w in p.vertices if w != v] + new
    return Polyhedron2(hrep, tuple(_order_ccw(verts)), tuple(rays))
