"""Exact 2D convex polyhedra: half-plane (H) and vertex+ray (V) descriptions.

Polyhedra may be unbounded but must be pointed (have at least one vertex).
Vertex enumeration intersects every pair of the n boundary lines and keeps
the points that satisfy all n constraints, O(n^3) exact steps; the slack
signs that accept a vertex also give the constraints tight there.  Redundant
constraints go in one pass.  One tight at no vertex goes at once: the least
slack over the region is reached at a vertex, so its line misses the region.
Only one that touches the region pays another enumeration.  So an
irredundant n-gon still costs about n^3.4 (measured from n = 4 to n = 24).
One table of the signs of cross(n_i, n_j), n(n-1)/2 products per
enumeration, decides without another product which +-rot90(n_i) are
recession rays, of the region or of the others in a redundancy test, and
which normals are parallel.

A region without a vertex is either empty or unpointed.  A nonempty region
whose normals span the plane is pointed, so the enumeration would have found
a vertex: two nonparallel normals mean the region is empty.  When all
normals are parallel to n0, each constraint bounds <mu, n0> from one side,
and the region (a half-plane, slab or line) is nonempty iff the largest
lower bound is at most the smallest upper bound.

A region with an interior is also a boundary cycle: its vertices ccw, then
its rays as ``Ideal`` points.  A cut (``split``), a corner chop (``cap``)
and the polytopality test each ``clip`` a cycle by a half-plane, and
``clip``'s docstring proves the one invariant that they rely on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .linalg import Vec2, cross, dot, is_zero_vec, rot90, smul, solve2x2, vadd, vneg, vsub
from .scalar import Q, QuadScalar


class InfeasibleRegionError(ValueError):
    """The half-plane system has empty intersection."""


class NotPointedError(ValueError):
    """The region is nonempty but has no vertex (full plane, slab, ...)."""


class NoOpCutError(ValueError):
    """The cutting line misses the interior of the polyhedron, or the
    polyhedron has none."""


@dataclass(frozen=True)
class Ideal:
    """The point at infinity in the direction r, in a boundary cycle."""

    r: Vec2


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

    def level(self, e) -> QuadScalar:
        """The slack of a point, or <r, normal> of an ideal point r."""
        return dot(e.r, self.normal) if isinstance(e, Ideal) else self.slack(e)

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
    recession-ray directions when unbounded.  ``incidence`` is shared by
    ``simple``, ``fan.normal_fan`` and ``split``.  It comes from the
    construction: ``vrep_from_hrep`` reads it off the signs that accept each
    vertex, and a piece of ``split`` or ``cap`` derives it from the clip on
    its first read.  Only a hand-built Polyhedron2 scans for it."""

    hrep: tuple[HalfPlane, ...]
    vertices: tuple[Vec2, ...]
    rays: tuple[Vec2, ...] = field(default_factory=tuple)

    @property
    def bounded(self) -> bool:
        return not self.rays

    @functools.cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices of the constraints exactly tight there."""
        derive = self.__dict__.pop("_derive_incidence", None)
        if derive is not None:
            return derive()
        return tuple(tuple(i for i, h in enumerate(self.hrep) if h.tight(v))
                     for v in self.vertices)

    @property
    def simple(self) -> bool:
        return all(len(t) == 2 for t in self.incidence)

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


def _built(hrep, vertices, rays, incidence) -> Polyhedron2:
    """A Polyhedron2 with the incidence of its construction: a tuple, or a
    function that derives it on its first read.  Either goes into the
    instance dict, where ``functools.cached_property`` keeps its value."""
    p = Polyhedron2(tuple(hrep), tuple(vertices), tuple(rays))
    p.__dict__["incidence" if isinstance(incidence, tuple) else "_derive_incidence"] = incidence
    return p


def _normal_signs(hrep: list[HalfPlane]) -> list[list[int]]:
    """signs[i][j], the sign of cross(n_i, n_j), which is that of <rot90(n_i),
    n_j>: n(n-1)/2 exact products, the rest by antisymmetry."""
    signs = [[0] * len(hrep) for _ in hrep]
    for i, h in enumerate(hrep):
        for j in range(i + 1, len(hrep)):
            c = cross(h.normal, hrep[j].normal).sign()
            signs[i][j], signs[j][i] = c, -c
    return signs


def _recession_rays(hrep: list[HalfPlane], signs) -> list[Vec2]:
    """The extreme rays of the recession cone: each s*rot90(n_i), s = +-1,
    with <s*rot90(n_i), n_j> = s*signs[i][j] >= 0 for every j (``signs`` of
    ``_normal_signs``), canonical, each once, in constraint order."""
    out = []
    for h, row in zip(hrep, signs):
        for s in (1, -1):
            if all(s * c >= 0 for c in row):
                r = _canonical_ray(rot90(h.normal) if s > 0 else vneg(rot90(h.normal)))
                if r not in out:
                    out.append(r)
    return out


def _drop_redundant(hrep: list[HalfPlane], tight_at: dict, signs) -> list[int]:
    """The indices of the constraints that survive one left-to-right pass
    dropping redundant ones from the pointed region P, whose vertices are
    the keys of ``tight_at``, each mapped to the constraints tight there.

    A constraint tight at no vertex goes without an enumeration: the least
    slack over P is reached at a vertex, so its line misses P.  Any other
    constraint is redundant iff the region of the others (which must have a
    vertex) is inside it: its vertices hold it, and so do its rays.  Those
    are the s*rot90(n_g), s = +-1, whose row of ``signs`` (``_normal_signs``)
    restricted to the others has s*signs >= 0, as in ``_recession_rays``,
    and <s*rot90(n_g), n_k> is s*signs[g][k]: no product.  A drop leaves the
    region equal to P, so a kept constraint stays needed: no restart.
    """
    touching = set().union(*tight_at.values())
    kept, idx = list(range(len(hrep))), 0
    while idx < len(kept):
        k, ids = kept[idx], kept[:idx] + kept[idx + 1 :]
        if k not in touching or (
            (cands := _candidate_vertices([hrep[g] for g in ids]))
            and all(hrep[k].holds(v) for v in cands)
            and all(s * signs[g][k] >= 0 for g in ids for s in (1, -1)
                    if all(s * signs[g][i] >= 0 for i in ids))
        ):
            kept.pop(idx)
        else:
            idx += 1
    return kept


def _candidate_vertices(hrep: list[HalfPlane]) -> dict:
    """The vertices of the region, each mapped to the indices of the
    constraints tight there, read off the slack signs that accept it."""
    pts = {}
    for i in range(len(hrep)):
        for j in range(i + 1, len(hrep)):
            p = solve2x2(hrep[i].normal, hrep[j].normal,
                         (hrep[i].offset, hrep[j].offset))
            if p is None or p in pts:
                continue
            tight = []
            for k, h in enumerate(hrep):
                s = h.slack(p).sign()
                if s < 0:
                    break
                if s == 0:
                    tight.append(k)
            else:
                pts[p] = tight
    return pts


def _vertexless_error(hrep: list[HalfPlane], signs) -> ValueError:
    """Empty or unpointed, for a region without a vertex (module docstring),
    with ``signs`` from ``_normal_signs``."""
    n0 = hrep[0].normal if hrep else None
    lower, upper = [], []
    for h, row in zip(hrep, signs):
        if row[0]:
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
    signs = _normal_signs(hrep)
    tight_at = _candidate_vertices(hrep)
    if not tight_at:
        raise _vertexless_error(hrep, signs)
    rays = _recession_rays(hrep, signs)
    kept = _drop_redundant(hrep, tight_at, signs)
    index = {k: i for i, k in enumerate(kept)}
    verts = _order_ccw(list(tight_at))
    incidence = tuple(tuple(index[k] for k in tight_at[v] if k in index) for v in verts)
    return _built((hrep[k] for k in kept), verts, rays, incidence)


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


def clip(cycle: list, h: HalfPlane) -> list:
    """The boundary cycle of R cap h from that of R, a convex region with an
    interior, a segment or a point (Sutherland and Hodgman): the entries of
    level >= 0 (``HalfPlane.level``) and, on each edge whose ends have
    levels of strictly opposite signs, its point on h's line; no repeats.

    Invariant: lift a point v to (v, 1) and an ideal point r to (r, 0).  The
    cycle lists in order the extreme rays of the cone over R, neighbours
    spanning its 2-faces: the lifts of R's edges and of its recession cone
    (an arc at infinity).  With L the level, linear on the lift, the rays
    with L >= 0 and |L(b)| a + |L(a)| b on each 2-face a, b where L changes
    sign are in order those of the cone's part on h's side.  Read back: the
    affine crossing, p + t r for a point p and an ideal point r, and a
    positive combination of two ideal points along h's line.  So the output
    lists R cap h as the input lists R; a segment's two edges are one, hence
    the dedupe.
    """
    levels = [h.level(e) for e in cycle]
    return list(_clip_levels(cycle, levels, [x.sign() for x in levels]))


def _clip_levels(cycle: list, levels: list, signs: list) -> dict:
    """``clip`` by given levels and their signs: each output entry to the
    cycle positions it comes from, (i,) for an entry kept off h's line, and
    for one on it, (i, j) for the crossing on the edge i-j or (i, i) for the
    entry i itself, of level 0."""
    out = {}
    for i, a in enumerate(cycle):
        j = (i + 1) % len(cycle)
        if signs[i] >= 0:
            out.setdefault(a, (i, i) if signs[i] == 0 else (i,))
        if signs[i] * signs[j] < 0:
            out.setdefault(_crossing(a, levels[i], cycle[j], levels[j]), (i, j))
    return out


def _crossing(a, la: QuadScalar, b, lb: QuadScalar):
    """The point on h's line of the edge a-b, of levels la, lb (``clip``)."""
    if isinstance(a, Ideal) and isinstance(b, Ideal):  # the arc at infinity
        return Ideal(vadd(smul(abs(lb), a.r), smul(abs(la), b.r)))
    if isinstance(a, Ideal):
        a, la, b, lb = b, lb, a, la
    if isinstance(b, Ideal):  # along the unbounded edge from a
        return vadd(a, smul(la / -lb, b.r))
    return vadd(a, smul(la / (la - lb), vsub(b, a)))


def _boundary(p: Polyhedron2) -> tuple[list, int]:
    """The boundary cycle of P with an interior: its vertices ccw from the
    one on the incoming unbounded edge, the furthest along rot90 of its
    direction, then its rays ccw (that one last) as ideal points; and the
    index of its first entry in ``p.vertices``."""
    if not p.rays:
        return list(p.vertices), 0
    rays = p.rays[::-1] if cross(p.rays[0], p.rays[-1]).sign() < 0 else p.rays
    vs, n = p.vertices, rot90(rays[-1])
    i = max(range(len(vs)), key=lambda k: dot(vs[k], n))
    return [*vs[i:], *vs[:i], *map(Ideal, rays)], i


def _source_tight(p: Polyhedron2, cycle: list, start: int):
    """For a finite entry of ``_clip_levels`` of P's boundary cycle (first
    entry ``p.vertices[start]``), from its source: the sorted indices of P's
    constraints tight there.  An entry kept is tight where P's vertex is.
    On the crossing of the edge a-b (strictly inside a segment, or a + t r
    with t > 0 for an ideal point r), each g of P is >= 0 at a and b
    (<r, n_g> >= 0 for r) and affine along the edge, so g is tight there iff
    it is tight at a and b (parallel to r)."""
    m = len(p.vertices)

    def tight(src):
        finite = [set(p.incidence[(k + start) % m]) for k in src if k < m]
        rays = [cycle[k].r for k in src if k >= m]
        return sorted(i for i in finite[0].intersection(*finite[1:])
                      if all(dot(r, p.hrep[i].normal).is_zero() for r in rays))
    return tight


def cap(p: Polyhedron2, h: HalfPlane) -> Polyhedron2:
    """P cap h with the hrep of P then h, from one ``clip`` of P's boundary
    cycle, for P with an interior and h violated on P; the caller checks
    that each constraint of P keeps an edge."""
    cycle, start = _boundary(p)
    levels = [h.level(e) for e in cycle]
    cut = _clip_levels(cycle, levels, [x.sign() for x in levels])
    return _piece(p, range(len(p.hrep)), (h,), cut, _source_tight(p, cycle, start))


def _piece(p: Polyhedron2, ids, lines: tuple, cut: dict, tight) -> Polyhedron2:
    """The region of the clipped cycle ``cut`` with hrep P's constraints at
    ``ids`` then ``lines`` (h, or its flip, or both for the face), with the
    vertices and rays of ``vrep_from_hrep(list(p.hrep) + list(lines))``:
    its dedupe keeps that list whole (``p.hrep`` has no repeats, h is none
    of them), and ``_order_ccw`` orders a vertex set whatever its input
    order.  Each ray that ``_recession_rays`` keeps, a +-rot90(n_i) whose
    row of the enumeration's sign table has one sign, lies in the recession
    cone C and on the line of a half-plane containing C, so is an extreme
    ray of the pointed C; by ``clip``'s invariant the cycle's ideal points
    are those, in O(n) and with no table.  Sort them as it does, by the
    first constraint of ``p.hrep + lines`` parallel to each (never both by
    one: r and -r are not both in C; a face has at most one ray).  Its
    incidence is each vertex's ``tight`` constraints that it keeps, then
    ``lines`` if it is on h's line, derived on its first read."""
    hrep = (*(p.hrep[i] for i in ids), *lines)
    rays = list(dict.fromkeys(_canonical_ray(e.r) for e in cut if isinstance(e, Ideal)))
    if len(rays) == 2:
        rays.sort(key=lambda r: next(
            i for i, g in enumerate((*p.hrep, *lines)) if dot(r, g.normal).is_zero()))
    verts = _order_ccw([e for e in cut if not isinstance(e, Ideal)])

    def incidence():
        index = {i: k for k, i in enumerate(ids)}
        on_line = tuple(range(len(index), len(hrep)))
        return tuple(tuple(index[i] for i in tight(cut[v]) if i in index)
                     + (on_line if len(cut[v]) == 2 else ()) for v in verts)
    return _built(hrep, verts, rays, incidence)


def split(p: Polyhedron2, h: HalfPlane) -> tuple[Polyhedron2, Polyhedron2, Polyhedron2]:
    """The pieces P cap h and P cap h.flipped() and the face of P on h's
    line, for P with an interior and an irredundant ``p.hrep``, from
    ``p.incidence`` and the levels of P's boundary cycle against h, taken
    once and kept by cycle position (a vertex and a ray can be equal tuples).
    NoOpCutError unless some vertex or ray of P lies strictly on each side.
    The results equal ``vrep_from_hrep(list(p.hrep) + k)`` for k = [h],
    [h.flipped()] and [h, h.flipped()]; the face is the kept clip's entries
    on the line.  Each g of P has one edge (two vertices, or one and a ray
    parallel to g), and ``_drop_redundant`` keeps, in order, the constraints
    whose face has positive length: on a piece, h and each g whose edge has
    an end strictly on its side.  On the face, of the g tight at an end,
    which bound the line there away from the face, the last stays (only g is
    tight where g's edge crosses the line); then h and h.flipped()."""
    cycle, start = _boundary(p)
    levels = [h.level(e) for e in cycle]
    signs = [x.sign() for x in levels]
    if not {1, -1} <= set(signs):
        raise NoOpCutError(f"cut line <mu, ({h.normal[0]}, {h.normal[1]})> = {h.offset} "
                           "does not meet the interior")
    m = len(p.vertices)
    side = signs[m - start:m] + signs[:m - start]  # by index in p.vertices
    kept_ids, other_ids, last = [], [], {}
    for i, g in enumerate(p.hrep):
        ends = [k for k, tight in enumerate(p.incidence) if i in tight]
        sides = [side[k] for k in ends] + [
            s for e, s in zip(cycle[m:], signs[m:]) if dot(e.r, g.normal).is_zero()]
        lo, hi = min(sides), max(sides)
        if hi > 0:
            kept_ids.append(i)
        if lo < 0:
            other_ids.append(i)
        last.update((k, i) for k in ends if side[k] == 0)
        if hi > 0 > lo:
            last[g] = i
    flip, tight = h.flipped(), _source_tight(p, cycle, start)
    kept = _clip_levels(cycle, levels, signs)
    other = _clip_levels(cycle, [-x for x in levels], [-s for s in signs])
    on_line = {e: src for e, src in kept.items() if len(src) == 2}
    return (_piece(p, kept_ids, (h,), kept, tight), _piece(p, other_ids, (flip,), other, tight),
            _piece(p, sorted(last.values()), (h, flip), on_line, tight))
