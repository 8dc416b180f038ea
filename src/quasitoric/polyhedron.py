"""Exact 2D convex polyhedra: half-plane (H) and vertex+ray (V) descriptions.

Polyhedra may be unbounded but must be pointed (have at least one vertex).
Vertex enumeration intersects every pair of the n boundary lines and keeps
the points that satisfy all n constraints, O(n^3) exact steps; the slack
signs that accept a vertex also give the constraints tight there.  Redundant
constraints go in one pass over those that touch the region.  One tight at
no vertex goes at once: the least slack over the region is reached at a
vertex, so its line misses the region.  Each that touches it pays another
enumeration, of the other touching ones only, as a line that misses the
region changes no verdict.  So an irredundant n-gon still costs about
n^3.4 (measured from n = 4 to n = 24), and each missing line saves a
constraint from every enumeration.
One table of the signs of cross(n_i, n_j), n(n-1)/2 products per
enumeration, decides without another product which +-rot90(n_i) are
recession rays, of the region or of the others in a redundancy test, and
which normals are parallel; the region's rays, keyed by constraint and
side, also give the walk of its cycle its unbounded ends.

A region without a vertex is either empty or unpointed.  A nonempty region
whose normals span the plane is pointed, so the enumeration would have found
a vertex: two nonparallel normals mean the region is empty.  When all
normals are parallel to n0, each constraint bounds <mu, n0> from one side,
and the region (a half-plane, slab or line) is nonempty iff the largest
lower bound is at most the smallest upper bound.

A region with an interior is also a boundary cycle: its vertices ccw, then
its rays as ``Ideal`` points, each labelled with its outgoing edge's
constraint.  What builds a polyhedron stores its cycle: ``vrep_from_hrep``
walks it off the sign table, and a cut (``split``) or a corner chop
(``cap``) reads a piece's cycle, hrep, incidence and vertex order off one
labelled ``clip`` of P's, with no scan.  The polytopality test clips too,
and ``clip``'s docstring proves the one invariant that they rely on.
"""

from __future__ import annotations

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


def _from_least(cycle: list) -> list:
    """The cycle rotated to start at its lexicographically least entry."""
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def _canonical_ray(r: Vec2) -> Vec2:
    lead = r[0] if not r[0].is_zero() else r[1]
    return smul(abs(lead).inv(), r)


@dataclass(frozen=True)
class Polyhedron2:
    """A pointed 2D convex polyhedron; vertices counterclockwise, plus
    recession-ray directions when unbounded.  ``incidence`` gives, per
    vertex, the sorted indices of the constraints tight there, and
    ``cycle`` the boundary cycle, empty for a flat region, each entry with
    the label of its outgoing edge, as its construction found them:
    ``vrep_from_hrep`` off the signs that accept each vertex and its walk,
    ``split`` and ``cap`` off their labelled clip."""

    hrep: tuple[HalfPlane, ...] = field(compare=False)
    vertices: tuple[Vec2, ...]
    rays: tuple[Vec2, ...]
    incidence: tuple[tuple[int, ...], ...] = field(compare=False)
    cycle: tuple[tuple[Vec2 | Ideal, int | None], ...] = field(compare=False)

    @property
    def bounded(self) -> bool:
        return not self.rays

    @property
    def simple(self) -> bool:
        return all(len(t) == 2 for t in self.incidence)

    def same_region(self, other: "Polyhedron2") -> bool:
        return (
            set(self.vertices) == set(other.vertices)
            and {_canonical_ray(r) for r in self.rays}
            == {_canonical_ray(r) for r in other.rays}
        )


def _normal_signs(hrep: list[HalfPlane]) -> list[list[int]]:
    """signs[i][j], the sign of cross(n_i, n_j), which is that of <rot90(n_i),
    n_j>: n(n-1)/2 exact products, the rest by antisymmetry."""
    signs = [[0] * len(hrep) for _ in hrep]
    for i, h in enumerate(hrep):
        for j in range(i + 1, len(hrep)):
            c = cross(h.normal, hrep[j].normal).sign()
            signs[i][j], signs[j][i] = c, -c
    return signs


def _recession_rays(hrep: list[HalfPlane], signs) -> dict:
    """The extreme rays of the recession cone: each s*rot90(n_i), s = +-1,
    with <s*rot90(n_i), n_j> = s*signs[i][j] >= 0 for every j (``signs`` of
    ``_normal_signs``), canonical, keyed by (i, s) in constraint order; a
    ray along two parallel constraints appears under both keys."""
    return {(i, s): _canonical_ray(rot90(h.normal) if s > 0 else vneg(rot90(h.normal)))
            for i, (h, row) in enumerate(zip(hrep, signs)) for s in (1, -1)
            if all(s * c >= 0 for c in row)}


def _drop_redundant(hrep: list[HalfPlane], tight_at: dict, signs) -> list[int]:
    """The indices of the constraints that survive one left-to-right pass
    dropping redundant ones from the pointed region P, whose vertices are
    the keys of ``tight_at``, each mapped to the constraints tight there.

    A constraint tight at no vertex goes without an enumeration: the least
    slack over P is reached at a vertex, so its line misses P.  So the pass
    runs over the touching constraints only, and "the others" of each are
    the other touching ones that are still kept.  That changes no verdict,
    as the lines that miss P can be left out one at a time: let g's miss P.
    If k is redundant, the region R of the constraints but k and g is
    convex and R cap g = P.  A point of R off g would join P by a segment in
    R that crosses g's line, at a point of R cap g = P, which the line
    misses; so R = P, and k stays redundant without g.  If k is needed,
    dropping g only enlarges the others' region, so k stays needed.

    A touching constraint is redundant iff the region of the others (which
    then equals P, so has a vertex) is inside it: its vertices hold it, and
    so do its rays.  Those are the s*rot90(n_g), s = +-1, whose row of
    ``signs`` (``_normal_signs``) restricted to the others has s*signs >= 0,
    as in ``_recession_rays``, and <s*rot90(n_g), n_k> is s*signs[g][k]: no
    product.  A drop leaves the region equal to P, so a kept constraint
    stays needed: no restart.
    """
    kept, idx = sorted(set().union(*tight_at.values())), 0
    while idx < len(kept):
        k, ids = kept[idx], kept[:idx] + kept[idx + 1 :]
        if (
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


def _walk(tight: dict, signs, rays: dict) -> list:
    """The labelled boundary cycle of a region with an interior, whose
    vertices, the keys of ``tight``, each lie on two constraints a, b.  Going
    ccw, the edge of c runs along -rot90(n_c) and turns left at a vertex, so
    the edge out of it is b's iff signs[a][b] = sign cross(n_a, n_b) > 0.
    The walk starts where no edge leads in, on the incoming unbounded edge,
    or else at the lex-least.  An unbounded end is the recession ray along
    its edge's constraint, read off ``rays`` (``_recession_rays``): key
    (c, -1) out of the last vertex, then the arc at infinity (label None) to
    key (a, +1) into the first, one ideal point if they agree."""
    ends, leave = {}, {}
    for v, (a, b) in tight.items():
        a, b = (a, b) if signs[a][b] > 0 else (b, a)
        ends[a], leave[v] = v, b
    a = next(iter(ends.keys() - set(leave.values())), None)
    v = min(tight) if a is None else ends[a]
    cycle = [(v, leave[v])]
    while (v := ends.get(leave[v])) not in (None, cycle[0][0]):
        cycle.append((v, leave[v]))
    if a is not None:
        out, back = Ideal(rays[cycle[-1][1], -1]), Ideal(rays[a, 1])
        cycle += [(out, None), (back, a)] if out != back else [(out, a)]
    return cycle


def vrep_from_hrep(hrep: list[HalfPlane]) -> Polyhedron2:
    """Enumerate vertices and recession rays of a half-plane intersection,
    and walk its cycle, empty if a vertex lies on other than two kept
    constraints, which here means the region is flat.

    Raises InfeasibleRegionError for empty regions and NotPointedError for
    nonempty regions without a vertex.
    """
    hrep = _dedup_halfplanes(hrep)
    signs = _normal_signs(hrep)
    tight_at = _candidate_vertices(hrep)
    if not tight_at:
        raise _vertexless_error(hrep, signs)
    keyed = _recession_rays(hrep, signs)
    rays = dict.fromkeys(keyed.values())
    kept = _drop_redundant(hrep, tight_at, signs)
    index = {k: i for i, k in enumerate(kept)}
    tight = {v: [k for k in ks if k in index] for v, ks in tight_at.items()}
    walk = _walk(tight, signs, keyed) if all(len(t) == 2 for t in tight.values()) else []
    cycle = tuple((e, None if k is None else index[k]) for e, k in walk)
    verts = _from_least([e for e, _ in walk if not isinstance(e, Ideal)]) if walk else sorted(tight)
    incidence = tuple(tuple(index[k] for k in tight[v]) for v in verts)
    return Polyhedron2(tuple(hrep[k] for k in kept), tuple(verts), tuple(rays), incidence, cycle)


def hrep_from_vrep(vertices: list[Vec2], rays: list[Vec2] = ()) -> list[HalfPlane]:
    """Facet constraints of conv(vertices) + cone(rays); needs >= 1 vertex.

    A flat input, whose vertex differences and rays all lie along one
    direction e, gets an end cap <mu, e> >= min or <mu, -e> >= -max on each
    side that no ray leaves, then its line in both directions: a point (e =
    (1, 0)) gets four constraints, a segment four and a ray three, so it
    reads as the H-form of that set.  Otherwise a side of the line through
    a vertex and a distinct later one, or along a ray from it, that holds
    everywhere supports the set along that segment or half-line: a facet."""
    if not vertices:
        raise ValueError("need at least one vertex")
    vertices = list(vertices)
    rays = list(rays)
    dirs = [d for d in [vsub(v, vertices[0]) for v in vertices[1:]] + rays if not is_zero_vec(d)]
    e = dirs[0] if dirs else (Q(1), Q(0))
    if all(cross(e, d).is_zero() for d in dirs):
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
    return _dedup_halfplanes(valid)


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
    return list(_clip_levels(cycle, [None] * len(cycle), levels, [x.sign() for x in levels]))


def _clip_levels(cycle: list, labels: list, levels: list, signs: list, line=None,
                 crossings=None) -> dict:
    """``clip`` by given levels and their signs, of a cycle labelled by the
    constraints of its entries' outgoing edges: each output entry to the
    label of its own, ``line`` on h's line.  By ``clip``'s invariant the
    output edges are the input edges' parts on h's side and one on h's line:
    an entry leaves along its input edge if it is off the line or the next
    entry is strictly on h's side, a crossing if it enters it; else along
    h's line.  ``crossings`` maps the index of an edge's first entry to its
    point on h's line, which is the same for h's flip: taken from it when
    there, added to it when computed."""
    out, crossings = {}, {} if crossings is None else crossings
    for i, a in enumerate(cycle):
        j = (i + 1) % len(cycle)
        if signs[i] >= 0:
            out.setdefault(a, labels[i] if signs[i] > 0 or signs[j] > 0 else line)
        if signs[i] * signs[j] < 0:
            if i not in crossings:
                crossings[i] = _crossing(a, levels[i], cycle[j], levels[j])
            out.setdefault(crossings[i], line if signs[i] > 0 else labels[i])
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


def cap(p: Polyhedron2, h: HalfPlane) -> Polyhedron2:
    """P cap h with the hrep of P then h, from one labelled ``clip`` of
    ``p.cycle``, for P with an interior and h violated on P; the caller
    checks that each constraint of P keeps an edge."""
    cycle, labels = zip(*p.cycle)
    levels = [h.level(e) for e in cycle]
    return _side(p, cycle, labels, levels, [x.sign() for x in levels], h)[0]


def _side(p: Polyhedron2, cycle, labels, levels, signs, line,
          crossings=None) -> tuple[Polyhedron2, dict]:
    """The piece of ``_clip_levels`` of P's labelled cycle by ``line``,
    labelled ``len(p.hrep)``, and per entry the labels of its two edges,
    which are the constraints tight at a vertex; no entry repeats, so every
    labelled edge has positive length."""
    cut = _clip_levels(cycle, labels, levels, signs, len(p.hrep), crossings)
    entries, out = list(cut), list(cut.values())
    edges = {e: (out[k - 1], out[k]) for k, e in enumerate(entries)}
    return _piece(p, (line,), entries, edges), edges


def _piece(p: Polyhedron2, lines: tuple, cycle: list, tight: dict) -> Polyhedron2:
    """The region of the clipped cycle ``cycle``, with the labels of the
    constraints ``tight`` at each entry, incoming then outgoing for a piece
    and three at a finite end of the face, ``len(p.hrep) + t`` for the t-th
    of ``lines`` (h, or its flip, or both for the face), and hrep P's among
    them, sorted, then ``lines``.  That is ``vrep_from_hrep(list(p.hrep) +
    list(lines))``: its dedupe keeps that list whole (``p.hrep`` has no
    repeats, h is none of them), and ``_drop_redundant`` keeps, in order,
    the constraints whose face has positive length.  The cycle's finite
    entries are ccw, the order of its walk, from the lex-least; a piece
    keeps the cycle, relabelled, with its ideal points canonical, and the
    flat face none.  Each ray that ``_recession_rays`` keeps, a
    +-rot90(n_i) whose row of the enumeration's sign table has one sign,
    lies in the recession cone C and on the line of a half-plane containing
    C, so is an extreme ray of the pointed C; by ``clip``'s invariant the
    cycle's ideal points are those, in O(n) and with no table.  Sort them as
    it does, by the first constraint of ``p.hrep + lines`` parallel to each
    (never both by one: r and -r are not both in C; a face has at most one
    ray)."""
    k = len(p.hrep)
    verts = _from_least([e for e in cycle if not isinstance(e, Ideal)])
    ids = sorted({i for v in verts for i in tight[v] if i < k})
    index = {i: t for t, i in enumerate([*ids, *range(k, k + len(lines))])}
    ideal = {e: Ideal(_canonical_ray(e.r)) for e in cycle if isinstance(e, Ideal)}
    rays = [e.r for e in ideal.values()]
    if len(rays) == 2:
        rays.sort(key=lambda r: next(
            i for i, g in enumerate((*p.hrep, *lines)) if dot(r, g.normal).is_zero()))
    labelled = () if len(lines) > 1 else tuple(
        (ideal.get(e, e), None if tight[e][1] is None else index[tight[e][1]]) for e in cycle)
    return Polyhedron2((*(p.hrep[i] for i in ids), *lines), tuple(verts), tuple(rays),
                       tuple(tuple(sorted(index[i] for i in tight[v])) for v in verts), labelled)


def split(p: Polyhedron2, h: HalfPlane) -> tuple[Polyhedron2, Polyhedron2, Polyhedron2]:
    """The pieces P cap h and P cap h.flipped() and the face of P on h's
    line, for P with an interior and an irredundant ``p.hrep``, from two
    labelled clips of ``p.cycle`` by its levels against h, taken once; the
    flip's clip reuses the points where the first one's edges cross h's
    line.  NoOpCutError unless some vertex or ray of P lies
    strictly on each side.  The results equal ``vrep_from_hrep(list(p.hrep)
    + k)`` for k = [h], [h.flipped()] and [h, h.flipped()] (``_piece``);
    the face is the ends of the kept clip's edge on the line.  Of the g
    tight at a finite end, which bound the line there away from the face,
    ``_drop_redundant`` keeps the last: the larger of the two pieces' labels
    there other than h's (g twice where g's edge crosses the line, one each
    at P's vertex)."""
    cycle, labels = zip(*p.cycle)
    levels = [h.level(e) for e in cycle]
    signs = [x.sign() for x in levels]
    if not {1, -1} <= set(signs):
        raise NoOpCutError(f"cut line <mu, ({h.normal[0]}, {h.normal[1]})> = {h.offset} "
                           "does not meet the interior")
    k, flip = len(p.hrep), h.flipped()
    crossings = {}
    kept, edges = _side(p, cycle, labels, levels, signs, h, crossings)
    other, other_edges = _side(p, cycle, labels, [-x for x in levels], [-s for s in signs], flip,
                               crossings)
    face = [e for e, pair in edges.items() if k in pair]
    ends = [e for e in face if not isinstance(e, Ideal)]
    return kept, other, _piece(p, (h, flip), face, {
        e: (max({*edges[e], *other_edges[e]} - {k}), k, k + 1) for e in ends})
