"""Triangulated vector configurations, ghost augmentation, Gale duality,
virtual chambers, and the exact polytopality test.

Index sets in triangulations and chambers are 1-based, matching the usual
convention for configuration combinatorics.  A flat chamber triangle takes
its H-form from ``polyhedron.hrep_from_vrep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Vec2, cross, dot, is_zero_vec, kernel_basis, rot90, rref, vneg, vsub
from .polyhedron import HalfPlane, clip, hrep_from_vrep
from .scalar import Q, QuadScalar


class NotBalancedError(ValueError):
    """Relation basis with an all-ones row needs a balanced configuration."""


@dataclass(frozen=True)
class VectorConfig:
    vectors: tuple[Vec2, ...]
    ghost_indices: frozenset[int] = field(default_factory=frozenset)  # 1-based

    def __post_init__(self):
        vecs = tuple(tuple(Q(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "ghost_indices", frozenset(self.ghost_indices))
        if len(vecs) < 2:
            raise ValueError("need at least two vectors")

    def __len__(self):
        return len(self.vectors)

    def total(self) -> Vec2:
        sx, sy = Q(0), Q(0)
        for v in self.vectors:
            sx, sy = sx + v[0], sy + v[1]
        return (sx, sy)

    def span_dim(self) -> int:
        """The rank of the configuration, read off cross products: 2 if some
        vector is independent of the first nonzero one u (a nonzero
        cross(u, v)), 1 if only u's multiples occur, 0 if every vector is
        zero."""
        u = next((v for v in self.vectors if not is_zero_vec(v)), None)
        if u is None:
            return 0
        return 2 if any(not cross(u, v).is_zero() for v in self.vectors) else 1


@dataclass(frozen=True)
class Triangulation:
    """Subsets of {1..d}; the maximal elements (cardinality 2 in the plane)
    carry the fan combinatorics, ghosts appear in no subset."""

    subsets: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self, "subsets", frozenset(frozenset(s) for s in self.subsets)
        )
        maximal = self.maximal()
        if maximal and any(len(s) != 2 for s in maximal):
            raise ValueError("maximal triangulation elements must be pairs")

    def maximal(self) -> frozenset[frozenset[int]]:
        top = max((len(s) for s in self.subsets), default=0)
        return frozenset(s for s in self.subsets if len(s) == top)

@dataclass(frozen=True)
class PointConfig:
    """Points of C written as exact (re, im) pairs."""

    points: tuple[tuple[QuadScalar, QuadScalar], ...]

    def __post_init__(self):
        pts = tuple((Q(p[0]), Q(p[1])) for p in self.points)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class VirtualChamber:
    subsets: frozenset[frozenset[int]]  # 1-based, each of cardinality d-2

    def __post_init__(self):
        object.__setattr__(
            self, "subsets", frozenset(frozenset(s) for s in self.subsets)
        )


def is_balanced(v: VectorConfig) -> bool:
    return is_zero_vec(v.total())


def is_odd(v: VectorConfig) -> bool:
    return (len(v) - v.span_dim()) % 2 == 1


def augment_ghosts(v: VectorConfig) -> VectorConfig:
    """Append ghost vectors until the configuration is balanced and odd.

    Balance: append minus the current sum.  Parity: a single zero ghost flips
    card - dim(span) without touching the balance.
    """
    vectors = list(v.vectors)
    ghosts = set(v.ghost_indices)
    total = v.total()
    if not is_zero_vec(total):
        vectors.append(vneg(total))
        ghosts.add(len(vectors))
    work = VectorConfig(tuple(vectors), frozenset(ghosts))
    if not is_odd(work):
        vectors.append((Q(0), Q(0)))
        ghosts.add(len(vectors))
        work = VectorConfig(tuple(vectors), frozenset(ghosts))
    return work


def relation_basis(v: VectorConfig) -> list[list[QuadScalar]]:
    """Basis of the relation space, as (d-2) rows of length d.

    The first row is all ones (this is where balance is used); the remaining
    rows come from the standard kernel basis of the configuration matrix,
    echelon-reduced so each has leading entry 1 in its own column, and kept
    in their order (``_input_order``).  They leave out the kernel vector of
    the last free column, which for V_a is its ghost, so they are 0 there.
    """
    if not is_balanced(v):
        raise NotBalancedError("configuration must sum to zero")
    rows = kernel_basis([[x for x, _ in v.vectors], [y for _, y in v.vectors]])
    d = len(v)
    ones = [Q(1)] * d
    # the all-ones vector is the sum of all standard kernel vectors, so
    # dropping the last of them keeps a basis once ones is prepended
    return [ones] + _input_order(rref(rows[:-1]))


def relations_odd(rows) -> bool:
    """Parity of a configuration read off a relation basis of it, which has
    card - dim(span) rows."""
    return len(rows) % 2 == 1


def _input_order(reduced) -> list[list[QuadScalar]]:
    """The rows of ``rref``'s result ``(rows, pivots, sources)`` of
    independent rows, each moved to the place of the input row that was its
    pivot row: the order in which reducing the input rows one by one, each
    against the earlier ones, gives each its leading column.  That order
    defines Lambda = (i, 1, 1+ia, i, 0); ``rref``'s own, by pivot column,
    would swap the two kernel rows of V_a."""
    red, _, sources = reduced
    return [red[k] for k in sorted(range(len(sources)), key=sources.__getitem__)]


def gale_points(rows) -> PointConfig:
    """Columns of a relation basis below the all-ones row, read as complex
    numbers (row 2 real parts, row 3 imaginary parts)."""
    if not relations_odd(rows):
        raise ValueError("configuration must be odd (card - dim span odd)")
    if len(rows) < 3:
        raise ValueError("need at least 3 relation rows for a Gale dual in C")
    return PointConfig(tuple(zip(rows[1], rows[2])))


def chamber_from_triangulation(t: Triangulation, d: int) -> VirtualChamber:
    """Complements in {1..d} of the maximal triangulation elements."""
    if d < 4:
        raise ValueError("need d >= 4")
    full = frozenset(range(1, d + 1))
    return VirtualChamber(frozenset(full - s for s in t.maximal()))


def _triangle_halfplanes(pts: list[Vec2]) -> list[tuple[HalfPlane, bool]]:
    """Constraints cutting out the relative interior of the convex hull of
    three points, as (half-plane, strict) pairs.  A proper triangle's three
    inward normals come from its one orientation sign: for each edge u -> v
    with third vertex w, dot(w - u, rot90(v - u)) is the same cross product,
    so rot90(v - u) points inward iff the triangle is ccw.  Collinear or
    coincident points take the H-form of their hull from ``hrep_from_vrep``
    (end caps, then the line both ways; a point's four), and a constraint is
    strict iff it is loose at one of the points: the caps of a segment."""
    p1, p2, p3 = pts
    orient = cross(vsub(p2, p1), vsub(p3, p1)).sign()
    if not orient:
        return [(h, any(h.slack(p).sign() > 0 for p in pts)) for h in hrep_from_vrep(pts)]
    out = []
    for u, v in ((p1, p2), (p2, p3), (p3, p1)):
        n = rot90(vsub(v, u)) if orient > 0 else rot90(vsub(u, v))
        out.append((HalfPlane(n, dot(u, n)), True))
    return out


def _closed_hull(pts: list[Vec2]) -> list[Vec2]:
    """The cycle of the closed hull of three points: all three, or the least
    and the greatest of collinear ones, which order them along their line."""
    p1, p2, p3 = pts
    if not cross(vsub(p2, p1), vsub(p3, p1)).is_zero():
        return list(pts)
    return list(dict.fromkeys((min(pts), max(pts))))


def is_polytopal(
    lam: PointConfig, chamber: VirtualChamber
) -> tuple[bool, Vec2 | None]:
    """Exact test that the relative interiors of the chamber's triangles have
    a common point; on success also returns such a witness point, the
    centroid of the vertices of the closed region cut out by the triangles.

    (The closed hulls always share the common ghost point, so the meaningful
    chamber condition is the open one.)  ``polyhedron.clip`` clips the
    closed hull of one triangle by each constraint of the others, O(k*m)
    exact steps for k half-planes and m <= k vertices, and by its invariant
    leaves the vertices that an enumeration finds, so the verdict and the
    witness are the enumeration's.  A strict constraint holds somewhere iff
    it is loose at some vertex, and then the vertex centroid satisfies all
    of them (slacks are affine).  As three vertices of a convex region are
    never collinear, that can fail only on at most 2 vertices, so the first
    triangle's constraints are built only then; the others' once each.
    """
    triangles = []
    for sigma in chamber.subsets:
        if len(sigma) != 3:
            raise ValueError("only triangle chambers (m = 1) are supported")
        triangles.append([lam.points[i - 1] for i in sorted(sigma)])
    if not triangles:
        raise ValueError("the chamber has no triangle")
    constraints = [c for pts in triangles[1:] for c in _triangle_halfplanes(pts)]
    vs = _closed_hull(triangles[0])
    for h, _ in constraints:
        vs = clip(vs, h)
    if not vs or len(vs) <= 2 and any(strict and all(h.tight(v) for v in vs) for h, strict
                                      in constraints + _triangle_halfplanes(triangles[0])):
        return False, None
    n = len(vs)
    return True, (sum((v[0] for v in vs), Q(0)) / n, sum((v[1] for v in vs), Q(0)) / n)
