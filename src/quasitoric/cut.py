"""Symplectic cutting in arbitrary (possibly nonrational) directions and
blow-up as corner chopping, at the level of moment polytopes and
quasilattices.

The cut of C x S^2 along <mu, (-1, a)> >= -1 has moment map
phi(u, [v:z]) = -|u|^2 + a(z+1)/2 = <mu, (-1, a)> at mu = (|u|^2, (z+1)/2);
on the strip, phi > -1 maps onto the kept piece of a CutResult minus the
cut line, phi = -1 onto its reduced face, and phi < -1 onto its other piece
minus the cut line.

The reduced face is read off the kept piece (``polyhedron.line_face``): its
ends are the kept piece's vertices on the cut line, so a cut costs two
vertex enumerations, one per piece.  A blow-up costs none: once the chop is
checked to cut off one vertex and nothing else, ``polyhedron.chop_vertex``
builds the chopped polyhedron from the two edges at that vertex."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec2, cross, dot, is_zero_vec, vsub
from .polyhedron import HalfPlane, Polyhedron2, chop_vertex, intersect_halfplane, line_face
from .quasilattice import GroupDesc, Quasilattice, quotient_order
from .scalar import Q


class NoOpCutError(ValueError):
    """The cutting line misses the interior of the polyhedron, or the
    polyhedron has none."""


class AmountTooLargeError(ValueError):
    """A chop that is not a corner chop: it reaches another vertex, cuts off
    an unbounded end, or runs parallel to an edge at the vertex."""


@dataclass(frozen=True)
class CutResult:
    kept_piece: Polyhedron2  # the side <mu, nu> >= c
    other_piece: Polyhedron2
    reduced_face: Polyhedron2  # P intersected with the cut line
    augmented_quasilattice: Quasilattice
    gamma: GroupDesc
    cut_halfplane: HalfPlane


def _fmt(v: Vec2) -> str:
    return f"({v[0]}, {v[1]})"


def _normal(nu) -> Vec2:
    nu = (Q(nu[0]), Q(nu[1]))
    if is_zero_vec(nu):
        raise ValueError("the normal must be nonzero")
    return nu


def _value_range(p: Polyhedron2, nu: Vec2):
    """(min, max) of <mu, nu> over P; None means unbounded on that side."""
    values = [dot(v, nu) for v in p.vertices]
    lo, hi = min(values), max(values)
    for r in p.rays:
        s = dot(r, nu).sign()
        if s > 0:
            hi = None
        elif s < 0:
            lo = None
        if lo is None and hi is None:
            break
    return lo, hi


def _has_interior(p: Polyhedron2) -> bool:
    """P is not flat: its vertex differences v - v0 and its rays include two
    nonparallel vectors."""
    v0 = p.vertices[0]
    dirs = [vsub(v, v0) for v in p.vertices[1:]] + list(p.rays)
    return any(not cross(dirs[0], d).is_zero() for d in dirs[1:])


def quotient_group(q: Quasilattice, augmented: Quasilattice, nu: Vec2) -> GroupDesc:
    """Describe augmented/q for a single-vector augmentation (always cyclic,
    generated by the class of nu)."""
    if q.equivalent(augmented):
        return GroupDesc("trivial")
    if augmented.is_lattice():
        return GroupDesc("finite_cyclic", order=quotient_order(q, augmented))
    coeff = next((x for x in nu if not x.is_rational()), None)
    return GroupDesc("dense_cyclic", rotation_coefficient=coeff)


def cut_polyhedron(
    p: Polyhedron2, q: Quasilattice, nu: Vec2, c
) -> CutResult:
    """Cut P along the line <mu, nu> = c; the quasilattice is augmented by
    the cutting normal so the cut direction becomes 'rational'.

    The pieces are P cap {<mu, nu> >= c} and P cap {<mu, nu> <= c}.  The
    reduced face, P on the cut line, is read off the kept piece rather than
    enumerated; P must have an irredundant hrep, as every Polyhedron2 from
    ``vrep_from_hrep`` has.  NoOpCutError when P has no interior (a point,
    segment or ray) or the line misses it."""
    nu = _normal(nu)
    c = Q(c)
    if not _has_interior(p):
        raise NoOpCutError("the polyhedron has no interior to cut")
    lo, hi = _value_range(p, nu)
    if (lo is not None and not c > lo) or (hi is not None and not c < hi):
        raise NoOpCutError("cut line does not meet the interior")
    keep = HalfPlane(nu, c)
    kept = intersect_halfplane(p, keep)
    other = intersect_halfplane(p, keep.flipped())
    face = line_face(p, kept, keep)
    augmented = q.augment(nu)
    gamma = quotient_group(q, augmented, nu)
    return CutResult(kept, other, face, augmented, gamma, keep)


def blowup_corner(p: Polyhedron2, vertex: Vec2, nu: Vec2, amount) -> Polyhedron2:
    """Chop the corner at the given vertex with <mu, nu> >= <vertex, nu> + amount.

    amount = 0 returns P unchanged.  Otherwise the chop must be a corner
    chop, which ``chop_vertex`` then builds without an enumeration:

    - P has an interior (else NoOpCutError);
    - every other vertex of P is strictly inside the half-plane;
    - no ray r of P has <r, nu> < 0, which would cut off an unbounded end;
    - neither edge at the vertex is parallel to the chop line, which would
      cut off that whole edge.

    A failed check of the last three raises AmountTooLargeError.
    """
    nu = _normal(nu)
    vertex = (Q(vertex[0]), Q(vertex[1]))
    amount = Q(amount)
    if vertex not in p.vertices:
        raise ValueError(f"blow-up point {_fmt(vertex)} is not a vertex of the polyhedron")
    if amount.sign() < 0:
        raise ValueError(f"blow-up amount {amount} must be nonnegative")
    if amount.is_zero():
        return p
    if not _has_interior(p):
        raise NoOpCutError("the polyhedron has no interior to chop")
    h = HalfPlane(nu, dot(vertex, nu) + amount)
    for w in p.vertices:
        if w != vertex and h.slack(w).sign() <= 0:
            raise AmountTooLargeError(f"chop reaches the vertex {_fmt(w)} too")
    for r in p.rays:
        if dot(r, nu).sign() < 0:
            raise AmountTooLargeError(f"chop cuts off the unbounded end along the ray {_fmt(r)}")
    for g in p.hrep:
        if g.tight(vertex) and cross(g.normal, nu).is_zero():
            raise AmountTooLargeError(f"chop line is parallel to the edge "
                                      f"<mu, {_fmt(g.normal)}> = {g.offset} at {_fmt(vertex)}")
    return chop_vertex(p, vertex, h)
