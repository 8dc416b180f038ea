"""Symplectic cutting in arbitrary (possibly nonrational) directions and
blow-up as corner chopping, at the level of moment polytopes and
quasilattices.

The cut of C x S^2 along <mu, (-1, a)> >= -1 has moment map
phi(u, [v:z]) = -|u|^2 + a(z+1)/2 = <mu, (-1, a)> at mu = (|u|^2, (z+1)/2);
on the strip, phi > -1 maps onto the kept piece of a CutResult minus the
cut line, phi = -1 onto its reduced face, and phi < -1 onto its other piece
minus the cut line.

Neither a cut nor a blow-up enumerates vertices or scans for tight
constraints: a cut is two labelled ``polyhedron.clip``s of P's stored
boundary cycle ``P.cycle`` (``split``, which reads the reduced face off
both), and a checked corner chop is one (``cap``).  An empty cycle means P
has no interior.

A cut augments the quasilattice Q by its normal nu, and its gamma is the
quotient (Q + Z nu) / Q from ``Quasilattice.quotient``, the one place that
tells trivial, finite cyclic and dense apart.  The strip cut of a report
augments Z^2 by (-1, a) to Q_a's generators in their order, so its gamma is
Gamma_a = Q_a / Z^2, which the report's presentation reuses."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec2, cross, dot, is_zero_vec
from .polyhedron import (
    HalfPlane,
    NoOpCutError,
    Polyhedron2,
    cap,
    split,
)
from .quasilattice import GroupDesc, Quasilattice
from .scalar import Q


class AmountTooLargeError(ValueError):
    """A chop that is not a corner chop: its point is not a vertex, or it
    reaches another vertex, cuts off an unbounded end, or runs parallel to
    an edge at the vertex."""


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


def cut_polyhedron(
    p: Polyhedron2, q: Quasilattice, nu: Vec2, c
) -> CutResult:
    """Cut P along the line <mu, nu> = c; the quasilattice is augmented by
    the cutting normal so the cut direction becomes 'rational', and gamma is
    the cyclic quotient (Q + Z nu) / Q that ``Quasilattice.quotient`` reads
    off Q's Hermite normal form.

    The pieces are P cap {<mu, nu> >= c} and P cap {<mu, nu> <= c}, and the
    reduced face is P on the cut line, all three from ``split``'s two clips
    of P's boundary without an enumeration; P must have an irredundant hrep,
    as every Polyhedron2 from ``vrep_from_hrep`` has.  NoOpCutError when P
    has no interior (a point, segment or ray: an empty ``p.cycle``) or the
    line misses it."""
    keep = HalfPlane(_normal(nu), c)
    if not p.cycle:
        raise NoOpCutError("the polyhedron has no interior to cut")
    augmented = q.augment(keep.normal)
    return CutResult(*split(p, keep), augmented, augmented.quotient(q), keep)


def blowup_corner(p: Polyhedron2, vertex: Vec2, nu: Vec2, amount) -> Polyhedron2:
    """Chop the corner at the given vertex with <mu, nu> >= <vertex, nu> + amount.

    The point must be a vertex of P (else AmountTooLargeError) and the
    amount nonnegative (else ValueError).  amount = 0 returns P unchanged.
    Otherwise it must be a corner chop, one ``cap`` clip of ``p.cycle``:

    - P has an interior, a nonempty cycle (else NoOpCutError);
    - every other vertex of P is strictly inside the half-plane;
    - no ray r of P has <r, nu> < 0, which would cut off an unbounded end;
    - neither edge at the vertex, whose constraints ``p.incidence`` gives,
      is parallel to the chop line, which would cut off that whole edge.

    A failed check of the last three raises AmountTooLargeError.  Together
    they leave each edge of P a part of positive length and add the chop
    line's edge, so the enumeration would keep all of ``p.hrep`` plus h.
    """
    nu = _normal(nu)
    vertex = (Q(vertex[0]), Q(vertex[1]))
    amount = Q(amount)
    if vertex not in p.vertices:
        raise AmountTooLargeError(f"blow-up point {_fmt(vertex)} is not a vertex of the polyhedron")
    if amount.sign() < 0:
        raise ValueError(f"blow-up amount {amount} must be nonnegative")
    if amount.is_zero():
        return p
    if not p.cycle:
        raise NoOpCutError("the polyhedron has no interior to chop")
    h = HalfPlane(nu, dot(vertex, nu) + amount)
    for w in p.vertices:
        if w != vertex and h.slack(w).sign() <= 0:
            raise AmountTooLargeError(f"chop reaches the vertex {_fmt(w)} too")
    for r in p.rays:
        if dot(r, nu).sign() < 0:
            raise AmountTooLargeError(f"chop cuts off the unbounded end along the ray {_fmt(r)}")
    for g in (p.hrep[i] for i in p.incidence[p.vertices.index(vertex)]):
        if cross(g.normal, nu).is_zero():
            raise AmountTooLargeError(f"chop line is parallel to the edge "
                                      f"<mu, {_fmt(g.normal)}> = {g.offset} at {_fmt(vertex)}")
    return cap(p, h)
