"""Symplectic cutting in arbitrary (possibly nonrational) directions and
blow-up as corner chopping, at the level of moment polytopes, quasilattices,
and explicit moment maps."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec2, dot, is_zero_vec
from .polyhedron import HalfPlane, Polyhedron2, intersect_halfplane, vrep_from_hrep
from .quasilattice import GroupDesc, Quasilattice, quotient_order
from .scalar import ParamSpec, Q, QuadScalar


class NoOpCutError(ValueError):
    """The cutting line misses the interior of the polyhedron."""


class AmountTooLargeError(ValueError):
    """A corner chop that would remove more than one vertex."""


@dataclass(frozen=True)
class CutResult:
    kept_piece: Polyhedron2  # the side <mu, nu> >= c
    other_piece: Polyhedron2
    reduced_face: Polyhedron2  # P intersected with the cut line
    augmented_quasilattice: Quasilattice
    gamma: GroupDesc
    cut_halfplane: HalfPlane


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
    the cutting normal so the cut direction becomes 'rational'."""
    nu = _normal(nu)
    c = Q(c)
    lo, hi = _value_range(p, nu)
    if (lo is not None and not c > lo) or (hi is not None and not c < hi):
        raise NoOpCutError("cut line does not meet the interior")
    keep = HalfPlane(nu, c)
    kept = intersect_halfplane(p, keep)
    other = intersect_halfplane(p, keep.flipped())
    face = vrep_from_hrep(list(p.hrep) + [keep, keep.flipped()])
    augmented = q.augment(nu)
    gamma = quotient_group(q, augmented, nu)
    return CutResult(kept, other, face, augmented, gamma, keep)


def open_side_contains(result: CutResult, point: Vec2) -> bool:
    """Is the point in the open dense region {<mu, nu> > c} inside P?"""
    return (
        result.kept_piece.contains(point)
        and result.cut_halfplane.slack(point).sign() > 0
    )


@dataclass(frozen=True)
class CutMomentMaps:
    """Moment maps for cutting C x S^2 along <mu,(-1,a)> = -1.

    phi(u,[v:z]) = -|u|^2 + a(z+1)/2 on C x (S^2/Gamma_a);
    nu_minus subtracts |w|^2 for the auxiliary C factor; the cut space is
    the level nu_minus = -1.  Circle weights on (u, v, w): (-1, a, -1).
    """

    a: ParamSpec

    @property
    def circle_weights(self) -> tuple[QuadScalar, QuadScalar, QuadScalar]:
        return (Q(-1), self.a.value, Q(-1))

    @property
    def cut_level(self) -> QuadScalar:
        return Q(-1)

    def phi_sq(self, u_sq: QuadScalar, z: QuadScalar) -> QuadScalar:
        return -Q(u_sq) + self.a.value * (Q(z) + 1) / 2

    def nu_minus_sq(self, u_sq, z, w_sq) -> QuadScalar:
        return self.phi_sq(u_sq, z) - Q(w_sq)

    def strip_point(self, u_sq: QuadScalar, z: QuadScalar) -> Vec2:
        """Toric moment image of (u, v, z) in the strip [0,inf) x [0,1]."""
        return (Q(u_sq), (Q(z) + 1) / 2)


def cut_moment_maps(a: ParamSpec) -> CutMomentMaps:
    return CutMomentMaps(a)


@dataclass(frozen=True)
class DecompositionReport:
    total: int
    open_region: int
    cut_locus: int
    other_side: int
    consistent: bool


def cut_decomposition_check(
    result: CutResult, a: ParamSpec, samples: list[tuple[QuadScalar, QuadScalar]]
) -> DecompositionReport:
    """Exact check, on squared-modulus samples (|u|^2, z), that the moment
    image of {phi > -1} is the kept piece minus the cut edge."""
    maps = cut_moment_maps(a)
    n_open = n_locus = n_other = 0
    ok = True
    for u_sq, z in samples:
        mu = maps.strip_point(u_sq, z)
        phi = maps.phi_sq(u_sq, z)
        s = (phi - maps.cut_level).sign()
        if s > 0:
            n_open += 1
            ok = ok and open_side_contains(result, mu)
        elif s == 0:
            n_locus += 1
            ok = ok and result.reduced_face.contains(mu)
        else:
            n_other += 1
            ok = ok and result.other_piece.contains(mu) and not open_side_contains(result, mu)
    return DecompositionReport(len(samples), n_open, n_locus, n_other, ok)


def blowup_corner(p: Polyhedron2, vertex: Vec2, nu: Vec2, amount) -> Polyhedron2:
    """Chop the corner at the given vertex with <mu, nu> >= <vertex, nu> + amount.

    amount = 0 returns P unchanged; a chop reaching another vertex raises
    AmountTooLargeError.
    """
    nu = _normal(nu)
    vertex = (Q(vertex[0]), Q(vertex[1]))
    amount = Q(amount)
    if vertex not in p.vertices:
        raise ValueError("blow-up point must be a vertex of the polyhedron")
    if amount.sign() < 0:
        raise ValueError("blow-up amount must be nonnegative")
    c = dot(vertex, nu) + amount
    if amount.is_zero():
        return p
    for w in p.vertices:
        if w != vertex and (dot(w, nu) - c).sign() <= 0:
            raise AmountTooLargeError("chop would remove more than one vertex")
    out = intersect_halfplane(p, HalfPlane(nu, c))
    if out is None:
        raise AmountTooLargeError("chop removed the whole polyhedron")
    return out
