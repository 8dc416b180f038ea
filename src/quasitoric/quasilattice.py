"""Quasilattices: Z-spans of plane vectors over Q(sqrt(d)).

Splitting every coordinate into its rational and sqrt(d) parts maps a
quasilattice onto a Z-module in Q^4. Each instance reduces its generators
once, to the Hermite normal form of that module scaled into Z^4, and answers
membership, coordinates on that basis, discreteness, ray rationality and the
quotient by a sublattice exactly from that one form.  This module alone
decides whether a quotient Gamma is trivial, finite cyclic or dense, in
``quotient``; a report asks it once, for its strip cut (``cut``), whose
Gamma_a = Q_a / Z^2 its presentation (``delzant``) reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm

from .linalg import Vec2, cross, hnf_rows
from .scalar import ParamSpec, Q, QuadScalar, ScalarContextError, sqrt


@dataclass(frozen=True)
class GroupDesc:
    """A cyclic quotient (sub + Z nu) / sub, such as Gamma_a = Q_a / Z^2:
    trivial, Z/qZ, or infinite ("dense_cyclic", as rotations by 2*pi*a are
    dense in S^1).

    The class of nu acts on the circle of the other axis when one
    coordinate of nu lies in sub: nu = (x, y) with (x, 0) in sub rotates by
    2*pi*y, and with (0, y) in sub by 2*pi*x.  For nu = (-1, a) over Z^2 that
    is a.  When neither coordinate is in sub the rotation is None.
    """

    kind: str  # "trivial" | "finite_cyclic" | "dense_cyclic"
    order: int | None = None
    rotation_coefficient: QuadScalar | None = None  # rotation by 2*pi*a

    def __post_init__(self):
        if self.kind not in ("trivial", "finite_cyclic", "dense_cyclic"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "finite_cyclic" and (self.order is None or self.order < 2):
            raise ValueError("finite_cyclic needs order >= 2")


def _context_d(vectors, d: int | None = None) -> int | None:
    """The one sqrt(d) the vectors (and a known context d) use, if any."""
    for v in vectors:
        for x in v:
            if x.d is not None:
                if d is None:
                    d = x.d
                elif d != x.d:
                    raise ScalarContextError("mixed sqrt contexts in quasilattice")
    return d


def _parts(v: Vec2) -> tuple[Fraction, ...]:
    """A plane vector over Q(sqrt(d)) as the 4-tuple (x.r, x.s, y.r, y.s)."""
    return (v[0].r, v[0].s, v[1].r, v[1].s)


def _scaled_rows(vectors) -> tuple[list[list[int]], int]:
    """The vectors' 4-tuples scaled into Z^4 by their common denominator;
    returns (rows, denominator)."""
    rows = [_parts(v) for v in vectors]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


@dataclass(frozen=True)
class Quasilattice:
    generators: tuple[Vec2, ...]
    param: ParamSpec | None = None

    def __post_init__(self):
        gens = tuple(tuple(Q(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if not any(
            not cross(gens[i], gens[j]).is_zero()
            for i in range(len(gens))
            for j in range(i + 1, len(gens))
        ):
            raise ValueError("generators must span the plane")

    @cached_property
    def _hnf(self) -> tuple[tuple[tuple[int, ...], ...], int, int | None]:
        """(Hermite normal form rows of the generators scaled into Z^4, the
        scale, the sqrt(d) context).  The rows are tuples: a shared instance
        such as ``z2()`` hands the same rows to every caller."""
        d = _context_d(self.generators)
        rows, den = _scaled_rows(self.generators)
        return tuple(map(tuple, hnf_rows(rows))), den, d

    # -- membership -----------------------------------------------------------

    def coordinates(self, v: Vec2) -> list[Fraction] | None:
        """v's rational coordinates on the HNF rows, a Z-basis of the
        quasilattice (den*v's coefficients on the scaled rows), from
        reducing den*v against the echelon rows; None when something is
        left, i.e. v is off the rows' rational span.  The reduction runs on
        integers w with w/s = what is left of den*v, and s grows so each
        pivot divides."""
        v = (Q(v[0]), Q(v[1]))
        basis, den, d = self._hnf
        _context_d([v], d)
        (w,), s = _scaled_rows([v])
        w = [x * den for x in w]
        coeffs = []
        for h in basis:
            p = next(c for c, x in enumerate(h) if x)
            g = h[p] // gcd(w[p], h[p])
            if g != 1:
                w, s = [x * g for x in w], s * g
            k = w[p] // h[p]
            w = [x - k * y for x, y in zip(w, h)]
            coeffs.append(Fraction(k, s))
        return None if any(w) else coeffs

    def member(self, v: Vec2) -> bool:
        """Is v an integer combination of the generators? The HNF rows are
        a Z-basis, so iff v's coefficients on them exist and are integers."""
        return _integral(self.coordinates(v))

    def ray_meets(self, g: Vec2) -> bool:
        """Does the ray through g contain a nonzero quasilattice point?

        It does iff t*g lies in the rational span of the generators for some
        t != 0 in Q(sqrt(d)) (a rational multiple then clears denominators),
        i.e. iff the rational spans of the HNF rows and of T = {g, sqrt(d)*g}
        meet: rank(HNF + T) < rank(HNF) + |T|.
        """
        g = (Q(g[0]), Q(g[1]))
        basis, _, d = self._hnf
        d = _context_d([g], d)
        t = [g] if d is None else [g, (sqrt(d) * g[0], sqrt(d) * g[1])]
        return len(hnf_rows([*basis, *_scaled_rows(t)[0]])) < len(basis) + len(t)

    # -- structure -------------------------------------------------------------

    def is_lattice(self) -> bool:
        """Discrete iff the generators span a Z-module of rank <= 2."""
        return len(self._hnf[0]) <= 2

    def augment(self, nu: Vec2) -> "Quasilattice":
        nu = (Q(nu[0]), Q(nu[1]))
        if nu[0].is_zero() and nu[1].is_zero():
            raise ValueError("cannot augment by the zero vector")
        return Quasilattice(self.generators + (nu,), self.param)

    def quotient(self, sub: "Quasilattice") -> GroupDesc:
        """self / sub for self = sub + Z nu, generated by the class of nu,
        the one generator of self outside sub (none: trivial; two or more:
        ValueError).  k*nu is in sub iff k times each coefficient of nu on
        sub's HNF rows is an integer, so the order is the lcm of their
        denominators, and infinite when nu is off the rows' rational span.
        Each generator is reduced on sub's rows once, and membership read off
        its coordinates."""
        coords = [sub.coordinates(g) for g in self.generators]
        outside = [(g, c) for g, c in zip(self.generators, coords) if not _integral(c)]
        if not outside:
            return GroupDesc("trivial")
        if len(outside) > 1:
            raise ValueError("the quotient is only described for a cyclic extension sub + Z nu")
        ((nu, coeffs),) = outside
        zero = Q(0)
        if sub.member((nu[0], zero)):
            rotation = nu[1]
        elif sub.member((zero, nu[1])):
            rotation = nu[0]
        else:
            rotation = None
        if coeffs is None:
            return GroupDesc("dense_cyclic", rotation_coefficient=rotation)
        order = lcm(*(k.denominator for k in coeffs))
        return GroupDesc("finite_cyclic", order=order, rotation_coefficient=rotation)


def _integral(coeffs) -> bool:
    """Coordinates on the HNF rows (``Quasilattice.coordinates``) that exist
    and are integers: those of a member."""
    return coeffs is not None and all(k.denominator == 1 for k in coeffs)


@cache
def z2() -> Quasilattice:
    """Z^2, built once per process and shared, as ``pipeline.strip`` is,
    so its Hermite normal form is computed once; safe because a
    ``Quasilattice`` is frozen and its HNF rows are tuples."""
    return Quasilattice(((Q(1), Q(0)), (Q(0), Q(1))))


def hirzebruch_quasilattice(a: ParamSpec) -> Quasilattice:
    """Q_a = span_Z{(1,0),(0,1),(-1,a)} = Z x (Z + aZ)."""
    return Quasilattice(
        ((Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), a.value)),
        param=a,
    )
