"""Quasilattices: Z-spans of plane vectors over Q(sqrt(d)).

Splitting every coordinate into its rational and sqrt(d) parts maps a
quasilattice onto a Z-module in Q^4. Each instance reduces its generators
once, to the Hermite normal form of that module scaled into Z^4, and answers
membership, discreteness, its lattice basis and ray rationality exactly from
that one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .linalg import Vec2, cross, hnf_rows
from .scalar import ParamSpec, Q, QuadScalar, ScalarContextError, sqrt


class QuotientUnsupportedError(ValueError):
    """Quotient description requested for an untagged quasilattice."""


@dataclass(frozen=True)
class GroupDesc:
    """The quotient group Q_a / Z^2: trivial, Z/qZ, or a dense rotation group."""

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
    def _hnf(self) -> tuple[list[list[int]], int, int | None]:
        """(Hermite normal form rows of the generators scaled into Z^4, the
        scale, the sqrt(d) context)."""
        d = _context_d(self.generators)
        rows, den = _scaled_rows(self.generators)
        return hnf_rows(rows), den, d

    # -- membership -----------------------------------------------------------

    def member(self, v: Vec2) -> bool:
        """Is v an integer combination of the generators? Reduce den*v
        against the echelon rows; v is a member iff nothing is left."""
        v = (Q(v[0]), Q(v[1]))
        basis, den, d = self._hnf
        _context_d([v], d)
        w = [x * den for x in _parts(v)]
        if any(x.denominator != 1 for x in w):
            return False
        w = [int(x) for x in w]
        for h in basis:
            p = next(c for c, x in enumerate(h) if x)
            k = w[p] // h[p]
            w = [x - k * y for x, y in zip(w, h)]
        return not any(w)

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
        return len(hnf_rows(basis + _scaled_rows(t)[0])) < len(basis) + len(t)

    # -- structure -------------------------------------------------------------

    def is_lattice(self) -> bool:
        """Discrete iff the generators span a Z-module of rank <= 2."""
        return len(self._hnf[0]) <= 2

    def lattice_basis(self) -> tuple[Vec2, Vec2]:
        """A Z-basis of a rank-2 discrete quasilattice: its HNF rows."""
        basis, den, d = self._hnf
        if len(basis) != 2:  # generators span the plane, so rank >= 2
            raise ValueError("dense quasilattice has no lattice basis")
        # d is the context of the generators, checked when they were built
        return tuple(
            (
                QuadScalar._new(Fraction(h[0], den), Fraction(h[1], den), d),
                QuadScalar._new(Fraction(h[2], den), Fraction(h[3], den), d),
            )
            for h in basis
        )

    def augment(self, nu: Vec2) -> "Quasilattice":
        nu = (Q(nu[0]), Q(nu[1]))
        if nu[0].is_zero() and nu[1].is_zero():
            raise ValueError("cannot augment by the zero vector")
        return Quasilattice(self.generators + (nu,), self.param)

    def equivalent(self, other: "Quasilattice") -> bool:
        """Membership-equivalence: each generator lies in the other group."""
        return all(other.member(g) for g in self.generators) and all(
            self.member(g) for g in other.generators
        )

    def gamma_quotient(self) -> GroupDesc:
        """Q_a / Z^2 for a tagged Q_a: trivial, Z/qZ, or dense rotations by 2*pi*a."""
        if self.param is None:
            raise QuotientUnsupportedError(
                "quotient description only available for parameter-tagged quasilattices"
            )
        a = self.param
        if not a.rational:
            return GroupDesc("dense_cyclic", rotation_coefficient=a.value)
        if a.q == 1:
            return GroupDesc("trivial")
        return GroupDesc("finite_cyclic", order=a.q, rotation_coefficient=a.value)


def z2() -> Quasilattice:
    return Quasilattice(((Q(1), Q(0)), (Q(0), Q(1))))


def hirzebruch_quasilattice(a: ParamSpec) -> Quasilattice:
    """Q_a = span_Z{(1,0),(0,1),(-1,a)} = Z x (Z + aZ)."""
    return Quasilattice(
        ((Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), a.value)),
        param=a,
    )


def quotient_order(sub: Quasilattice, sup: Quasilattice) -> int:
    """Index [sup : sub] for nested rank-2 lattices, via determinant ratio."""
    b_sub = sub.lattice_basis()
    b_sup = sup.lattice_basis()
    ratio = cross(b_sub[0], b_sub[1]) / cross(b_sup[0], b_sup[1])
    if not (ratio.is_rational() and abs(ratio).r.denominator == 1):
        raise ValueError("lattices are not nested")
    return abs(int(abs(ratio).r))
