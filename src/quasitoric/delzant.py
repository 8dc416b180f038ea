"""The generalized Delzant construction at the data level: level-set
equations, cutting-group phase maps, and quasifold presentations.

Presentations are data, not spaces: equations, a phase map and group
descriptions carry all of the checkable content.  A report builds one
triple, P_a plus the extra half-plane, so each normal is checked in Q_a
once; the presentation reads P_a's facets off its polytope.  Its relation
rows (N's weight rows) are an argument, rendered as the phase map and not
kept: a report passes the Gale side's, below the all-ones row and without
the ghost column.  So is Gamma = Q / Z^2, the strip cut's: the presentation
names the quasitorus and divisors by it, and keeps no copy."""

from __future__ import annotations

from dataclasses import dataclass, field

from .polyhedron import HalfPlane, Polyhedron2
from .quasilattice import GroupDesc, Quasilattice
from .scalar import Q, QuadScalar, format_scalar


class TripleError(ValueError):
    """A facet normal does not belong to the quasilattice."""


@dataclass(frozen=True)
class PolytopeTriple:
    """(P, {X_i}, Q): polytope, ray generators given by the facet normals,
    containing quasilattice; optionally extra half-planes (extra X's with
    their offsets, beyond the facets of P)."""

    polytope: Polyhedron2
    quasilattice: Quasilattice
    extra_halfplanes: tuple[HalfPlane, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.polytope.simple:
            raise TripleError("polytope must be simple")
        for h in self.halfplanes():
            if not self.quasilattice.member(h.normal):
                raise TripleError(
                    f"normal ({h.normal[0]}, {h.normal[1]}) is not in the quasilattice"
                )

    def halfplanes(self) -> tuple[HalfPlane, ...]:
        return tuple(self.polytope.hrep) + tuple(self.extra_halfplanes)


@dataclass(frozen=True)
class MomentComponent:
    """One component sum_i b_i (|z_i|^2 + lambda_i) = sum b_i |z_i|^2 - c."""

    coefficients: tuple[QuadScalar, ...]
    constant: QuadScalar  # c = -sum b_i lambda_i; the level set is sum b|z|^2 = c

    def render(self) -> str:
        return f"{_render_modulus_form(self.coefficients)} = {format_scalar(self.constant)}"


def _render_modulus_form(coeffs) -> str:
    parts = []
    for i, b in enumerate(coeffs, start=1):
        if b.is_zero():
            continue
        if b == 1:
            parts.append(f"|z{i}|^2")
        elif b == -1:
            parts.append(f"-|z{i}|^2")
        else:
            parts.append(f"({format_scalar(b)})|z{i}|^2")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


@dataclass(frozen=True)
class QuasifoldPresentation:
    group_phase_map: str  # of the cutting group N = exp(span of the relation rows)
    quasitorus: str
    divisor_orders: tuple[tuple[int, int], ...]  # (facet index 1-based, order)


_PARAM_NAMES = "rstuv"


def render_phase_map(rows) -> str:
    """Human-readable phase map of exp(span of rows); one parameter per row,
    named in order of the rows' leading columns."""
    order = sorted(range(len(rows)), key=lambda i: _leading(rows[i]))
    names = {}
    for name_idx, row_idx in enumerate(order):
        names[row_idx] = _PARAM_NAMES[name_idx % len(_PARAM_NAMES)]
    d = len(rows[0]) if rows else 0
    coords = []
    for j in range(d):
        terms = []
        for i, row in enumerate(rows):
            b = row[j]
            if b.is_zero():
                continue
            if b == 1:
                terms.append(names[i])
            else:
                terms.append(f"({format_scalar(b)}){names[i]}")
        phase = " + ".join(terms) if terms else "0"
        coords.append(f"e^(2*pi*i*({phase}))" if phase != "0" else "1")
    return "(" + ", ".join(coords) + ")"


def _leading(row) -> int:
    return next((c for c, x in enumerate(row) if not x.is_zero()), len(row))


def moment_map_coeffs(
    halfplanes, rows: list[list[QuadScalar]]
) -> list[MomentComponent]:
    """Components sum_i b_i (|z_i|^2 + lambda_i) of the moment map for the
    subgroup exp(span rows) acting on C^d, d the number of half-planes
    <mu, X_i> >= lambda_i."""
    d = len(halfplanes)
    out = []
    for row in rows:
        if len(row) != d:
            raise ValueError(f"row length {len(row)} != facet count {d}")
        for k in range(2):
            acc = Q(0)
            for b, h in zip(row, halfplanes):
                acc = acc + b * h.normal[k]
            if not acc.is_zero():
                raise ValueError("relation row does not annihilate the normals")
        c = -sum((b * h.offset for b, h in zip(row, halfplanes)), Q(0))
        out.append(MomentComponent(tuple(row), c))
    return out


def presentation(triple: PolytopeTriple, rows, gamma: GroupDesc) -> QuasifoldPresentation:
    """Symplectic quasifold presentation of the triple's polytope P: the phase
    map of the cutting group exp(span rows), for the given relation rows of
    P's facet normals, rendered once and not kept.  ``gamma`` = Q / Z^2
    (``Q.quotient(z2())``, or the strip cut's) only names the quasitorus and
    orbifold divisors."""
    facets = triple.polytope.hrep
    divisors: list[tuple[int, int]] = []
    if gamma.kind == "trivial":
        quasitorus = "S^1 x S^1"
    elif gamma.kind == "finite_cyclic":
        quasitorus = f"S^1 x (S^1/Z_{gamma.order})"
        # the two horizontal facets (bases of the trapezoid) pick up
        # orbifold divisors of order q
        for idx, h in enumerate(facets, start=1):
            if h.normal[0].is_zero():
                divisors.append((idx, gamma.order))
    else:
        quasitorus = "S^1 x (S^1/Gamma_a)"
    return QuasifoldPresentation(
        group_phase_map=render_phase_map(rows),
        quasitorus=quasitorus,
        divisor_orders=tuple(divisors),
    )
