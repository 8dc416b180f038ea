"""The generalized Delzant construction at the data level: level-set
equations, cutting-group phase maps, and quasifold presentations.

Presentations are data, not spaces: equations, weight rows, and group
descriptions carry all of the checkable content.  The normals' relation
rows are an argument: a report reads P_a's off V_a's relation basis, below
its all-ones row and without its ghost column.  So is the group Gamma =
Q / Z^2 of a parameter-tagged quasilattice Q, None for an untagged one: a
report passes its strip cut's, which ``Quasilattice.quotient`` classifies
from the same three generators in the same order."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import Vec2
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

    def normals(self) -> list[Vec2]:
        return [h.normal for h in self.halfplanes()]

    def offsets(self) -> list[QuadScalar]:
        return [h.offset for h in self.halfplanes()]


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
    facet_count: int
    relation_rows: tuple[tuple[QuadScalar, ...], ...]
    level_components: tuple[MomentComponent, ...]
    group_weight_rows: tuple[tuple[QuadScalar, ...], ...]  # phase map of the cutting group N
    quasitorus: str
    gamma: GroupDesc | None
    divisor_orders: tuple[tuple[int, int], ...]  # (facet index 1-based, order)

    def group_phases(self) -> str:
        return render_phase_map(self.group_weight_rows)


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
    triple: PolytopeTriple, rows: list[list[QuadScalar]]
) -> list[MomentComponent]:
    """Components sum_i b_i (|z_i|^2 + lambda_i) of the moment map for the
    subgroup exp(span rows) acting on C^d."""
    normals = triple.normals()
    offsets = triple.offsets()
    d = len(normals)
    out = []
    for row in rows:
        if len(row) != d:
            raise ValueError(f"row length {len(row)} != facet count {d}")
        for k in range(2):
            acc = Q(0)
            for b, n in zip(row, normals):
                acc = acc + b * n[k]
            if not acc.is_zero():
                raise ValueError("relation row does not annihilate the normals")
        c = Q(0)
        for b, lam in zip(row, offsets):
            c = c - b * lam
        out.append(MomentComponent(tuple(row), c))
    return out


def presentation(triple: PolytopeTriple, rows, gamma: GroupDesc | None) -> QuasifoldPresentation:
    """Symplectic quasifold presentation: level-set equations of the moment
    map plus the phase map of the cutting group exp(span rows), for relation
    rows of the triple's normals, which ``moment_map_coeffs`` checks.  For a
    tagged quasilattice Q, ``gamma`` is Q / Z^2 (``Q.quotient(z2())``, or
    the strip cut's), which names the quasitorus and the orbifold divisors;
    for an untagged one it is None."""
    normals = triple.normals()
    components = moment_map_coeffs(triple, rows)
    quasitorus = "R^2/Q (untagged quasilattice)"
    divisors: list[tuple[int, int]] = []
    if gamma is not None:
        if gamma.kind == "trivial":
            quasitorus = "S^1 x S^1"
        elif gamma.kind == "finite_cyclic":
            quasitorus = f"S^1 x (S^1/Z_{gamma.order})"
        else:
            quasitorus = "S^1 x (S^1/Gamma_a)"
        if gamma.kind == "finite_cyclic":
            # the two horizontal facets (bases of the trapezoid) pick up
            # orbifold divisors of order q
            for idx, n in enumerate(normals, start=1):
                if n[0].is_zero():
                    divisors.append((idx, gamma.order))
    return QuasifoldPresentation(
        facet_count=len(normals),
        relation_rows=tuple(tuple(r) for r in rows),
        level_components=tuple(components),
        group_weight_rows=tuple(tuple(r) for r in rows),
        quasitorus=quasitorus,
        gamma=gamma,
        divisor_orders=tuple(divisors),
    )
