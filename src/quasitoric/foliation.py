"""The LVM layer: the open set U(T*), the point-configuration action and its
conjugate, leaf classification, projection to the leaf space, and a
floating-point quotient-equivalence test for the leaf space classes."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .gale import PointConfig, VirtualChamber
from .scalar import ParamSpec

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class LVMDatum:
    points: PointConfig
    chamber: VirtualChamber
    a: ParamSpec

    def __post_init__(self):
        if len(self.points) != 5:
            raise ValueError("expected a length-5 point configuration")
        if any(5 not in s for s in self.chamber.subsets):
            raise ValueError("every chamber element must contain the last index")


def normalize(z: tuple[complex, ...]) -> tuple[complex, ...]:
    """Scale homogeneous coordinates by the largest-modulus entry."""
    m = max(abs(w) for w in z)
    if m == 0:
        raise ValueError("homogeneous coordinates cannot all vanish")
    return tuple(w / m for w in z)


def in_U(z: tuple[complex, ...], chamber: VirtualChamber, tol: float = DEFAULT_TOL) -> bool:
    z = normalize(z)
    return any(all(abs(z[i - 1]) > tol for i in sigma) for sigma in chamber.subsets)


def _phases(points: PointConfig, t: complex) -> list[complex]:
    return [
        cmath.exp(2j * cmath.pi * complex(p[0].to_float(), p[1].to_float()) * t)
        for p in points.points
    ]


def act_c_lambda(t: complex, z: tuple[complex, ...], points: PointConfig) -> tuple[complex, ...]:
    """Coordinate j is multiplied by exp(2*pi*i*Lambda_j*t)."""
    return normalize(tuple(f * w for f, w in zip(_phases(points, t), z)))


def act_conjugate(t: complex, z: tuple[complex, ...], points: PointConfig) -> tuple[complex, ...]:
    return act_c_lambda(t, z, points.conjugate())


def project(z: tuple[complex, ...], tol: float = DEFAULT_TOL) -> tuple[complex, ...]:
    """[z1:...:z5] -> (z1/z5, ..., z4/z5); needs z5 != 0 (true on U(T*))."""
    z = normalize(z)
    if abs(z[4]) <= tol:
        raise ValueError("last homogeneous coordinate vanishes: outside U(T*)")
    return tuple(w / z[4] for w in z[:4])


def _frac_dist(x: float) -> float:
    return abs(x - round(x))


def dist_to_z_plus_az(x: float, a: ParamSpec) -> float:
    """Distance from x to the subgroup Z + aZ of R."""
    av = float(a.value)
    if a.rational:
        # Z + (p/q)Z = (1/q)Z
        return _frac_dist(x * a.q) / a.q
    bound = int(abs(x) / min(av, 1.0)) + 3
    return min(_frac_dist(x - n * av) for n in range(-bound, bound + 1))


def class_residual(
    w: tuple[complex, ...], w2: tuple[complex, ...], a: ParamSpec, tol: float = DEFAULT_TOL
) -> float:
    """How far (w, w2) are from lying in the same leaf-space class.

    The class group multiplies coordinates by
    (e^{2 pi i u}, e^{2 pi i v}, e^{2 pi i (v + a u)}, e^{2 pi i u}), u, v in C.
    Returns +inf when the zero patterns differ.
    """
    if len(w) != 4 or len(w2) != 4:
        raise ValueError("leaf-space points have 4 coordinates")
    present = []
    for x, y in zip(w, w2):
        zx, zy = abs(x) <= tol, abs(y) <= tol
        if zx != zy:
            return math.inf
        present.append(not zx)
    mu = [
        cmath.log(y / x) / (2j * cmath.pi) if p else 0j
        for x, y, p in zip(w, w2, present)
    ]
    residual = 0.0
    u_index = 0 if present[0] else (3 if present[3] else None)
    if present[0] and present[3]:
        delta = mu[0] - mu[3]
        residual = max(residual, abs(delta.imag), _frac_dist(delta.real))
    if present[2] and present[1] and u_index is not None:
        delta = mu[2] - mu[1] - complex(a.value.to_float()) * mu[u_index]
        residual = max(residual, abs(delta.imag), dist_to_z_plus_az(delta.real, a))
    return residual


def equivalent_in_Fa(
    w: tuple[complex, ...], w2: tuple[complex, ...], a: ParamSpec, tol: float = DEFAULT_TOL
) -> bool:
    return class_residual(w, w2, a, tol) < tol


@dataclass(frozen=True)
class LeafReport:
    generic_leaf: str  # "torus_T2" | "cylinder_S1xR"
    generic_closure: str  # "torus_T2" | "torus_T3"
    special_leaf_generic_stratum: str  # complex structure where z2*z3 != 0
    special_leaf_degenerate_stratum: str  # where z2 = 0 or z3 = 0
    covering_degree: int | None  # q for a = p/q; None when irrational
    notes: tuple[str, ...] = field(default_factory=tuple)


def classify_leaves(a: ParamSpec) -> LeafReport:
    """Leaf topology and special-leaf complex structures, as a function of
    the rationality of a only."""
    if a.rational:
        q = a.q
        return LeafReport(
            generic_leaf="torus_T2",
            generic_closure="torus_T2",
            special_leaf_generic_stratum=f"C/(Z + {q}iZ)" if q > 1 else "C/(Z + iZ)",
            special_leaf_degenerate_stratum="C/(Z + iZ)",
            covering_degree=q,
            notes=(
                "generic leaf is a q-sheeted cover of the special leaves",
            ),
        )
    return LeafReport(
        generic_leaf="cylinder_S1xR",
        generic_closure="torus_T3",
        special_leaf_generic_stratum="C*",
        special_leaf_degenerate_stratum="compact complex torus",
        covering_degree=None,
        notes=(
            "varying the dual point configuration realizes all two-dimensional compact complex tori",
        ),
    )


@dataclass(frozen=True)
class InvarianceReport:
    samples: int
    flows: int
    max_residual: float
    all_equivalent: bool


def verify_projection_invariance(
    datum: LVMDatum,
    samples: list[tuple[complex, ...]],
    t_values: list[complex],
    tol: float = DEFAULT_TOL,
) -> InvarianceReport:
    """Projecting before or after flowing by either action must land in the
    same leaf-space class."""
    worst = 0.0
    ok = True
    for z in samples:
        base = project(z, tol)
        for t in t_values:
            for act in (act_c_lambda, act_conjugate):
                moved = project(act(t, z, datum.points), tol)
                r = class_residual(base, moved, datum.a, tol)
                worst = max(worst, r)
                ok = ok and r < tol
    return InvarianceReport(len(samples), len(t_values), worst, ok)


def real_flow_phase_distance(a: ParamSpec, t: float) -> float:
    """Distance of the real-flow phase vector (t, a t) from the integer
    lattice; zero return marks a closed leaf."""
    return max(_frac_dist(t), _frac_dist(float(a.value) * t))
