"""Leaf tables of the holomorphic foliation whose leaf space is F_a.

The leaf topology and the complex structures of the special leaves depend
on Gamma_a = Q_a / Z^2 only (a report passes its strip cut's): its order is
the covering degree q for a = p/q, and it is dense for an irrational a.  The
projection of both actions into the leaf space class group, and the
return-time dichotomy, are identities of the exact Gale points Lambda and
of a; the tests check them on the report."""

from __future__ import annotations

from dataclasses import dataclass, field

from .quasilattice import GroupDesc


@dataclass(frozen=True)
class LeafReport:
    generic_leaf: str  # "torus_T2" | "cylinder_S1xR"
    generic_closure: str  # "torus_T2" | "torus_T3"
    special_leaf_generic_stratum: str  # complex structure where z2*z3 != 0
    special_leaf_degenerate_stratum: str  # where z2 = 0 or z3 = 0
    covering_degree: int | None  # q for a = p/q; None when irrational
    notes: tuple[str, ...] = field(default_factory=tuple)


def classify_leaves(gamma: GroupDesc) -> LeafReport:
    """Leaf topology and special-leaf complex structures from Gamma_a: q is
    its order (1 when trivial); a dense Gamma_a gives the irrational tables."""
    if gamma.kind != "dense_cyclic":
        q = gamma.order or 1
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
