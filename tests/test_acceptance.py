"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as they
execute; each criterion is an independent test.
"""

import random
from fractions import Fraction
from math import gcd

from quasitoric.delzant import moment_map_coeffs
from quasitoric.fan import is_complete, is_rational, is_smooth, normal_fan
from quasitoric.foliation import classify_leaves
from quasitoric.gale import (
    PointConfig,
    VectorConfig,
    VirtualChamber,
    augment_ghosts,
    gale_points,
    is_balanced,
    is_polytopal,
    relation_basis,
)
from quasitoric.linalg import smul, vadd
from quasitoric.pipeline import (
    MOMENT_CONSTANT_NOTE,
    build_report,
    five_constraint_triple,
    trapezoid,
)
from quasitoric.polyhedron import hrep_from_vrep
from quasitoric.quasilattice import hirzebruch_quasilattice, z2
from quasitoric.scalar import ParamSpec, Q, parse_scalar

from conftest import contains, hirzebruch_vector_config, is_integer, kernel_rows_for, polygon
from test_foliation import leaf_gamma, projects_into_class_group

FAMILY = ("1", "2", "3", "3/2", "5/3", "sqrt(2)", "1+sqrt(2)")


def _report(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _chamber():
    return VirtualChamber(
        frozenset(frozenset(s) for s in ({3, 4, 5}, {1, 3, 5}, {1, 2, 5}, {2, 4, 5}))
    )


def test_01_relation_matrix_regression():
    ok = True
    for text in FAMILY:
        a = ParamSpec(parse_scalar(text))
        rows = relation_basis(hirzebruch_vector_config(a))
        ok = ok and rows == [
            [Q(1)] * 5,
            [Q(0), Q(1), Q(1), Q(0), Q(0)],
            [Q(1), Q(0), a.value, Q(1), Q(0)],
        ]
        lam = gale_points(rows)
        ok = ok and lam.points == (
            (Q(0), Q(1)), (Q(1), Q(0)), (Q(1), a.value), (Q(0), Q(1)), (Q(0), Q(0))
        )
    _report(1, "relation matrix and Gale dual regression", ok)


def test_02_virtual_chamber():
    doc = build_report(ParamSpec(parse_scalar("sqrt(2)")))
    ok = doc.gale.chamber.subsets == _chamber().subsets
    _report(2, "virtual chamber of the standard triangulation", ok)


def test_03_polytopality_with_perturbed_failure():
    ok = True
    for text in FAMILY:
        a = ParamSpec(parse_scalar(text))
        lam = gale_points(relation_basis(hirzebruch_vector_config(a)))
        polytopal, witness = is_polytopal(lam, _chamber())
        ok = ok and polytopal and witness is not None
    # Lambda_4 reflected below the real axis: the {2,4,5} triangle loses all
    # open overlap with the others
    perturbed = PointConfig(
        ((Q(0), Q(1)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(-1)), (Q(0), Q(0)))
    )
    bad, bad_witness = is_polytopal(perturbed, _chamber())
    ok = ok and not bad and bad_witness is None
    _report(3, "polytopality across the family, perturbation fails", ok)


def test_04_trapezoid_vertices():
    ok = True
    for text in FAMILY:
        a = ParamSpec(parse_scalar(text))
        p = trapezoid(a)
        ok = ok and set(p.vertices) == {
            (Q(0), Q(0)),
            (Q(1), Q(0)),
            (a.value + 1, Q(1)),
            (Q(0), Q(1)),
        }
        ok = ok and p.bounded and p.simple
    _report(4, "trapezoid vertex set", ok)


def test_05_smoothness_table():
    ok = True
    for n in range(1, 11):
        fan = normal_fan(trapezoid(ParamSpec(Q(n))))
        ok = ok and is_complete(fan) and is_rational(fan, z2()) and is_smooth(fan, z2())
    # nonintegral rational: rational but not smooth in Z^2
    fan = normal_fan(trapezoid(ParamSpec(parse_scalar("3/2"))))
    ok = ok and is_rational(fan, z2()) and not is_smooth(fan, z2())
    # irrational: not even rational in Z^2
    fan = normal_fan(trapezoid(ParamSpec(parse_scalar("sqrt(2)"))))
    ok = ok and not is_rational(fan, z2())
    _report(5, "integer-parameter smoothness table n = 1..10", ok)


def test_06_moment_map_regression_and_warning():
    ok = True
    for text in ("2", "3/2", "sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        triple = five_constraint_triple(trapezoid(a), hirzebruch_quasilattice(a))
        halfplanes = triple.halfplanes()
        comps = moment_map_coeffs(halfplanes, kernel_rows_for([h.normal for h in halfplanes]))
        av = a.value
        ok = ok and [c.constant for c in comps] == [2 * (av + 1), Q(1), av + 1]
        ok = ok and comps[2].coefficients == (Q(1), Q(0), av, Q(1), Q(0))
    doc = build_report(ParamSpec(parse_scalar("sqrt(2)")))
    ok = ok and MOMENT_CONSTANT_NOTE in doc.warnings
    _report(6, "moment map level equations with constant warning", ok)


def test_07_three_constructions_agree():
    ok = True
    for text in FAMILY:
        doc = build_report(ParamSpec(parse_scalar(text)))
        ok = ok and doc.cut.kept_piece.same_region(doc.polytope)
        ok = ok and doc.blowup_polytope.same_region(doc.polytope)
    _report(7, "cut, blow-up, and direct polytope agree across the family", ok)


def test_08_gamma_classification():
    ok = True
    cases = {
        "1": ("trivial", None),
        "2": ("trivial", None),
        "3": ("trivial", None),
        "3/2": ("finite_cyclic", 2),
        "5/3": ("finite_cyclic", 3),
        "sqrt(2)": ("dense_cyclic", None),
        "1+sqrt(2)": ("dense_cyclic", None),
    }
    for text, (kind, order) in cases.items():
        g = hirzebruch_quasilattice(ParamSpec(parse_scalar(text))).quotient(z2())
        ok = ok and g.kind == kind and g.order == order
    _report(8, "Gamma_a classification trivial / Z_q / dense", ok)


def test_09_leaf_tables():
    ok = True
    r = classify_leaves(leaf_gamma(ParamSpec(Q(4))))
    ok = ok and (r.generic_leaf, r.generic_closure, r.covering_degree) == (
        "torus_T2", "torus_T2", 1
    )
    r = classify_leaves(leaf_gamma(ParamSpec(parse_scalar("3/2"))))
    ok = ok and r.covering_degree == 2 and r.special_leaf_generic_stratum == "C/(Z + 2iZ)"
    r = classify_leaves(leaf_gamma(ParamSpec(parse_scalar("sqrt(2)"))))
    ok = ok and (r.generic_leaf, r.generic_closure) == ("cylinder_S1xR", "torus_T3")
    ok = ok and r.special_leaf_generic_stratum == "C*"
    ok = ok and r.special_leaf_degenerate_stratum == "compact complex torus"
    _report(9, "leaf classification tables", ok)


def test_10_projection_invariance():
    """Both actions, by Lambda and by its conjugate, project into the class
    group of the leaf space for every t in C (exact identities of Lambda)."""
    ok = True
    for text in FAMILY:
        doc = build_report(ParamSpec(parse_scalar(text)))
        lam = doc.gale.gale_points.points
        conjugate = tuple((x, -y) for x, y in lam)
        ok = ok and projects_into_class_group(lam, doc.a.value)
        ok = ok and projects_into_class_group(conjugate, doc.a.value)
    _report(10, "projection invariance (exact Lambda identities)", ok)


def test_11_return_time_dichotomy():
    """a = p/q: the real flow closes up at integer time t iff q | t;
    irrational a: at no integer time."""
    ok = True
    for q in range(1, 13):
        for p in range(1, 2 * q):
            if gcd(p, q) != 1:
                continue
            av = Q(Fraction(p, q))
            ok = ok and all(
                is_integer(t * av) == (t % q == 0) for t in range(1, 2 * q + 1)
            )
    for text in ("sqrt(2)", "1+sqrt(2)"):
        av = parse_scalar(text)
        ok = ok and not any(is_integer(t * av) for t in range(1, 201))
    _report(11, "return-time dichotomy", ok)


def test_12_oracle_equivalences():
    ok = True
    rng = random.Random(31415926)

    # (a) 200 quasilattice membership cases against the closed form
    a = ParamSpec(parse_scalar("sqrt(2)"))
    qa = hirzebruch_quasilattice(a)
    for _ in range(200):
        m1 = rng.randint(-25, 25)
        m2 = rng.randint(-25, 25)
        m3 = rng.randint(-25, 25)
        v = vadd(
            vadd(smul(m1, qa.generators[0]), smul(m2, qa.generators[1])),
            smul(m3, qa.generators[2]),
        )
        expect = True
        if rng.random() < 0.5:
            v = vadd(v, (Q(Fraction(1, rng.randint(2, 9))), Q(0)))
            expect = False
        ok = ok and qa.member(v) == expect

    # (b) 50 random polytopes: H-rep containment matches the convex hull
    for _ in range(50):
        pts = [
            (Q(rng.randint(-6, 6)), Q(rng.randint(-6, 6))) for _ in range(rng.randint(3, 7))
        ]
        from quasitoric.linalg import cross, vsub

        if all(
            cross(vsub(pts[j], pts[0]), vsub(pts[k], pts[0])).is_zero()
            for j in range(1, len(pts))
            for k in range(j + 1, len(pts))
        ):
            continue
        p = polygon(pts)
        hull = hrep_from_vrep(pts)
        for _ in range(6):
            probe = (
                Q(Fraction(rng.randint(-14, 14), 2)),
                Q(Fraction(rng.randint(-14, 14), 2)),
            )
            ok = ok and contains(p, probe) == all(h.holds(probe) for h in hull)

    # (c) 100 balanced configurations: exact annihilation by the relation rows
    for _ in range(100):
        raw = [
            (Q(Fraction(rng.randint(-8, 8), rng.randint(1, 3))),
             Q(Fraction(rng.randint(-8, 8), rng.randint(1, 3))))
            for _ in range(rng.randint(3, 6))
        ]
        vc = augment_ghosts(VectorConfig(tuple(raw)))
        ok = ok and is_balanced(vc)
        for row in relation_basis(vc):
            sx, sy = Q(0), Q(0)
            for b, v in zip(row, vc.vectors):
                sx, sy = sx + b * v[0], sy + b * v[1]
            ok = ok and sx.is_zero() and sy.is_zero()

    _report(12, "membership / polytope / relation oracles", ok)
