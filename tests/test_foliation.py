"""The leaf space of F_a, checked exactly on the report: leaf tables, the
open set U(T*), the projection of both actions into the class group, and
the rational/irrational return-time dichotomy."""

from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings

from quasitoric.foliation import classify_leaves
from quasitoric.pipeline import build_report
from quasitoric.quasilattice import GroupDesc, hirzebruch_quasilattice, z2
from quasitoric.scalar import ParamSpec, Q, parse_scalar

from conftest import denominator, is_integer, params

FAMILY = ("2", "3/2", "sqrt(2)", "1+sqrt(2)")
IRRATIONAL = ("sqrt(2)", "1+sqrt(2)", "1/2+1/2*sqrt(5)")


def report(text: str):
    return build_report(ParamSpec(parse_scalar(text)))


def leaf_gamma(a):
    """Gamma_a = Q_a / Z^2, as ``classify-leaves`` takes it."""
    return hirzebruch_quasilattice(a).quotient(z2())


def projects_into_class_group(points, av) -> bool:
    """t.z_j = exp(2 pi i Lambda_j t) z_j, read in w_j = z_j / z_5, multiplies
    w by (e^{2 pi i u}, e^{2 pi i v}, e^{2 pi i (v + a u)}, e^{2 pi i u}) with
    u = Lambda_1 t, v = Lambda_2 t for every t in C exactly when
    Lambda_5 = 0, Lambda_4 = Lambda_1 and Lambda_3 = Lambda_2 + a Lambda_1."""
    l1, l2, l3, l4, l5 = points
    return (
        l5 == (Q(0), Q(0))
        and l4 == l1
        and l3 == (l2[0] + av * l1[0], l2[1] + av * l1[1])
    )


def test_projection_invariance_report():
    """Both the action of Lambda and of its conjugate project into the class
    group: the identities are R-linear and a is real."""
    for text in FAMILY:
        doc = report(text)
        lam = doc.gale.gale_points.points
        conjugate = tuple((x, -y) for x, y in lam)
        assert projects_into_class_group(lam, doc.a.value), text
        assert projects_into_class_group(conjugate, doc.a.value), text


def test_project_requires_z5():
    """w_j = z_j / z_5 is defined on U(T*): z_5 is the ghost coordinate and
    every chamber element contains it."""
    for text in FAMILY:
        doc = report(text)
        assert doc.gale.vector_config.ghost_indices == frozenset({5})
        assert all(5 in sigma for sigma in doc.gale.chamber.subsets)


def test_U_zero_patterns_are_fan_faces():
    """The coordinates that vanish at a point of U(T*) avoid some chamber
    element; those zero patterns are exactly the faces of the triangulation
    read off the normal fan, i.e. the sets of facets of P_a that meet."""
    for text in FAMILY:
        doc = report(text)
        chamber = doc.gale.chamber.subsets
        faces = doc.gale.triangulation.subsets
        for k in range(6):
            for zeros in map(frozenset, combinations(range(1, 6), k)):
                in_u = any(not zeros & sigma for sigma in chamber)
                assert in_u == (zeros in faces), (text, zeros)


def test_equivalence_by_group_element():
    """Leaf-space points are equivalent when they differ by the class group,
    whose weight rows are Re and Im of Lambda_1..4 - Lambda_5. On the same
    facet order it is the cutting group N of the quasifold presentation."""
    for text in FAMILY:
        doc = report(text)
        assert [h.normal for h in doc.polytope.hrep] == list(
            doc.gale.vector_config.vectors[:4]
        )
        lam = doc.gale.gale_points.points
        re = tuple(x - lam[4][0] for x, _ in lam[:4])
        im = tuple(y - lam[4][1] for _, y in lam[:4])
        assert {re, im} == set(doc.presentation.relation_rows), text


def test_classify_leaves_rational():
    """A finite Gamma_a gives the torus tables with covering degree its
    order, 1 for the trivial group."""
    r = classify_leaves(GroupDesc("trivial"))
    assert r.generic_leaf == "torus_T2"
    assert r.generic_closure == "torus_T2"
    assert r.covering_degree == 1
    assert r.special_leaf_generic_stratum == "C/(Z + iZ)"

    r = classify_leaves(GroupDesc("finite_cyclic", order=3, rotation_coefficient=Q(5, 3)))
    assert r.covering_degree == 3
    assert r.special_leaf_generic_stratum == "C/(Z + 3iZ)"
    assert r.special_leaf_degenerate_stratum == "C/(Z + iZ)"
    assert classify_leaves(leaf_gamma(ParamSpec(parse_scalar("5/3")))) == r


def test_classify_leaves_irrational():
    """A dense Gamma_a gives the cylinder tables and no covering degree."""
    r = classify_leaves(leaf_gamma(ParamSpec(parse_scalar("sqrt(2)"))))
    assert r.generic_leaf == "cylinder_S1xR"
    assert r.generic_closure == "torus_T3"
    assert r.special_leaf_generic_stratum == "C*"
    assert r.special_leaf_degenerate_stratum == "compact complex torus"
    assert r.covering_degree is None


def test_return_time_dichotomy():
    """The real flow at integer time t moves the phases by (t, a t). For
    a = p/q it closes up exactly when q | t, q the covering degree of the
    leaf table; for irrational a it never does."""
    for q in range(1, 13):
        for p in range(1, q + 1):
            if gcd(p, q) != 1:
                continue
            a = ParamSpec(Q(Fraction(p, q)))
            assert classify_leaves(leaf_gamma(a)).covering_degree == q
            for t in range(1, 3 * q + 1):
                assert is_integer(t * a.value) == (t % q == 0), (p, q, t)
    for text in IRRATIONAL:
        a = ParamSpec(parse_scalar(text))
        assert classify_leaves(leaf_gamma(a)).covering_degree is None
        assert not any(is_integer(t * a.value) for t in range(1, 201)), text


@settings(max_examples=30, deadline=None)
@given(params())
def test_report_leaf_side_agrees_with_gamma(a):
    """The report's leaf tables read its Gamma_a: the covering degree is a's
    denominator, read off a's parts, and None for an irrational a, exactly
    when the generic leaf closes up to T^3."""
    leaves = build_report(a).leaf_report
    q = denominator(a)
    assert leaves.covering_degree == q
    assert (leaves.generic_closure == "torus_T3") == (q is None)
