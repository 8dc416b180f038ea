"""Symplectic cuts and corner chops: piece complementarity, quotient groups,
moment-map decomposition, and the three-way polytope agreement."""

from fractions import Fraction

import pytest

from quasitoric.cut import (
    AmountTooLargeError,
    NoOpCutError,
    blowup_corner,
    cut_decomposition_check,
    cut_moment_maps,
    cut_polyhedron,
    open_side_contains,
)
from quasitoric.pipeline import (
    build_report,
    strip_cut,
    trapezoid,
    triangle,
    triangle_blowup,
)
from quasitoric.polyhedron import polygon
from quasitoric.quasilattice import z2
from quasitoric.scalar import ParamSpec, Q, parse_scalar, sqrt

PARAM_TEXTS = ("1", "2", "3", "3/2", "5/3", "sqrt(2)", "1+sqrt(2)")


def unit_square():
    return polygon([(Q(0), Q(0)), (Q(2), Q(0)), (Q(2), Q(2)), (Q(0), Q(2))])


def test_cut_square_pieces():
    p = unit_square()
    result = cut_polyhedron(p, z2(), (Q(1), Q(0)), Q(1))
    kept, other = result.kept_piece, result.other_piece
    assert kept.area() + other.area() == p.area()
    assert kept.area() == Q(2)
    # the reduced face is the cut segment
    face = result.reduced_face
    assert set(face.vertices) == {(Q(1), Q(0)), (Q(1), Q(2))}
    assert result.gamma.kind == "trivial"
    assert open_side_contains(result, (Q(3, 2), Q(1)))
    assert not open_side_contains(result, (Q(1), Q(1)))  # on the cut line
    assert not open_side_contains(result, (Q(1, 2), Q(1)))


def test_cut_misses_interior():
    p = unit_square()
    with pytest.raises(NoOpCutError):
        cut_polyhedron(p, z2(), (Q(1), Q(0)), Q(2))  # tangent to a facet
    with pytest.raises(NoOpCutError):
        cut_polyhedron(p, z2(), (Q(1), Q(0)), Q(5))


def test_cut_quotient_groups():
    p = unit_square()
    # integral normal: no augmentation needed
    assert cut_polyhedron(p, z2(), (Q(1), Q(0)), Q(1)).gamma.kind == "trivial"
    # fractional normal: finite cyclic quotient
    r = cut_polyhedron(p, z2(), (Q(1, 3), Q(0)), Q(1, 2))
    assert r.gamma.kind == "finite_cyclic" and r.gamma.order == 3
    # irrational normal: dense quotient
    r = cut_polyhedron(p, z2(), (Q(-1), sqrt(2)), Q(1))
    assert r.gamma.kind == "dense_cyclic"
    assert r.gamma.rotation_coefficient == sqrt(2)


def test_strip_cut_matches_trapezoid():
    for text in PARAM_TEXTS:
        a = ParamSpec(parse_scalar(text))
        result = strip_cut(a, z2())
        assert result.kept_piece.same_region(trapezoid(a))
        # gamma mirrors the classification of a
        if a.is_integer:
            assert result.gamma.kind == "trivial"
        elif a.rational:
            assert result.gamma.kind == "finite_cyclic" and result.gamma.order == a.q
        else:
            assert result.gamma.kind == "dense_cyclic"


def test_blowup_matches_trapezoid():
    for text in PARAM_TEXTS:
        a = ParamSpec(parse_scalar(text))
        assert triangle_blowup(a).same_region(trapezoid(a))


def test_three_constructions_agree():
    for text in PARAM_TEXTS:
        a = ParamSpec(parse_scalar(text))
        doc = build_report(a)  # raises PipelineInconsistency on mismatch
        assert doc.cut.kept_piece.same_region(doc.polytope)
        assert doc.blowup_polytope.same_region(doc.polytope)


def test_blowup_validation():
    a = ParamSpec(Q(2))
    t = triangle(a)
    v = (Q(0), Q(-1, 2))
    assert v in t.vertices
    with pytest.raises(ValueError):
        blowup_corner(t, (Q(5), Q(5)), (Q(0), Q(1)), Q(1))  # not a vertex
    with pytest.raises(ValueError):
        blowup_corner(t, v, (Q(0), Q(1)), Q(-1))
    assert blowup_corner(t, v, (Q(0), Q(1)), Q(0)).same_region(t)
    with pytest.raises(AmountTooLargeError):
        blowup_corner(t, v, (Q(0), Q(1)), Q(10))


def test_moment_maps_exact_values():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    maps = cut_moment_maps(a)
    assert maps.circle_weights == (Q(-1), a.value, Q(-1))
    assert maps.cut_level == Q(-1)
    # phi(u, [v:z]) = -|u|^2 + a(z+1)/2 at the north pole z = 1, u = 0
    assert maps.phi_sq(Q(0), Q(1)) == a.value
    # at the south pole with |u|^2 = 1: phi = -1, exactly the cut level
    assert maps.phi_sq(Q(1), Q(-1)) == Q(-1)
    assert maps.nu_minus_sq(Q(0), Q(1), a.value) == Q(0)
    assert maps.strip_point(Q(3), Q(0)) == (Q(3), Q(1, 2))


def test_cut_decomposition_exact():
    """On a grid of (|u|^2, z) samples the trichotomy phi > -1 / = -1 / < -1
    maps onto kept piece minus cut line / cut line / other piece."""
    for text in ("2", "3/2", "sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        result = strip_cut(a, z2())
        samples = []
        for i in range(0, 13):
            for j in range(-4, 5):
                u_sq = Q(Fraction(i, 2))
                z = Q(Fraction(j, 4))
                samples.append((u_sq, z))
        report = cut_decomposition_check(result, a, samples)
        assert report.consistent
        assert report.total == len(samples)
        assert report.open_region > 0 and report.other_side > 0
