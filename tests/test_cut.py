"""Symplectic cuts and corner chops: piece complementarity, quotient groups,
moment-map decomposition, the three-way polytope agreement, and the cut's
pieces and reduced face and the corner chop against a vertex enumeration."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quasitoric.cut import (
    AmountTooLargeError,
    NoOpCutError,
    blowup_corner,
    cut_polyhedron,
)
from quasitoric.jsonio import group_to_json, polyhedron_to_json
from quasitoric.linalg import dot, is_zero_vec, rot90, smul, vadd, vsub
from quasitoric.pipeline import (
    build_report,
    strip_cut,
    trapezoid,
    triangle,
    triangle_blowup,
)
from quasitoric.polyhedron import (
    HalfPlane,
    InfeasibleRegionError,
    NotPointedError,
    hrep_from_vrep,
    vrep_from_hrep,
)
from quasitoric.quasilattice import z2
from quasitoric.scalar import ParamSpec, Q, QuadScalar, parse_scalar, sqrt

from conftest import (
    area,
    boundary,
    contains,
    denominator,
    hand_built,
    is_flat,
    is_integer,
    polygon,
    same_cycle,
    scan_incidence,
)

PARAM_TEXTS = ("1", "2", "3", "3/2", "5/3", "sqrt(2)", "1+sqrt(2)")


def open_side(result, mu) -> bool:
    """mu in the kept piece and off the cut line."""
    return contains(result.kept_piece, mu) and result.cut_halfplane.slack(mu).sign() > 0


def phi(u_sq, z, av):
    """-|u|^2 + a(z+1)/2: the moment map of the cutting circle on C x S^2."""
    return -u_sq + av * (z + 1) / 2


def strip_point(u_sq, z):
    """The toric moment image (|u|^2, (z+1)/2) in the strip."""
    return (u_sq, (z + 1) / 2)


def unit_square():
    return polygon([(Q(0), Q(0)), (Q(2), Q(0)), (Q(2), Q(2)), (Q(0), Q(2))])


def test_cut_square_pieces():
    p = unit_square()
    result = cut_polyhedron(p, z2(), (Q(1), Q(0)), Q(1))
    kept, other = result.kept_piece, result.other_piece
    assert area(kept) + area(other) == area(p)
    assert area(kept) == Q(2)
    # the reduced face is the cut segment
    face = result.reduced_face
    assert set(face.vertices) == {(Q(1), Q(0)), (Q(1), Q(2))}
    assert result.gamma.kind == "trivial"
    assert open_side(result, (Q(3, 2), Q(1)))
    assert not open_side(result, (Q(1), Q(1)))  # on the cut line
    assert not open_side(result, (Q(1, 2), Q(1)))


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
        if is_integer(a.value):
            assert result.gamma.kind == "trivial"
        elif denominator(a):
            assert result.gamma.kind == "finite_cyclic" and result.gamma.order == denominator(a)
        else:
            assert result.gamma.kind == "dense_cyclic"


parameters = st.one_of(
    st.integers(1, 50).map(Q),
    st.builds(Fraction, st.integers(1, 5000), st.integers(1, 1000)).map(Q),
    st.builds(
        lambda r, s, d: Q(r) + Q(s) * sqrt(d),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)),
        st.sampled_from([2, 3, 5, 6, 7, 10]),
    ),
).filter(lambda x: x.sign() > 0)


@settings(max_examples=40, deadline=None)
@given(parameters)
def test_report_has_one_gamma(av):
    """The strip cut's (Z^2 + Z (-1, a)) / Z^2 is Gamma_a = Q_a / Z^2,
    rotation included.  The report writes it once, and the presentation,
    which keeps no copy, names the quasitorus and divisors by it: Z_q puts
    order-q divisors on the two horizontal facets."""
    doc = build_report(ParamSpec(av))
    gamma = doc.cut.gamma
    assert gamma == doc.quasilattice.quotient(z2())
    assert gamma.rotation_coefficient == (None if is_integer(av) else av)
    assert doc.to_json()["gamma"] == group_to_json(gamma)
    quasitorus = {"trivial": "S^1 x S^1", "finite_cyclic": f"S^1 x (S^1/Z_{gamma.order})",
                  "dense_cyclic": "S^1 x (S^1/Gamma_a)"}[gamma.kind]
    horizontal = [i for i, h in enumerate(doc.polytope.hrep, start=1) if h.normal[0].is_zero()]
    divisors = tuple((i, gamma.order) for i in horizontal) if gamma.kind == "finite_cyclic" else ()
    assert (doc.presentation.quasitorus, doc.presentation.divisor_orders) == (quasitorus, divisors)


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
    with pytest.raises(AmountTooLargeError):
        blowup_corner(t, (Q(5), Q(5)), (Q(0), Q(1)), Q(1))  # not a vertex
    with pytest.raises(ValueError):
        blowup_corner(t, v, (Q(0), Q(1)), Q(-1))
    assert blowup_corner(t, v, (Q(0), Q(1)), Q(0)).same_region(t)
    with pytest.raises(AmountTooLargeError):
        blowup_corner(t, v, (Q(0), Q(1)), Q(10))


def test_moment_maps_exact_values():
    """The circle with weights (-1, a) on (u, v) cuts at level -1 along the
    report's half-plane <mu, (-1, a)> >= -1. phi is a at the north pole over
    u = 0, and -1 at the two ends of the reduced face: the south pole over
    |u|^2 = 1 and the north pole over |u|^2 = a + 1."""
    for text in ("2", "3/2", "sqrt(2)"):
        doc = build_report(ParamSpec(parse_scalar(text)))
        av = doc.a.value
        h = doc.cut.cut_halfplane
        assert h.normal == (Q(-1), av) and h.offset == Q(-1)
        assert phi(Q(0), Q(1), av) == dot(strip_point(Q(0), Q(1)), h.normal) == av
        ends = [(Q(1), Q(-1)), (av + 1, Q(1))]
        assert [phi(u_sq, z, av) for u_sq, z in ends] == [h.offset, h.offset]
        assert set(doc.cut.reduced_face.vertices) == {strip_point(*e) for e in ends}


def test_cut_decomposition_exact():
    """On a grid of (|u|^2, z) samples, phi = <mu, (-1, a)> and the trichotomy
    phi > -1 / = -1 / < -1 maps onto kept piece minus cut line / reduced
    face / other piece minus cut line of the report's cut."""
    for text in ("2", "3/2", "sqrt(2)"):
        doc = build_report(ParamSpec(parse_scalar(text)))
        cut, av = doc.cut, doc.a.value
        counts = {-1: 0, 0: 0, 1: 0}
        for i in range(0, 13):
            for j in range(-4, 5):
                u_sq, z = Q(Fraction(i, 2)), Q(Fraction(j, 4))
                mu = strip_point(u_sq, z)
                value = phi(u_sq, z, av)
                assert value == dot(mu, cut.cut_halfplane.normal)
                s = (value - cut.cut_halfplane.offset).sign()
                counts[s] += 1
                if s > 0:
                    assert open_side(cut, mu)
                elif s == 0:
                    assert contains(cut.reduced_face, mu)
                else:
                    assert contains(cut.other_piece, mu) and not contains(cut.kept_piece, mu)
        assert all(counts.values()), (text, counts)


def scalars(irrational):
    """Integers in [-3, 3], plus -sqrt(2), 0 or sqrt(2) if irrational."""
    ints = st.integers(-3, 3)
    if not irrational:
        return ints.map(Q)
    return st.builds(lambda r, s: Q(r) + s * sqrt(2) if s else Q(r), ints, st.integers(-1, 1))


def vectors(irrational):
    """Nonzero vectors of ``scalars``; (1, 0) stands in for the zero vector."""
    return st.tuples(scalars(irrational), scalars(irrational)).map(
        lambda v: v if not is_zero_vec(v) else (Q(1), Q(0)))


@st.composite
def regions(draw):
    """A pointed region P over Q or Q(sqrt(2)), bounded, unbounded, or flat (a
    segment or ray given by half-planes, or collinear points), from its
    facets plus up to three redundant constraints (a facet moved outwards,
    or a supporting line at a vertex), shuffled in or put first; with whether
    P is flat and irrational."""
    irrational = draw(st.booleans())

    def vector():
        return draw(vectors(irrational))

    shape = draw(st.sampled_from(["bounded", "unbounded", "unbounded", "flat"]))
    if shape == "flat":
        # the line through o along d, from o to o + k d or on to infinity
        o, d = vector(), vector()
        line = HalfPlane(rot90(d), dot(o, rot90(d)))
        hrep = [line, line.flipped()]
        ends = [(o, 1)]
        if draw(st.booleans()):
            ends.append((vadd(o, smul(Q(draw(st.integers(1, 3))), d)), -1))
        for end, side in ends:
            for _ in range(draw(st.integers(1, 2))):
                n = vadd(smul(Q(side * draw(st.integers(1, 2))), d),
                         smul(Q(draw(st.integers(-2, 2))), line.normal))
                hrep.append(HalfPlane(n, dot(end, n)))
    else:
        points = [vector() for _ in range(draw(st.integers(3 if shape == "bounded" else 1, 4)))]
        rays = []
        if shape == "unbounded":
            # directions in the open upper half-plane, or +x: a pointed cone
            for _ in range(draw(st.sampled_from([1, 2, 2]))):
                r = vector()
                rays.append((r[0], abs(r[1])) if r[1] else (abs(r[0]), r[1]))
        hrep = hrep_from_vrep(points, rays)
    try:
        p0 = vrep_from_hrep(hrep)
    except (InfeasibleRegionError, NotPointedError):
        assume(False)
    # facets along an unbounded edge, whose moved copies can change the
    # order of P's rays, most of all when they come first
    ray_facets = [g for g in p0.hrep if any(dot(r, g.normal).is_zero() for r in p0.rays)]
    extra = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["moved", "moved ray facet", "support"]))
        if kind == "support":
            u = draw(st.sampled_from(p0.vertices))
            n = reduce(vadd, [g.normal for g in p0.hrep if g.tight(u)][:2])
            if not is_zero_vec(n):
                extra.append(HalfPlane(n, dot(u, n)))
        else:
            g = draw(st.sampled_from(ray_facets if kind != "moved" and ray_facets else p0.hrep))
            extra.append(HalfPlane(g.normal, g.offset - draw(st.integers(1, 2))))
    if draw(st.booleans()):
        hrep = draw(st.permutations(hrep + extra))
    else:
        hrep = extra + draw(st.permutations(hrep))
    p = vrep_from_hrep(hrep)
    # drawn points can be collinear, and then read as a segment or ray
    return p, is_flat(p), irrational


@st.composite
def cuts(draw):
    """A region P from ``regions``, a cut (nu, c) at a random level, through
    a vertex of P (and maybe a second one), or parallel to a ray of P so
    that the face is a ray, and whether P is flat."""
    p, flat, irrational = draw(regions())
    # a vertex v, and w another vertex or a point inside P (unless P is flat)
    center = smul(Q(1, len(p.vertices)), reduce(vadd, p.vertices))
    center = reduce(vadd, p.rays, center)
    v, w = draw(st.sampled_from(p.vertices)), draw(st.sampled_from(p.vertices + (center,)))
    kinds = ["level"] if flat else ["level", "vertex"] + ["ray"] * bool(p.rays)
    kind = draw(st.sampled_from(kinds))
    if kind == "ray":
        nu = rot90(draw(st.sampled_from(p.rays)))
        return p, nu, dot(v, nu) + Q(draw(st.integers(-2, 2)), 2), False
    nu = rot90(vsub(w, v)) if v != w and draw(st.booleans()) else draw(vectors(irrational))
    if kind == "vertex":
        return p, nu, dot(v, nu), False
    level = (dot(v, nu) + dot(w, nu)) / 2 + Q(draw(st.integers(-2, 2)), 4)
    return p, nu, level, flat


@st.composite
def chops(draw):
    """A region P from ``regions``, a vertex v of P, a chop normal nu (the
    sum of the normals of two constraints tight at v, or a random vector)
    and a positive amount; with whether P is flat."""
    p, flat, irrational = draw(regions())
    v = draw(st.sampled_from(p.vertices))
    nu = reduce(vadd, [g.normal for g in p.hrep if g.tight(v)][:2])
    if is_zero_vec(nu) or draw(st.booleans()):
        nu = draw(vectors(irrational))
    return p, v, nu, Q(draw(st.integers(1, 12)), 4), flat


def _halfplanes(*rows):
    return [HalfPlane((Q(a), Q(b)), Q(c)) for a, b, c in rows]


# x, y >= 0 and x + y >= 1 after a moved copy of y >= 0, which puts the ray
# (1, 0) first in P's rays but second in the chop's; the strip chopped so
# that its unbounded end goes; a segment
_WEDGE = vrep_from_hrep(_halfplanes((0, 1, -1), (1, 0, 0), (0, 1, 0), (1, 1, 1)))
_STRIP = vrep_from_hrep(_halfplanes((1, 0, 0), (0, 1, 0), (0, -1, -1)))
_SEGMENT = vrep_from_hrep(_halfplanes((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, -1)))
_ORIGIN = (Q(0), Q(0))
# x >= 0, y <= 1 and x + y >= 0: its boundary runs (0, 1), (0, 0), then out
# along (1, -1) and back in along (1, 0), against its stored order (0, 0), (0, 1)
_TURNED = vrep_from_hrep(_halfplanes((1, 0, 0), (0, -1, -1), (1, 1, 0)))
# the quadrant x, y >= 0
_QUADRANT = vrep_from_hrep(_halfplanes((1, 0, 0), (0, 1, 0)))
# x >= 0 and y >= sqrt(2) x: one vertex, two rays, over Q(sqrt(2))
_SQRT2_WEDGE = vrep_from_hrep([HalfPlane((Q(1), Q(0)), Q(0)), HalfPlane((-sqrt(2), Q(1)), Q(0))])


def _has_interior(hrep) -> bool:
    try:
        return not is_flat(vrep_from_hrep(hrep))
    except InfeasibleRegionError:
        return False


@settings(max_examples=150, deadline=None)
@given(cuts())
@example((unit_square(), (Q(1), Q(-2)), Q(0), False))  # through (0, 0), across the edge x = 2
@example((unit_square(), (Q(1), Q(-3)), Q(0), False))  # the same, a third of the way up
@example((_STRIP, (Q(0), Q(1)), Q(1, 2), False))  # parallel to the ray: a ray face
@example((_SQRT2_WEDGE, (Q(0), Q(1)), Q(1), False))  # across both unbounded edges
@example((_WEDGE, (Q(1), Q(1)), Q(2), False))  # P's rays in another order than the pieces'
@example((_QUADRANT, (Q(-1), Q(1)), Q(1, 2), False))  # across the arc at infinity
@example((_QUADRANT, (Q(2), Q(-1)), Q(1, 2), False))  # the same, its levels 2 and -1
@example((_STRIP, (Q(1), Q(-4)), Q(1), False))  # across both unbounded edges
@example((_TURNED, (Q(1), Q(0)), Q(1), False))  # across both unbounded edges
# the other piece's rays: ccw (1, 0), (0, 1) on its cycle, (0, 1) first by x >= 0
@example((_QUADRANT, (Q(-1), Q(-1)), Q(-1), False))
def test_cut_matches_enumeration(case):
    """The kept piece, the other piece and the reduced face from the walk
    equal, byte for byte in their JSON form, the vertex enumeration of P's
    constraints plus the cut line, its flip, and both.  The cut raises
    NoOpCutError iff the line misses the interior, where a piece has none;
    a flat P has no interior to cut at all."""
    p, nu, c, flat = case
    keep = HalfPlane(nu, c)
    if flat:
        with pytest.raises(NoOpCutError):
            cut_polyhedron(p, z2(), nu, c)
        return
    enumerated = [list(p.hrep) + k for k in ([keep], [keep.flipped()], [keep, keep.flipped()])]
    if not (_has_interior(enumerated[0]) and _has_interior(enumerated[1])):
        with pytest.raises(NoOpCutError):
            cut_polyhedron(p, z2(), nu, c)
        return
    result = cut_polyhedron(p, z2(), nu, c)
    pieces = (result.kept_piece, result.other_piece, result.reduced_face)
    for piece, hrep in zip(pieces, enumerated):
        assert polyhedron_to_json(piece) == polyhedron_to_json(vrep_from_hrep(hrep))


@settings(max_examples=150, deadline=None)
@given(chops())
@example((_WEDGE, (Q(1), Q(0)), (Q(1), Q(2)), Q(1, 2), False))
@example((_STRIP, _ORIGIN, (Q(-1), Q(1)), Q(1, 2), False))
@example((_SEGMENT, _ORIGIN, (Q(1), Q(1)), Q(1, 2), True))
# rays ccw on the cycle, (1, 0), (0, 1) and (1, sqrt(2)), (0, 1), but (0, 1)
# first by x >= 0
@example((_QUADRANT, _ORIGIN, (Q(1), Q(1)), Q(1, 2), False))
@example((_SQRT2_WEDGE, _ORIGIN, (Q(0), Q(1)), Q(1), False))
def test_chop_matches_enumeration(case):
    """A corner chop (P keeps every other vertex and its rays, and gains two
    vertices) equals, byte for byte in its JSON form, the vertex enumeration
    of P's constraints plus the chop's.  Any other chop raises
    AmountTooLargeError, and a chop of a flat P NoOpCutError."""
    p, v, nu, amount, flat = case
    if flat:
        with pytest.raises(NoOpCutError):
            blowup_corner(p, v, nu, amount)
        return
    try:
        oracle = vrep_from_hrep(list(p.hrep) + [HalfPlane(nu, dot(v, nu) + amount)])
    except InfeasibleRegionError:
        oracle = None
    if (oracle is None or len(oracle.vertices) != len(p.vertices) + 1
            or not set(p.vertices) - {v} <= set(oracle.vertices)
            or set(oracle.rays) != set(p.rays)):
        with pytest.raises(AmountTooLargeError):
            blowup_corner(p, v, nu, amount)
        return
    assert polyhedron_to_json(blowup_corner(p, v, nu, amount)) == polyhedron_to_json(oracle)


@settings(max_examples=100, deadline=None)
@given(cuts())
@example((unit_square(), (Q(1), Q(-3)), Q(0), False))  # through the vertex (0, 0), at level 0
@example((_STRIP, (Q(1), Q(-4)), Q(1), False))  # point-to-ideal crossings
@example((_STRIP, (Q(0), Q(1)), Q(1, 2), False))  # a ray face from a crossing, tight to x >= 0
def test_cut_incidence_matches_scan(case):
    """The incidence that both pieces and the face of a cut derive from the
    clip is the scan's, and the cycle that each piece keeps from it, in
    the piece's labels, is the ``boundary`` oracle's; the flat face keeps
    none."""
    p, nu, c, _ = case
    try:
        result = cut_polyhedron(p, z2(), nu, c)
    except NoOpCutError:
        return
    for piece in (result.kept_piece, result.other_piece, result.reduced_face):
        assert piece.incidence == scan_incidence(piece)
    for piece in (result.kept_piece, result.other_piece):
        assert same_cycle(piece.cycle, boundary(piece))
    assert result.reduced_face.cycle == ()


@settings(max_examples=100, deadline=None)
@given(chops())
@example((_WEDGE, (Q(1), Q(0)), (Q(1), Q(2)), Q(1, 2), False))  # a crossing on an unbounded edge
@example((_SQRT2_WEDGE, _ORIGIN, (Q(0), Q(1)), Q(1), False))
def test_chop_incidence_matches_scan(case):
    """The incidence that a corner chop derives from its clip is the scan's,
    and the cycle it keeps from it the ``boundary`` oracle's."""
    p, v, nu, amount, _ = case
    try:
        chopped = blowup_corner(p, v, nu, amount)
    except (AmountTooLargeError, NoOpCutError):
        return
    assert chopped.incidence == scan_incidence(chopped)
    assert same_cycle(chopped.cycle, boundary(chopped))


def _parabola_gon(n):
    """The n-gon with vertices (i, i^2) for i < n, built with its edge
    constraints and its incidence directly, so that no enumeration runs."""
    vs = [(Q(i), Q(i * i)) for i in range(n)]
    normals = [rot90(vsub(vs[(i + 1) % n], vs[i])) for i in range(n)]
    return hand_built((HalfPlane(m, dot(v, m)) for v, m in zip(vs, normals)), vs)


def _chain_region(n):
    """The region above the chain (i, i^2), i < n, with 0 <= x <= n - 1: the
    chain's edge constraints, then the two bounds.  Built directly in
    ``vrep_from_hrep``'s form, so that no enumeration runs: at n = 32 one
    takes seconds."""
    hrep = [HalfPlane((Q(-2 * i - 1), Q(1)), Q(-i * (i + 1))) for i in range(n - 1)]
    hrep += [HalfPlane((Q(1), Q(0)), Q(0)), HalfPlane((Q(-1), Q(0)), Q(1 - n))]
    return hand_built(hrep, ((Q(i), Q(i * i)) for i in range(n)), ((Q(0), Q(1)),))


def test_cut_and_chop_work_is_bounded(monkeypatch):
    """QuadScalar multiplications, not wall time, with P's incidence and
    cycle built before counting: per doubling of n from 8 to 32, a cut of
    the n-gon (two O(n) labelled clips) and a corner chop (one), of the
    n-gon or of the unbounded region above its chain, whose rays are read
    off the clipped cycle, each grow at most 2.5x.  An O(n^3) enumeration
    grows about 10x, and O(n^2) recession rays or slack scans about 4x.
    The cut of the 8-gon reads P's levels once, each crossing once for both
    pieces, and its pieces' incidence off the clip's labels: at most 26
    multiplications (24; 28 while a flatness test took cross products, 34
    while each piece's clip computed its own crossings, 186 for the edge
    walk that ``split`` replaced, 56 while the pieces sorted their vertices
    by angle).  The chop of the unbounded 8-chain reads P's stored cycle:
    at most 48 (74 while each chop rebuilt it with dot products)."""
    chain = _chain_region(8)
    enumerated = vrep_from_hrep(list(chain.hrep))
    assert (chain.hrep, chain.vertices, chain.rays) == (
        enumerated.hrep, enumerated.vertices, enumerated.rays)
    calls, mul = [], QuadScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QuadScalar, "__mul__", counted)
    cut_muls, chop_muls, unbounded_muls = [], [], []
    for n in (8, 16, 32):
        p, q, chain = _parabola_gon(n), z2(), _chain_region(n)
        calls.clear()
        result = cut_polyhedron(p, q, (Q(1), Q(0)), Q(2 * n - 1, 4))
        cut_muls.append(len(calls))
        calls.clear()
        chopped = blowup_corner(p, p.vertices[0], (Q(1), Q(0)), Q(1, 2))
        chop_muls.append(len(calls))
        calls.clear()
        unbounded = blowup_corner(chain, _ORIGIN, (Q(1), Q(1)), Q(1, 2))
        unbounded_muls.append(len(calls))
        assert len(result.reduced_face.vertices) == 2 and len(chopped.vertices) == n + 1
        assert len(unbounded.vertices) == n + 1 and unbounded.rays == chain.rays
    assert cut_muls[0] <= 26, cut_muls
    assert unbounded_muls[0] <= 48, unbounded_muls
    for muls in (cut_muls, chop_muls, unbounded_muls):
        assert all(b <= 2.5 * a for a, b in zip(muls, muls[1:])), muls
