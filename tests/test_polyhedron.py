"""H-rep / V-rep conversions, containment, and random-polytope oracles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitoric import polyhedron
from quasitoric.linalg import cross, dot, vsub
from quasitoric.polyhedron import (
    HalfPlane,
    Ideal,
    InfeasibleRegionError,
    NoOpCutError,
    NotPointedError,
    _canonical_ray,
    _dedup_halfplanes,
    hrep_from_vrep,
    split,
    vrep_from_hrep,
)
from quasitoric.scalar import Q, sqrt

from conftest import (
    halfplane_systems,
    area,
    boundary,
    chamber_halfplanes,
    chambers,
    contains,
    fm_feasible,
    fractions,
    is_flat,
    pairwise_vertices,
    polygon,
    recession_rays,
    region_vertices,
    same_cycle,
    scan_incidence,
    sort_by_angle,
    wrap_in_package,
)


def unit_square():
    return vrep_from_hrep(
        [
            HalfPlane((Q(1), Q(0)), Q(0)),
            HalfPlane((Q(0), Q(1)), Q(0)),
            HalfPlane((Q(-1), Q(0)), Q(-1)),
            HalfPlane((Q(0), Q(-1)), Q(-1)),
        ]
    )


def test_unit_square():
    p = unit_square()
    assert set(p.vertices) == {
        (Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1))
    }
    assert p.bounded and p.simple
    assert area(p) == Q(1)
    assert p.vertices[0] == (Q(0), Q(0))  # CCW starting at lex-min
    assert p.vertices[1] == (Q(1), Q(0))


def test_infeasible_and_unpointed():
    with pytest.raises(InfeasibleRegionError):
        vrep_from_hrep([HalfPlane((Q(1), Q(0)), Q(1)), HalfPlane((Q(-1), Q(0)), Q(0))])
    with pytest.raises(NotPointedError):
        # horizontal slab: no vertex
        vrep_from_hrep([HalfPlane((Q(0), Q(1)), Q(0)), HalfPlane((Q(0), Q(-1)), Q(-1))])


def test_unbounded_quadrant():
    p = vrep_from_hrep([HalfPlane((Q(1), Q(0)), Q(0)), HalfPlane((Q(0), Q(1)), Q(0))])
    assert p.vertices == ((Q(0), Q(0)),)
    assert {tuple(r) for r in p.rays} == {(Q(1), Q(0)), (Q(0), Q(1))}
    assert not p.bounded
    with pytest.raises(ValueError):
        area(p)


def test_irrational_trapezoid():
    a = sqrt(2)
    p = vrep_from_hrep(
        [
            HalfPlane((Q(1), Q(0)), Q(0)),
            HalfPlane((Q(0), Q(1)), Q(0)),
            HalfPlane((Q(0), Q(-1)), Q(-1)),
            HalfPlane((Q(-1), a), Q(-1)),
        ]
    )
    assert set(p.vertices) == {
        (Q(0), Q(0)), (Q(1), Q(0)), (Q(1) + a, Q(1)), (Q(0), Q(1))
    }
    assert area(p) == Q(1) + a / 2


def test_redundant_constraints_dropped():
    p = vrep_from_hrep(
        [
            HalfPlane((Q(1), Q(0)), Q(0)),
            HalfPlane((Q(0), Q(1)), Q(0)),
            HalfPlane((Q(-1), Q(0)), Q(-1)),
            HalfPlane((Q(0), Q(-1)), Q(-1)),
            HalfPlane((Q(1), Q(1)), Q(-5)),  # redundant
            HalfPlane((Q(2), Q(0)), Q(0)),  # duplicate direction, same line
        ]
    )
    assert len(p.hrep) == 4


def test_hrep_vrep_roundtrip():
    pts = [(Q(0), Q(0)), (Q(3), Q(0)), (Q(3), Q(2)), (Q(0), Q(2)), (Q(1), Q(1))]
    p = polygon(pts)  # interior point dropped
    assert len(p.vertices) == 4
    q = vrep_from_hrep(hrep_from_vrep(list(p.vertices)))
    assert q.same_region(p)


def test_same_region_compares_rays():
    """Regions are the same when their vertex sets and canonical ray sets
    are: the quadrant and the wedge y >= x >= 0 share only their vertex."""
    quadrant = vrep_from_hrep([_hp(1, 0, 0), _hp(0, 1, 0)])
    assert quadrant.same_region(vrep_from_hrep([_hp(0, 2, 0), _hp(3, 0, 0)]))
    assert not quadrant.same_region(vrep_from_hrep([_hp(1, 0, 0), _hp(-1, 1, 0)]))


def test_single_point_polyhedron():
    h = hrep_from_vrep([(Q(2), Q(3))])
    p = vrep_from_hrep(h)
    assert p.vertices == ((Q(2), Q(3)),)
    assert p.bounded


def test_split():
    """The diagonal x + y = 1 halves the unit square; x = 2 misses it."""
    p = unit_square()
    kept, other, face = split(p, HalfPlane((Q(-1), Q(-1)), Q(-1)))
    assert area(kept) == area(other) == Q(1, 2)
    assert face.vertices == ((Q(0), Q(1)), (Q(1), Q(0)))
    with pytest.raises(NoOpCutError):
        split(p, HalfPlane((Q(1), Q(0)), Q(2)))


def test_sort_by_angle():
    """The angle sort of ``conftest``, the oracle for ``is_complete``."""
    vs = [(Q(0), Q(-1)), (Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))]
    ordered = sort_by_angle(vs)
    assert ordered[0] == (Q(1), Q(0))
    assert ordered[1] == (Q(1), Q(1))
    assert ordered[2] == (Q(0), Q(1))
    assert ordered[-1] == (Q(0), Q(-1))


def _random_points(draw_x, draw_y):
    return [(Q(x), Q(y)) for x, y in zip(draw_x, draw_y)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(fractions(max_num=8, max_den=4), fractions(max_num=8, max_den=4)),
        min_size=3,
        max_size=7,
    ),
    st.lists(st.tuples(fractions(max_num=10, max_den=4), fractions(max_num=10, max_den=4)),
             min_size=5, max_size=5),
)
def test_random_polytope_containment_oracle(corner_pts, probes):
    """conv(points): the H-rep accepts exactly the points every supporting
    half-plane accepts, and all input points are inside."""
    pts = [(Q(x), Q(y)) for x, y in corner_pts]
    # need full-dimensional hull: skip degenerate inputs
    from quasitoric.linalg import cross, vsub

    if all(
        cross(vsub(pts[j], pts[0]), vsub(pts[k], pts[0])).is_zero()
        for j in range(1, len(pts))
        for k in range(j + 1, len(pts))
    ):
        return
    p = polygon(pts)
    for x in pts:
        assert contains(p, x)
    for x, y in probes:
        probe = (Q(x), Q(y))
        inside_by_hrep = contains(p, probe)
        inside_by_hull = all(h.holds(probe) for h in hrep_from_vrep(pts))
        assert inside_by_hrep == inside_by_hull


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-6, 6)),
        min_size=3,
        max_size=6,
    )
)
def test_feasibility_matches_vertex_enumeration(triples):
    """The library sorts every system as Fourier-Motzkin does: pointed and
    unpointed regions are feasible, empty ones are not."""
    hrep = [
        HalfPlane((Q(a), Q(b)), Q(c)) for a, b, c in triples if (a, b) != (0, 0)
    ]
    if len(hrep) < 3:
        return
    try:
        p = vrep_from_hrep(hrep)
        assert fm_feasible(hrep)
        for v in p.vertices:
            assert contains(p, v)
        if p.bounded:
            assert area(p).sign() >= 0
    except NotPointedError:
        assert fm_feasible(hrep)
    except InfeasibleRegionError:
        assert not fm_feasible(hrep)


def _hp(nx, ny, c):
    return HalfPlane((Q(nx), Q(ny)), Q(c))


@pytest.mark.parametrize(
    "hrep, error",
    [
        ([_hp(1, 0, 0)], NotPointedError),  # one half-plane
        ([_hp(0, 1, 0), _hp(0, -1, -1)], NotPointedError),  # slab 0 <= y <= 1
        ([_hp(0, 1, 1), _hp(0, -1, 0)], InfeasibleRegionError),  # empty slab
        ([_hp(1, 0, 0), _hp(-1, 0, 0)], NotPointedError),  # the line x = 0
        ([_hp(1, 1, 0), _hp(2, 2, -4), _hp(-1, -1, -3)], NotPointedError),
        ([_hp(1, 1, 2), _hp(3, 3, 0), _hp(-2, -2, -4)], NotPointedError),  # line
        ([_hp(1, 1, 2), _hp(3, 3, 0), _hp(-2, -2, -3)], InfeasibleRegionError),
        ([HalfPlane((Q(1), sqrt(2)), Q(0)), HalfPlane((Q(-2), -2 * sqrt(2)), Q(-6))],
         NotPointedError),  # 0 <= x + sqrt(2) y <= 3
        ([HalfPlane((Q(1), sqrt(2)), Q(2)), HalfPlane((Q(-2), -2 * sqrt(2)), Q(-2))],
         InfeasibleRegionError),  # 2 <= x + sqrt(2) y <= 1
        ([_hp(1, 0, 1), _hp(0, 1, 1), _hp(-1, -1, -1)], InfeasibleRegionError),
    ],
)
def test_vertexless_classification(hrep, error):
    """Regions without a vertex: two nonparallel normals mean empty, and
    parallel normals are empty iff their interval along n0 is."""
    with pytest.raises(error):
        vrep_from_hrep(hrep)
    assert fm_feasible(hrep) == (error is NotPointedError)


def _restart_drop_redundant(hrep):
    """Reference: the earlier algorithm, which enumerates the others for
    every constraint and starts the scan over after each drop."""
    kept = list(hrep)
    changed = True
    while changed:
        changed = False
        for idx in range(len(kept)):
            others = kept[:idx] + kept[idx + 1 :]
            if not others:
                continue
            h = kept[idx]
            verts = pairwise_vertices(others)
            if not verts:
                continue
            if all(h.holds(v) for v in verts) and all(
                dot(r, h.normal).sign() >= 0 for r in recession_rays(others)
            ):
                kept.pop(idx)
                changed = True
                break
    return kept


# The unit square with two strictly loose copies: x >= -1, listed first, and
# x + y >= -1, the sum of the normals at (0, 0) shifted off that vertex
LOOSE_SQUARE = [_hp(1, 0, -1), _hp(1, 0, 0), _hp(0, 1, 0), _hp(-1, 0, -1), _hp(0, -1, -1),
                _hp(1, 1, -1)]


def test_drop_enumerates_only_the_touching_constraints(monkeypatch):
    """Each vertex search of ``_drop_redundant`` on ``LOOSE_SQUARE`` gets
    the 3 other facets of the square and neither loose copy, whose lines
    miss it (4, with x + y >= -1, while the others were every constraint
    still kept), and the pass keeps what the restart reference keeps: the
    square's 4 facets."""
    inside, sizes = [], []

    def within(fn):
        def wrapper(*args, **kwargs):
            inside.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def counted(fn):
        def wrapper(hrep):
            if inside:
                sizes.append(len(hrep))
            return fn(hrep)
        return wrapper

    wrap_in_package(monkeypatch, {polyhedron._drop_redundant: within,
                                  polyhedron._candidate_vertices: counted})
    p = vrep_from_hrep(LOOSE_SQUARE)
    assert sizes == [3] * 4
    assert list(p.hrep) == _restart_drop_redundant(_dedup_halfplanes(LOOSE_SQUARE))
    assert list(p.hrep) == LOOSE_SQUARE[1:5]


@settings(max_examples=100, deadline=None)
@given(halfplane_systems())
@example(LOOSE_SQUARE)
# Unbounded regions where the others' vertex holds the last constraint and
# only one of their rays breaks it, so the ray test alone keeps it: y <= 1
# against the quadrant's ray rot90(n) of x >= 0, x <= 1 against its ray
# -rot90(n) of y >= 0, and x - sqrt(2) y >= -1 against the ray (0, 1).
@example([_hp(1, 0, 0), _hp(0, 1, 0), _hp(0, -1, -1)])
@example([_hp(1, 0, 0), _hp(0, 1, 0), _hp(-1, 0, -1)])
@example([_hp(1, 0, 0), _hp(0, 1, 0), HalfPlane((Q(1), -sqrt(2)), Q(-1))])
def test_one_pass_drop_matches_restart_reference(hs):
    """The one-pass scan keeps the same constraints, in the same order, as
    the restart algorithm it replaced."""
    try:
        p = vrep_from_hrep(hs)
    except (InfeasibleRegionError, NotPointedError):
        return
    assert list(p.hrep) == _restart_drop_redundant(_dedup_halfplanes(hs))


@settings(max_examples=100, deadline=None)
@given(halfplane_systems())
@example([_hp(1, 0, 0), _hp(0, 1, 0), _hp(0, -1, -1)])
def test_enumerated_rays_match_dot_products(hs):
    """The rays that ``vrep_from_hrep`` reads off its table of cross signs
    are, canonical and in order, those of the ``conftest`` oracle."""
    try:
        p = vrep_from_hrep(hs)
    except (InfeasibleRegionError, NotPointedError):
        return
    expected = [_canonical_ray(r) for r in recession_rays(_dedup_halfplanes(hs))]
    assert list(p.rays) == list(dict.fromkeys(expected))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    halfplane_systems(),
    chambers().map(lambda case: [h for h, _ in chamber_halfplanes(*case)]),
))
def test_region_vertices_match_enumeration(hs):
    """The vertices alone (the ``conftest`` oracle) are those of the full
    enumeration, each once, and an empty or unpointed region raises the
    same error class."""
    try:
        expected = vrep_from_hrep(hs).vertices
    except (InfeasibleRegionError, NotPointedError) as e:
        with pytest.raises(type(e)):
            region_vertices(hs)
        return
    verts = region_vertices(hs)
    assert len(verts) == len(set(verts)) and set(verts) == set(expected)


@settings(max_examples=100, deadline=None)
@given(halfplane_systems())
# x + y >= 0 first: it touches the square only at (0, 0) and goes, so every
# kept index moves down by one
@example([HalfPlane((Q(1), Q(1)), Q(0)), *unit_square().hrep])
def test_enumerated_incidence_matches_scan(hs):
    """The incidence that ``vrep_from_hrep`` reads off the slack signs of
    its enumeration, remapped to the kept constraints and in vertex order,
    is the scan's."""
    try:
        p = vrep_from_hrep(hs)
    except (InfeasibleRegionError, NotPointedError):
        return
    assert p.incidence == scan_incidence(p)


@settings(max_examples=200, deadline=None)
@given(halfplane_systems())
@example([HalfPlane((Q(1), Q(1)), Q(0)), *unit_square().hrep])  # bounded, a dropped constraint
@example([_hp(0, -1, -1), _hp(1, 0, 0), _hp(0, 1, 0)])  # the strip: one ray
@example([_hp(0, 1, 0), _hp(1, 0, 0)])  # the quadrant: two rays
# two rays, the chain out along x >= 0 and back in along y >= sqrt(2) x
@example([HalfPlane((-sqrt(2), Q(1)), Q(0)), _hp(1, 1, 1), _hp(1, 0, 0)])
def test_walked_cycle_matches_boundary_oracle(hs):
    """The cycle that ``vrep_from_hrep`` walks off its sign table is, as a
    cyclic sequence of entries and labels, the ``boundary`` oracle's, for
    bounded regions and those with one or two rays; a flat region has none,
    and every vertex of one with an interior lies on exactly two kept
    constraints."""
    try:
        p = vrep_from_hrep(hs)
    except (InfeasibleRegionError, NotPointedError):
        return
    if is_flat(p):
        assert p.cycle == () and not p.simple
        return
    assert p.simple
    assert same_cycle(p.cycle, boundary(p))


def _pt(x, y):
    return (Q(x), Q(y))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(fractions(6, 3), fractions(6, 3)), min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=2),
    st.booleans(),
)
@example([(0, 0), (1, 0), (0, 0), (0, 1)], [], False)  # a repeated point
@example([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)], [], False)  # collinear on an edge
@example([(0, 0), (4, 0), (0, 4), (1, 1)], [], False)  # a point inside the hull
@example([(0, 0), (1, 0), (2, 0)], [(0, 1)], False)  # collinear, with a ray
@example([(0, 0), (1, 1)], [(1, 0), (2, 0)], True)  # parallel rays
def test_hrep_from_vrep_returns_facets(raw_points, raw_rays, irrational):
    """Of a set that is not flat, every constraint ``hrep_from_vrep``
    returns holds at every input point and ray, and is tight at two distinct
    input points or at one and parallel to an input ray: a facet, so no
    filter after the dedupe is needed."""
    shift = sqrt(2) if irrational else Q(0)
    pts = [(Q(x) + shift * Q(y), Q(y)) for x, y in raw_points]
    rays = [(Q(x), Q(y)) for x, y in raw_rays if (x, y) != (0, 0)]
    dirs = [vsub(v, pts[0]) for v in pts[1:]] + rays
    if all(cross(d, e).is_zero() for d in dirs for e in dirs):
        return
    hs = hrep_from_vrep(pts, rays)
    assert len(hs) == len(_dedup_halfplanes(hs))
    for h in hs:
        assert all(h.holds(v) for v in pts) and all(dot(r, h.normal).sign() >= 0 for r in rays)
        on = set(v for v in pts if h.tight(v))
        assert len(on) >= 2 or (on and any(dot(r, h.normal).is_zero() for r in rays))


def test_strip_canonicalises_each_ray_once(monkeypatch):
    """Enumerating the strip [0, inf) x [0, 1] makes its ray (1, 0)
    canonical once under each of the two constraints it runs along, and the
    walk reads its unbounded ends off those: 2 ``_canonical_ray`` calls (4
    while the walk made its ends canonical again)."""
    calls, canonical = [], polyhedron._canonical_ray

    def counted(r):
        calls.append(r)
        return canonical(r)

    monkeypatch.setattr(polyhedron, "_canonical_ray", counted)
    p = vrep_from_hrep([_hp(1, 0, 0), _hp(0, 1, 0), _hp(0, -1, -1)])
    assert len(calls) == 2
    assert p.rays == ((Q(1), Q(0)),)
    assert [e for e, _ in p.cycle] == [_pt(0, 1), _pt(0, 0), Ideal((Q(1), Q(0)))]
