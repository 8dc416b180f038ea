"""Gale duality: relation bases, ghost augmentation, chambers and
polytopality."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitoric import delzant, fan, gale, linalg, pipeline, polyhedron
from quasitoric.gale import (
    NotBalancedError,
    PointConfig,
    Triangulation,
    VectorConfig,
    VirtualChamber,
    augment_ghosts,
    chamber_from_triangulation,
    gale_points,
    is_balanced,
    is_odd,
    is_polytopal,
    relation_basis,
)
from quasitoric.fan import normal_fan
from quasitoric.pipeline import (
    build_report,
    gale_side,
    trapezoid,
    triangulation_from_fan,
)
from quasitoric.linalg import rref
from quasitoric.polyhedron import InfeasibleRegionError, vrep_from_hrep
from quasitoric.quasilattice import Quasilattice, z2
from quasitoric.scalar import ParamSpec, Q, QuadScalar, parse_scalar, sqrt

from conftest import (
    HIRZEBRUCH_CHAMBER,
    SQUAREFREE_DS,
    chamber_halfplanes,
    chambers,
    echelonize,
    facet_relation_rows,
    fractions,
    hirzebruch_vector_config,
    kernel_rows,
    kernel_rows_for,
    line_key,
    matrix_rank,
    params,
    quad_scalars,
    rational_scalars,
    triangle_constraints,
    wrap_in_package,
)


HIRZEBRUCH_PARAMS = ("2", "3/2", "sqrt(2)")  # integer, rational, irrational


def fan_triangulation(text):
    """The triangulation read off the normal fan of P_a."""
    return triangulation_from_fan(normal_fan(trapezoid(ParamSpec(parse_scalar(text)))))


def hirzebruch_chamber():
    return VirtualChamber(frozenset(frozenset(s) for s in HIRZEBRUCH_CHAMBER))


def test_augment_ghosts_hirzebruch():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    vc = hirzebruch_vector_config(a)
    assert len(vc) == 5
    assert vc.ghost_indices == frozenset({5})
    assert vc.vectors[4] == (Q(0), -sqrt(2))
    assert is_balanced(vc) and is_odd(vc)


def test_augment_ghosts_already_balanced():
    vc = VectorConfig(((Q(1), Q(0)), (Q(-1), Q(0)), (Q(0), Q(1)), (Q(0), Q(-1))))
    out = augment_ghosts(vc)
    # balanced but even: a single zero ghost fixes the parity
    assert len(out) == 5
    assert out.vectors[4] == (Q(0), Q(0))
    assert is_balanced(out) and is_odd(out)


def test_relation_basis_regression():
    """The relation matrix of V_a in its canonical form."""
    for text in ("2", "3/2", "sqrt(2)", "1+sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        rows = relation_basis(hirzebruch_vector_config(a))
        assert rows == [
            [Q(1), Q(1), Q(1), Q(1), Q(1)],
            [Q(0), Q(1), Q(1), Q(0), Q(0)],
            [Q(1), Q(0), a.value, Q(1), Q(0)],
        ]


def test_relation_basis_needs_balance():
    with pytest.raises(NotBalancedError):
        relation_basis(VectorConfig(((Q(1), Q(0)), (Q(0), Q(1)))))


def test_gale_dual_regression():
    """Lambda_a = (i, 1, 1 + i a, i, 0)."""
    a = ParamSpec(parse_scalar("sqrt(2)"))
    lam = gale_side(normal_fan(trapezoid(a))).gale_points
    assert lam.points == (
        (Q(0), Q(1)),
        (Q(1), Q(0)),
        (Q(1), a.value),
        (Q(0), Q(1)),
        (Q(0), Q(0)),
    )


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    params(),
    rational_scalars().filter(lambda x: x.sign() > 0).map(ParamSpec),
    st.sampled_from(SQUAREFREE_DS).flatmap(quad_scalars)
    .filter(lambda x: x.sign() > 0).map(ParamSpec),
))
def test_report_side_facts_match_their_oracles(a):
    """V_a read off the normal fan of P_a is the typed-out V_a, and V_a's
    relation rows below the all-ones row and without the ghost column are
    those reduced from P_a's four normals: the rows whose phase map the
    presentation writes."""
    doc = build_report(a)
    assert doc.gale.vector_config == hirzebruch_vector_config(a)
    rows = tuple(map(tuple, kernel_rows_for([h.normal for h in doc.polytope.hrep])))
    assert facet_relation_rows(doc) == rows
    assert doc.presentation.group_phase_map == delzant.render_phase_map(rows)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(fractions(max_num=6, max_den=3), fractions(max_num=6, max_den=3)),
        min_size=3,
        max_size=6,
    )
)
def test_relation_basis_annihilates_random_configs(raw):
    """For any planar configuration, after ghost augmentation the relation
    rows exactly annihilate the vectors, and the row count is d - rank."""
    vecs = tuple((Q(x), Q(y)) for x, y in raw)
    try:
        vc = augment_ghosts(VectorConfig(vecs))
    except ValueError:
        return
    rows = relation_basis(vc)
    d = len(vc)
    assert len(rows) == d - vc.span_dim()
    for row in rows:
        sx, sy = Q(0), Q(0)
        for b, v in zip(row, vc.vectors):
            sx, sy = sx + b * v[0], sy + b * v[1]
        assert sx.is_zero() and sy.is_zero()
    # the rows are independent: the echelon leading columns are distinct
    assert matrix_rank([list(r) for r in rows]) == len(rows)


@st.composite
def vector_configs(draw):
    """Planar configurations of 2 to 6 vectors over Q or Q(sqrt(d)): all
    zero, collinear (multiples of one vector, zero ones among them), or
    drawn freely."""
    d = draw(st.sampled_from([None, 2, 5]))
    scalars = rational_scalars(6, 3) if d is None else quad_scalars(d, 6, 3)
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["zero", "collinear", "free"]))
    if kind == "zero":
        return [(Q(0), Q(0))] * n
    if kind == "collinear":
        u = (draw(scalars), draw(scalars))
        return [(t * u[0], t * u[1]) for t in draw(st.lists(scalars, min_size=n, max_size=n))]
    return [(draw(scalars), draw(scalars)) for _ in range(n)]


@settings(max_examples=200, deadline=None)
@given(vector_configs())
def test_span_dim_matches_rank(vectors):
    """The rank read off cross products is the rank by row reduction."""
    vc = VectorConfig(tuple(vectors))
    assert vc.span_dim() == matrix_rank([list(v) for v in vc.vectors])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fractions(3, 2), fractions(3, 2)), min_size=3, max_size=7))
def test_relation_rows_keep_input_order(raw):
    """``_input_order`` of ``rref`` gives the kernel rows, and the rows a
    relation basis is built from, as the reduction one row at a time in
    input order (``conftest.echelonize``) did."""
    rows = kernel_rows([(Q(x), Q(y)) for x, y in raw])
    for sub in (rows, rows[:-1]):
        if sub:
            assert gale._input_order(rref(sub)) == echelonize(sub)


def test_input_order_undoes_rref_swap():
    """Of the two kernel rows behind V_a's relation basis, the second has
    the first pivot column, so ``rref`` swaps them; ``_input_order`` puts
    them back, which gives Lambda_a = (i, 1, 1+ia, i, 0)."""
    a = ParamSpec(parse_scalar("1+sqrt(2)"))
    rows = kernel_rows(hirzebruch_vector_config(a).vectors)[:-1]
    reduced = rref(rows)
    assert reduced[2] == [1, 0]
    assert gale._input_order(reduced) == reduced[0][::-1] == echelonize(rows)


def test_chamber_from_triangulation():
    for text in HIRZEBRUCH_PARAMS:
        chamber = chamber_from_triangulation(fan_triangulation(text), 5)
        assert chamber.subsets == hirzebruch_chamber().subsets


def test_polytopal_family():
    for text in ("1", "2", "3/2", "sqrt(2)", "1+sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        lam = gale_points(relation_basis(hirzebruch_vector_config(a)))
        ok, witness = is_polytopal(lam, hirzebruch_chamber())
        assert ok and witness is not None
        # the witness is interior to every chamber triangle
        for sigma in hirzebruch_chamber().subsets:
            pts = [lam.points[i - 1] for i in sorted(sigma)]
            for h, strict in triangle_constraints(pts):
                assert h.slack(witness).sign() > 0 if strict else h.tight(witness)


def test_polytopal_perturbed_failure():
    """Reflecting Lambda_4 below the axis pulls the {2,4,5} triangle off the
    others: no common relative-interior point remains."""
    lam = PointConfig(
        (
            (Q(0), Q(1)),
            (Q(1), Q(0)),
            (Q(1), Q(1)),
            (Q(0), Q(-1)),
            (Q(0), Q(0)),
        )
    )
    ok, witness = is_polytopal(lam, hirzebruch_chamber())
    assert not ok and witness is None


def test_polytopal_degenerate_triangle():
    """A collinear triple forces the witness onto a line; here the line
    misses the open triangles, so the test fails."""
    lam = PointConfig(
        (
            (Q(0), Q(1)),
            (Q(1), Q(0)),
            (Q(1), Q(1)),
            (Q(-10), Q(0)),  # {2,4,5} degenerates to a segment on the axis
            (Q(0), Q(0)),
        )
    )
    ok, witness = is_polytopal(lam, hirzebruch_chamber())
    assert not ok and witness is None


def _polytopal_from_vrep(lam, chamber):
    """Oracle: the polytopality test on the whole V-rep of the closed region,
    as ``is_polytopal`` computed it before it read only the vertices."""
    constraints = chamber_halfplanes(lam, chamber)
    try:
        region = vrep_from_hrep([h for h, _ in constraints])
    except InfeasibleRegionError:
        return False, None
    vs = region.vertices
    for h, strict in constraints:
        if strict and all(h.slack(v).is_zero() for v in vs):
            return False, None
    n = len(vs)
    return True, (sum((v[0] for v in vs), Q(0)) / n, sum((v[1] for v in vs), Q(0)) / n)


# three closed triangles that meet pairwise but have no common point
_EMPTY_CHAMBER = (
    PointConfig(((Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(2)), (Q(1), Q(1)))),
    VirtualChamber(frozenset({frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({1, 2, 5})})),
)


def _lam(*pts):
    return PointConfig(tuple((Q(x), Q(y)) for x, y in pts))


def _chamber(*subsets):
    return VirtualChamber(frozenset(frozenset(s) for s in subsets))


# The clip starts from the hull of the chamber's first triangle in iteration
# order, {1, 2, 3} in each of the first three cases.
# {1, 2, 3} is the segment [(0, 0), (4, 0)]; triangle {2, 4, 5} crosses it
# at (1, 0) and keeps (4, 0)
_SEGMENT_FIRST = (_lam((0, 0), (4, 0), (2, 0), (1, 2), (1, -2)), _chamber({1, 2, 3}, {2, 4, 5}))
# {1, 2, 3} is the point (1, 1), inside the segment {1, 4, 5}: every line
# constraint of the segment is tight there
_POINT_FIRST = (_lam((1, 1), (1, 1), (1, 1), (0, 0), (2, 2)), _chamber({1, 2, 3}, {1, 4, 5}))
# two segments crossing at their midpoint (0, 0): the first collapses to it
# at the second's line, and the remaining constraints keep it
_COLLAPSE_TO_POINT = (
    _lam((0, 0), (-1, 0), (1, 0), (-1, -1), (1, 1)),
    _chamber({1, 2, 3}, {1, 4, 5}),
)
# three triangles; only the last of the six clipping half-planes empties it
_EMPTIED_LAST = (
    _lam((1, 2), (-2, 2), (1, 0), (-1, -1), (-2, 1)),
    _chamber({1, 2, 4}, {1, 2, 3}, {3, 4, 5}),
)


def _hirzebruch_case(text):
    a = ParamSpec(parse_scalar(text))
    return gale_points(relation_basis(hirzebruch_vector_config(a))), hirzebruch_chamber()


@settings(max_examples=150, deadline=None)
@given(chambers())
@example(_EMPTY_CHAMBER)
@example(_SEGMENT_FIRST)
@example(_POINT_FIRST)
@example(_COLLAPSE_TO_POINT)
@example(_EMPTIED_LAST)
@example(_hirzebruch_case("sqrt(2)"))  # a crossing at (-1 + sqrt(2), 2 - sqrt(2))
def test_polytopal_matches_vrep_oracle(case):
    """The verdict and witness from the clipped region's vertices equal
    those from the full V-rep of the region, on perturbed and degenerate
    chambers."""
    lam, chamber = case
    assert is_polytopal(lam, chamber) == _polytopal_from_vrep(lam, chamber)


# {1, 2, 5} repeats {1, 2, 3}, and {1, 2, 4} shares its first two points
# but lies on the other side of their line: no common interior point
_SHARED_EDGE = (_lam((0, 0), (1, 0), (0, 1), (0, -1), (0, 1)),
                _chamber({1, 2, 3}, {1, 2, 4}, {1, 2, 5}))


@st.composite
def repeated_point_chambers(draw):
    """Five Gale points taking at most four distinct values, so that chamber
    triples name the same triangle, as {3,4,5} and {1,3,5} do for Lambda_a,
    or share some of its points, with two to six triples."""
    pool = draw(st.lists(st.tuples(fractions(4, 2), fractions(4, 2)), min_size=2, max_size=4))
    pts = [draw(st.sampled_from(pool)) for _ in range(5)]
    triples = [set(c) for c in itertools.combinations(range(1, 6), 3)]
    subsets = draw(st.lists(st.sampled_from(triples), min_size=2, max_size=6))
    return _lam(*pts), _chamber(*subsets)


@settings(max_examples=150, deadline=None)
@given(repeated_point_chambers())
@example(_SHARED_EDGE)
@example(_hirzebruch_case("1+sqrt(2)"))
def test_polytopal_with_repeated_points_matches_vrep_oracle(case):
    """Chambers whose triples name the same triangle, or share some of its
    points, get the verdict and witness of the V-rep of all the chamber's
    triangles."""
    lam, chamber = case
    assert is_polytopal(lam, chamber) == _polytopal_from_vrep(lam, chamber)


@st.composite
def flat_triples(draw):
    """Three points on one line p + t*e, over Q or Q(sqrt(2)), some of them
    or all three coinciding (e = 0 makes a single point)."""
    scalars = draw(st.sampled_from([rational_scalars(6, 4), quad_scalars(2, 6, 4)]))
    p = (draw(scalars), draw(scalars))
    e = draw(st.sampled_from([(Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(-1)), (Q(2), Q(3)),
                              (draw(scalars), draw(scalars))]))
    ts = draw(st.lists(st.sampled_from([Q(0), Q(1), Q(-2), Q(1, 3)]) | scalars,
                       min_size=3, max_size=3))
    return [(p[0] + t * e[0], p[1] + t * e[1]) for t in ts]


@settings(max_examples=200, deadline=None)
@given(flat_triples())
@example([(Q(1), Q(1))] * 3)
@example([(Q(0), Q(0)), (Q(4), Q(0)), (Q(2), Q(0))])
@example([(Q(0), Q(0)), (Q(0), Q(0)), (Q(1), sqrt(2))])
def test_flat_triangle_matches_case_oracle(pts):
    """A collinear or coincident triple's constraints, from
    ``hrep_from_vrep``, are the case oracle's, as sets of lines up to
    positive scale with their strictness: a segment's line both ways, weak,
    and its end caps, strict; a point's four weak constraints."""
    got = {line_key(h, strict) for h, strict in gale._triangle_halfplanes(pts)}
    assert got == {line_key(h, strict) for h, strict in triangle_constraints(pts)}


def test_triangulation_validation():
    with pytest.raises(ValueError):
        Triangulation(frozenset({frozenset({1, 2, 3})}))
    # the normal fan of P_a pairs its facets as in the paper
    for text in HIRZEBRUCH_PARAMS:
        assert fan_triangulation(text).maximal() == {
            frozenset({1, 2}), frozenset({2, 4}), frozenset({3, 4}), frozenset({1, 3})
        }


def test_report_enumeration_counts(monkeypatch):
    """After a warm-up report, ``build_report`` enumerates an H-rep twice
    (the trapezoid and the triangle; the strip is built once per process)
    and ``is_polytopal`` enumerates nothing.  The vertex searches take, in
    order, the trapezoid's 4 constraints and the other 3 for each of its 4
    touching ones (every constraint of P_a, T_a and the strip touches its
    region, so leaving out the lines that miss it saves a report nothing),
    then the triangle's 3 and the other 2 for each of its 3.  The functions
    are wrapped from outside, under every name a package module binds them
    to, as the benchmark's tracer wraps them."""
    calls, inside, sizes = [], [], []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, bool(inside)))
            if fn.__name__ == "_candidate_vertices":
                sizes.append(len(args[0]))
            return fn(*args, **kwargs)
        return wrapper

    def polytopal(fn):
        def wrapper(*args, **kwargs):
            inside.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    wrap_in_package(monkeypatch, {
        polyhedron.vrep_from_hrep: counted,
        polyhedron._candidate_vertices: counted,
        gale.is_polytopal: polytopal,
    })
    build_report(ParamSpec(parse_scalar("3/2")))
    calls.clear()
    sizes.clear()
    build_report(ParamSpec(parse_scalar("1+sqrt(2)")))
    assert [c for c in calls if c[0] == "vrep_from_hrep"] == [("vrep_from_hrep", False)] * 2
    assert not [c for c in calls if c[1]]
    assert sizes == [4, 3, 3, 3, 3, 3, 2, 2, 2]


def test_report_facts_are_computed_once(monkeypatch):
    """After a warm-up, one serialised report takes recession rays once in
    each of its two enumerations and never in ``_drop_redundant``, which
    reads its ray test off the enumeration's table of cross signs (6 more
    calls before), builds constraints only for the chamber triangles that
    clip the first one's hull, and runs one tight test per vertex and
    constraint of each polyhedron it prints, plus three of the blow-up's
    checks: 65 in all.  Rescanning for ``simple``, ``normal_fan`` and
    ``split`` made 115, taking the strip cut's pieces' rays from
    ``_recession_rays`` 2 more calls, and building the first triangle's
    constraints too 4 in all."""
    stack, rays, triangles, tight = [], [], [], []

    def within(name):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                stack.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            return wrapper
        return wrap

    def logged(log):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                log.append(tuple(stack))
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    wrap_in_package(monkeypatch, {
        polyhedron.vrep_from_hrep: within("vrep_from_hrep"),
        polyhedron._drop_redundant: within("_drop_redundant"),
        polyhedron._recession_rays: logged(rays),
        gale._triangle_halfplanes: logged(triangles),
    })
    monkeypatch.setattr(polyhedron.HalfPlane, "tight", logged(tight)(polyhedron.HalfPlane.tight))
    build_report(ParamSpec(parse_scalar("3/2"))).to_json()
    for log in (rays, triangles, tight):
        log.clear()
    doc = build_report(ParamSpec(parse_scalar("1+sqrt(2)")))
    doc.to_json()
    assert rays == [("vrep_from_hrep",)] * 2
    assert len(triangles) == len(doc.gale.chamber.subsets) - 1 == 3
    assert len(tight) <= 65


def test_report_takes_incidence_from_construction(monkeypatch):
    """After a warm-up, a serialised report for 1+sqrt(2) takes every
    polyhedron's incidence from its construction, and the blow-up's
    parallel-edge check reads the vertex's constraints off it, so it makes
    no tight test (65 when serialisation rescanned, 3 while the check
    tested every constraint), and at most 606 QuadScalar products (608
    while the report built Q_a again beside the strip cut, and before
    that while ``_drop_redundant`` also enumerated the constraints whose line
    misses the region, which a report has none of, under a bound of 610;
    1120 when serialisation rescanned, 998 while ``_drop_redundant`` took
    its others' rays by dot products, 794 while the pieces sorted their
    vertices by angle, 748 before the Gale, fan and lattice stages below
    stopped re-deriving facts, 680 while each polyhedron sorted its
    vertices by angle and the presentation reduced P_a's normals again, 628
    while ``is_complete`` sorted the fan's rays by angle, in 12 where its
    cone walk takes 16, 632 while the presentation took its own moment map
    of P_a's four facets)."""
    tight, products = [], []

    def logged(log, fn):
        def wrapper(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polyhedron.HalfPlane, "tight", logged(tight, polyhedron.HalfPlane.tight))
    monkeypatch.setattr(QuadScalar, "__mul__", logged(products, QuadScalar.__mul__))
    build_report(ParamSpec(parse_scalar("3/2"))).to_json()
    tight.clear()
    products.clear()
    build_report(ParamSpec(parse_scalar("1+sqrt(2)"))).to_json()
    assert len(tight) == 0
    assert len(products) <= 606


def test_report_takes_one_moment_map(monkeypatch):
    """After a warm-up, a serialised report for 1+sqrt(2) takes the moment
    map once, of the five-constraint triple, and the presentation reuses
    its components below the all-ones one (2 while the presentation took
    its own of P_a's four facets)."""
    moments = []

    def logged(fn):
        def wrapper(*args, **kwargs):
            moments.append(1)
            return fn(*args, **kwargs)
        return wrapper

    wrap_in_package(monkeypatch, {delzant.moment_map_coeffs: logged})
    build_report(ParamSpec(parse_scalar("3/2"))).to_json()
    moments.clear()
    build_report(ParamSpec(parse_scalar("1+sqrt(2)"))).to_json()
    assert len(moments) == 1


def test_report_side_stages_compute_each_fact_once(monkeypatch):
    """After a warm-up, a serialised report for 1+sqrt(2) makes at most 64
    QuadScalar inversions (62; 82 when ``is_smooth`` solved each ray over
    the field, V_a's rank took an ``rref`` and each piece of the strip cut
    computed its own crossings, 70 while each polyhedron sorted its
    vertices about their centroid and the presentation reduced P_a's
    normals again) and 2 ``rref`` calls for the one relation basis, of
    V_a, whose rows the presentation reuses: the kernel, then its rows in
    input order (4 while the presentation reduced its own).  It takes one
    ``Quasilattice.quotient``, the strip cut's Gamma_a, which the
    presentation reuses (2 while it took Q_a / Z^2 itself).  V_a's rank is
    read off cross products.  These are gone from the package, their
    oracles in conftest: ``matrix_rank``, ``Quasilattice.lattice_basis``,
    ``hirzebruch_vector_config`` (V_a comes from the fan), ``kernel_rows_for``,
    ``_boundary`` and ``_order_ccw`` (a polyhedron stores its cycle), and
    ``sort_by_angle`` with its ``_angle_cmp`` and ``_angle_class``
    (``is_complete`` walks the cones).  Z^2 is one instance per process, so
    its HNF is computed once."""
    inversions, reductions, quotients = [], [], []

    def logged(log):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                log.append(1)
                return fn(*args, **kwargs)
            return wrapper
        return wrap

    wrap_in_package(monkeypatch, {linalg.rref: logged(reductions)})
    monkeypatch.setattr(QuadScalar, "inv", logged(inversions)(QuadScalar.inv))
    monkeypatch.setattr(Quasilattice, "quotient", logged(quotients)(Quasilattice.quotient))
    build_report(ParamSpec(parse_scalar("3/2"))).to_json()
    for log in (inversions, reductions, quotients):
        log.clear()
    build_report(ParamSpec(parse_scalar("1+sqrt(2)"))).to_json()
    assert len(inversions) <= 64
    assert len(reductions) == 2
    assert len(quotients) == 1
    assert z2() is z2()
    assert not hasattr(linalg, "matrix_rank") and not hasattr(Quasilattice, "lattice_basis")
    assert not hasattr(pipeline, "hirzebruch_vector_config") and not hasattr(gale, "kernel_rows_for")
    assert not hasattr(polyhedron, "_boundary") and not hasattr(polyhedron, "_order_ccw")
    assert not [name for name in ("sort_by_angle", "_angle_cmp", "_angle_class")
                if hasattr(polyhedron, name) or hasattr(fan, name)]
