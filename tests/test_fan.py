"""Normal fans and the complete / rational / smooth predicates."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitoric.fan import (
    Fan2,
    NonSimpleError,
    NotALatticeError,
    is_complete,
    is_rational,
    is_smooth,
    normal_fan,
)
from quasitoric.pipeline import trapezoid, trapezoid_halfplanes, strip
from quasitoric.polyhedron import (
    HalfPlane,
    InfeasibleRegionError,
    NotPointedError,
    vrep_from_hrep,
)
from quasitoric.quasilattice import hirzebruch_quasilattice, z2
from quasitoric.linalg import cross, dot, is_zero_vec
from quasitoric.scalar import ParamSpec, Q, parse_scalar, sqrt

from conftest import (
    complete_by_sorting,
    fractions,
    halfplane_systems,
    hand_built,
    polygon,
    smooth_by_solving,
    sort_by_angle,
)


def test_fan_validation():
    with pytest.raises(ValueError):
        Fan2(((Q(0), Q(0)),), ())
    with pytest.raises(ValueError):
        Fan2(((Q(1), Q(0)), (Q(2), Q(0))), ())  # positive multiples
    with pytest.raises(ValueError):
        Fan2(((Q(1), Q(0)), (Q(-1), Q(0))), ((0, 1),))  # degenerate cone


def test_normal_fan_of_square():
    p = polygon([(Q(0), Q(0)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(0), Q(1))])
    fan = normal_fan(p)
    assert len(fan.ray_generators) == 4
    assert len(fan.maximal_cones) == 4
    assert is_complete(fan)
    assert is_rational(fan, z2())
    assert is_smooth(fan, z2())


def test_normal_fan_nonsimple():
    # vrep_from_hrep drops tangent constraints as redundant, so build the
    # defective description by hand: a corner-touching diagonal facet
    square = vrep_from_hrep(
        [
            HalfPlane((Q(1), Q(0)), Q(0)),
            HalfPlane((Q(0), Q(1)), Q(0)),
            HalfPlane((Q(-1), Q(0)), Q(-1)),
            HalfPlane((Q(0), Q(-1)), Q(-1)),
        ]
    )
    defective = hand_built(
        square.hrep + (HalfPlane((Q(1), Q(1)), Q(0)),),
        square.vertices,
        square.rays,
    )
    assert not defective.simple
    with pytest.raises(NonSimpleError):
        normal_fan(defective)


def test_incomplete_fan_of_unbounded_polyhedron():
    fan = normal_fan(strip())
    assert not is_complete(fan)


def test_trapezoid_fan_predicates_integer():
    for n in range(1, 11):
        a = ParamSpec(Q(n))
        fan = normal_fan(trapezoid(a))
        assert is_complete(fan)
        assert is_rational(fan, z2())
        assert is_smooth(fan, z2())
        assert is_rational(fan, hirzebruch_quasilattice(a))


def test_trapezoid_fan_predicates_fractional():
    a = ParamSpec(parse_scalar("3/2"))
    fan = normal_fan(trapezoid(a))
    assert is_complete(fan)
    assert is_rational(fan, z2())  # (-1, 3/2) spans a rational ray
    assert not is_smooth(fan, z2())  # primitive (-2, 3) gives |det| = 3 and 2


def test_trapezoid_fan_predicates_irrational():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    fan = normal_fan(trapezoid(a))
    assert is_complete(fan)
    assert not is_rational(fan, z2())
    assert is_rational(fan, hirzebruch_quasilattice(a))
    assert not is_smooth(fan, z2())
    with pytest.raises(NotALatticeError):
        is_smooth(fan, hirzebruch_quasilattice(a))


def test_is_complete_needs_all_cones():
    p = polygon([(Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))])
    fan = normal_fan(p)
    assert is_complete(fan)
    partial = Fan2(fan.ray_generators, fan.maximal_cones[:-1])
    assert not is_complete(partial)


def _rational_qa(p, q):
    return hirzebruch_quasilattice(ParamSpec(Q(Fraction(p, q))))


def lattices():
    """Z^2, Q_a for a rational a > 0, and Z^2 augmented by a nonzero
    rational vector."""
    return st.one_of(
        st.just(z2()),
        st.builds(_rational_qa, st.integers(1, 12), st.integers(1, 12)),
        st.tuples(fractions(4, 6), fractions(4, 6)).filter(any).map(
            lambda v: z2().augment((Q(v[0]), Q(v[1])))),
    )


_TRAPEZOID_3_2 = trapezoid_halfplanes(ParamSpec(parse_scalar("3/2")))


@settings(max_examples=200, deadline=None)
@given(halfplane_systems(), lattices())
@example(_TRAPEZOID_3_2, _rational_qa(3, 2))  # smooth in Q_a, not in Z^2
@example(_TRAPEZOID_3_2, z2())
def test_is_smooth_matches_solving_oracle(hs, lattice):
    """Smoothness from the HNF reduction's coordinates is smoothness from
    solving each ray on the lattice basis over the field, on the normal fans
    of random half-plane systems, over Q and Q(sqrt(2))."""
    try:
        fan = normal_fan(vrep_from_hrep(hs))
    except (InfeasibleRegionError, NotPointedError, NonSimpleError):
        return
    assert is_smooth(fan, lattice) == smooth_by_solving(fan, lattice)


@st.composite
def fans(draw):
    """Fans of up to 6 rays over Q or Q(sqrt(2)), some summing to zero,
    with cones that pair each ray with its next or next-but-one in angular
    order (complete fans, a pentagram, two triangles) or random rays, each
    cone stored in a random orientation, and then some cones dropped,
    repeated or added at random; degenerate cones are left out."""
    irrational = draw(st.booleans())

    def coord():
        r = Q(draw(st.integers(-3, 3)))
        return r + draw(st.integers(-1, 1)) * sqrt(2) if irrational else r

    gens = []
    drawn = [(coord(), coord()) for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):  # rays that sum to zero are in no open half-plane
        drawn.append(tuple(-sum(c, Q(0)) for c in zip(*drawn)))
    for g in drawn:
        if not is_zero_vec(g) and not any(
                cross(g, h).is_zero() and dot(g, h).sign() > 0 for h in gens):
            gens.append(g)
    k = len(gens)
    ring = [gens.index(g) for g in sort_by_angle(gens)]
    if draw(st.booleans()):
        skip = draw(st.integers(1, 2))
        cones = [(ring[t], ring[(t + skip) % k]) for t in range(k)]
    else:
        cones = [tuple(draw(st.permutations(range(k)))[:2]) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop", "repeat", "add"]))
        if kind == "add" or not cones:
            cones.append(tuple(draw(st.permutations(range(k)))[:2]))
        elif kind == "drop":
            cones.pop(draw(st.integers(0, len(cones) - 1)))
        else:
            cones.append(cones[draw(st.integers(0, len(cones) - 1))])
    cones = [c if draw(st.booleans()) else c[::-1] for c in cones]
    cones = [c for c in cones if len(c) == 2 and not cross(gens[c[0]], gens[c[1]]).is_zero()]
    return Fan2(tuple(gens), tuple(draw(st.permutations(cones))))


def _normal_fan_or_none(hs):
    try:
        return normal_fan(vrep_from_hrep(hs))
    except (InfeasibleRegionError, NotPointedError, NonSimpleError):
        return None


_HEXAGON = ((Q(2), Q(0)), (Q(1), Q(2)), (Q(-1), Q(2)), (Q(-2), Q(0)), (Q(-1), Q(-2)),
            (Q(1), Q(-2)))
_PENTAGON = ((Q(4), Q(0)), (Q(1), Q(4)), (Q(-3), Q(2)), (Q(-3), Q(-2)), (Q(1), Q(-4)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(fans(), halfplane_systems().map(_normal_fan_or_none)))
# two triangles of steps of a third of a turn each cover every ray once,
# and pass ray 0's direction twice
@example(Fan2(_HEXAGON, ((0, 2), (2, 4), (4, 0), (1, 3), (3, 5), (5, 1))))
# the pentagram: steps of two fifths of a turn wind around twice
@example(Fan2(_PENTAGON, ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0))))
# the square's fan with its cones stored clockwise
@example(Fan2(((Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(0)), (Q(0), Q(-1))),
              ((1, 0), (2, 1), (3, 2), (0, 3))))
def test_is_complete_matches_sorting_oracle(fan):
    """The walk of the cones tells complete fans as sorting the rays by
    angle does, on random fans and the normal fans of random half-plane
    systems."""
    if fan is None:
        return
    assert is_complete(fan) == complete_by_sorting(fan)
