"""Quasilattice membership against brute force, quotient groups against
brute force, and ray rationality."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitoric.linalg import cross, smul, vadd
from quasitoric.quasilattice import (
    GroupDesc,
    Quasilattice,
    hirzebruch_quasilattice,
    z2,
)
from quasitoric.scalar import ParamSpec, Q, parse_scalar, sqrt

from conftest import denominator, in_q, is_integer, lattice_basis


def same_group(q1, q2):
    """Each quasilattice's generators lie in the other: the same group."""
    return all(q2.member(g) for g in q1.generators) and all(q1.member(g) for g in q2.generators)


def combo(gens, coeffs):
    out = (Q(0), Q(0))
    for g, m in zip(gens, coeffs):
        out = vadd(out, smul(m, g))
    return out


def brute_member(gens, v, bound):
    """Exhaustive search for integer coefficients within [-bound, bound]."""
    n = len(gens)
    ranges = [range(-bound, bound + 1)] * n

    def rec(i, acc):
        if i == n:
            return acc[0] == v[0] and acc[1] == v[1]
        for m in ranges[i]:
            if rec(i + 1, vadd(acc, smul(m, gens[i]))):
                return True
        return False

    return rec(0, (Q(0), Q(0)))


def test_membership_basic():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    qa = hirzebruch_quasilattice(a)
    assert qa.member((Q(1), Q(0)))
    assert qa.member((Q(-1), sqrt(2)))
    assert qa.member((Q(5), Q(3) - 2 * sqrt(2)))
    assert not qa.member((Q(1, 2), Q(0)))
    assert not qa.member((Q(0), sqrt(2) / 2))
    assert not qa.member((sqrt(2), Q(0)))  # first coordinate must be integral


def test_membership_closed_form_oracle():
    """Q_a = Z x (Z + aZ): membership splits coordinatewise."""
    rng = random.Random(20240817)
    for a in (ParamSpec(parse_scalar("sqrt(2)")), ParamSpec(parse_scalar("3/2")),
              ParamSpec(parse_scalar("1+sqrt(3)"))):
        qa = hirzebruch_quasilattice(a)
        for _ in range(50):
            x = Q(rng.randint(-10, 10)) if rng.random() < 0.7 else Q(Fraction(rng.randint(-20, 20), rng.randint(2, 5)))
            m, n = rng.randint(-10, 10), rng.randint(-10, 10)
            y = Q(m) + Q(n) * a.value
            if rng.random() < 0.3:
                y = y + Q(Fraction(1, rng.randint(2, 7)))  # spoil it
            in_z = is_integer(x)
            # y in Z + aZ?
            if denominator(a):
                # Z + (p/q)Z = (g/q)Z with g = gcd(p, q) = 1 here
                in_y = is_integer(y * denominator(a))
            else:
                # rational part and sqrt coefficient both integral, with the
                # sqrt coefficient a multiple of a's
                coeff = a.value.s
                in_y = (
                    y.r.denominator == 1
                    and (y.s / coeff).denominator == 1
                    and ((y.s / coeff) * a.value.r).denominator == 1
                    and (y.r - (y.s / coeff) * a.value.r).denominator == 1
                )
            expected = in_z and in_y
            assert qa.member((x, y)) == expected, (str(a), str(x), str(y))


PARAMS = ("2", "3/2", "sqrt(2)", "1+sqrt(2)")


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
    st.booleans(),
)
def test_membership_brute_force_small(m1, m2, m3, spoil):
    for text in PARAMS:
        qa = hirzebruch_quasilattice(ParamSpec(parse_scalar(text)))
        v = combo(qa.generators, [m1, m2, m3])
        if spoil:
            v = vadd(v, (Q(Fraction(1, 3)), Q(0)))
        assert qa.member(v) == (not spoil), text


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))


@settings(max_examples=40, deadline=None)
@given(small_rationals, small_rationals)
def test_member_against_brute_force(x, y):
    """Exhaustive search decides membership of small vectors in Z^2 and in
    Q_{3/2}: coefficients within [-5, 5] reach every member with |x|, |y| <= 4."""
    v = (Q(x), Q(y))
    for qa in (z2(), hirzebruch_quasilattice(ParamSpec(parse_scalar("3/2")))):
        assert qa.member(v) == brute_member(qa.generators, v, 5), (str(x), str(y))


def test_member_known():
    # 2m + 4n = 6 has integer solutions; 2m + 4n = 3 does not
    q = Quasilattice(((Q(2), Q(0)), (Q(4), Q(0)), (Q(0), Q(1))))
    assert q.member((Q(6), Q(0)))
    assert not q.member((Q(3), Q(0)))
    # m1 - m3 = 5, m2 + 2 m3 = 7
    assert hirzebruch_quasilattice(ParamSpec(Q(2))).member((Q(5), Q(7)))
    q32 = hirzebruch_quasilattice(ParamSpec(parse_scalar("3/2")))
    assert q32.member((Q(0), Q(1, 2)))  # (1,0) - (0,1) + (-1,3/2)
    assert not q32.member((Q(0), Q(1, 3)))
    assert not q32.member((Q(1, 2), Q(0)))
    assert not z2().member((sqrt(2), Q(0)))


def test_homomorphism_property():
    """Membership is closed under addition and negation."""
    rng = random.Random(7)
    a = ParamSpec(parse_scalar("1+sqrt(2)"))
    qa = hirzebruch_quasilattice(a)
    members = [
        combo(qa.generators, [rng.randint(-5, 5) for _ in range(3)]) for _ in range(20)
    ]
    for u in members[:10]:
        for v in members[10:]:
            assert qa.member(vadd(u, v))
        assert qa.member((-u[0], -u[1]))


def test_is_lattice():
    assert z2().is_lattice()
    assert hirzebruch_quasilattice(ParamSpec(Q(2))).is_lattice()
    assert hirzebruch_quasilattice(ParamSpec(parse_scalar("3/2"))).is_lattice()
    assert not hirzebruch_quasilattice(ParamSpec(parse_scalar("sqrt(2)"))).is_lattice()
    assert not hirzebruch_quasilattice(ParamSpec(parse_scalar("1+sqrt(5)"))).is_lattice()


def test_lattice_basis_rational_case():
    a = ParamSpec(parse_scalar("3/2"))
    qa = hirzebruch_quasilattice(a)
    basis = lattice_basis(qa)
    sub = Quasilattice(basis)
    assert same_group(sub, qa)
    with pytest.raises(ValueError):
        lattice_basis(hirzebruch_quasilattice(ParamSpec(parse_scalar("sqrt(2)"))))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4), (5, 7), (7, 12), (11, 12)])
def test_gamma_orders_coprime(p, q):
    a = ParamSpec(Q(Fraction(p, q)))
    qa = hirzebruch_quasilattice(a)
    gamma = qa.quotient(z2())
    assert gamma.kind == "finite_cyclic" and gamma.order == q
    assert gamma.rotation_coefficient == a.value
    # and the index of Z^2 in Q_a really is q: a lattice basis of Q_a spans
    # a cell of area 1/q
    b = lattice_basis(qa)
    assert abs(cross(b[0], b[1])) == Q(Fraction(1, q))


def test_gamma_integer_and_irrational():
    assert hirzebruch_quasilattice(ParamSpec(Q(3))).quotient(z2()).kind == "trivial"
    g = hirzebruch_quasilattice(ParamSpec(parse_scalar("sqrt(2)"))).quotient(z2())
    assert g.kind == "dense_cyclic"
    assert g.rotation_coefficient == parse_scalar("sqrt(2)")
    # two generators outside the sublattice: not a cyclic extension
    with pytest.raises(ValueError):
        Quasilattice(((Q(1), Q(0)), (Q(0), Q(1)), (Q(1, 2), Q(0)), (Q(0), Q(1, 3)))).quotient(z2())


SUBS = {
    "Z^2": z2(),
    "Q_3/2": hirzebruch_quasilattice(ParamSpec(parse_scalar("3/2"))),
    "Q_sqrt2": hirzebruch_quasilattice(ParamSpec(parse_scalar("sqrt(2)"))),
}
small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
coordinates = st.one_of(
    small_fractions.map(Q),
    st.tuples(small_fractions, small_fractions).map(lambda rs: Q(rs[0]) + Q(rs[1]) * sqrt(2)),
)


@settings(max_examples=80, deadline=None)
@given(coordinates, coordinates)
@example(Q(1, 3), Q(1, 2))  # order 3 over Q_3/2, where y = 1/2 is integral
@example(Q(0), sqrt(2) / 2)  # order 2 over Q_sqrt2, dense over Z^2 and Q_3/2
def test_quotient_against_brute_force(x, y):
    """(sub + Z nu) / sub has the order of the least k <= 60 with k*nu in sub,
    and is dense exactly when there is none; with denominators <= 6 on the
    HNF rows, every finite order divides lcm(1..6) = 60."""
    nu = (x, y)
    if nu[0].is_zero() and nu[1].is_zero():
        return
    for name, sub in SUBS.items():
        g = sub.augment(nu).quotient(sub)
        k = next((k for k in range(1, 61) if sub.member(smul(k, nu))), None)
        if k is None:
            assert g.kind == "dense_cyclic", name
        elif k == 1:
            assert g == GroupDesc("trivial"), name
        else:
            assert (g.kind, g.order) == ("finite_cyclic", k), name


def test_quotient_rotation():
    """The rotation is nu's other coordinate when one coordinate of nu lies
    in sub, and None when neither does."""
    half = Q(1, 2)
    g = z2().augment((half, Q(0))).quotient(z2())
    assert (g.kind, g.order, g.rotation_coefficient) == ("finite_cyclic", 2, half)
    g = z2().augment((Q(2), sqrt(2))).quotient(z2())
    assert (g.kind, g.rotation_coefficient) == ("dense_cyclic", sqrt(2))
    g = z2().augment((half, Q(1, 3))).quotient(z2())
    assert (g.kind, g.order, g.rotation_coefficient) == ("finite_cyclic", 6, None)


def test_ray_meets():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    qa = hirzebruch_quasilattice(a)
    assert qa.ray_meets((Q(1), Q(0)))
    assert qa.ray_meets((Q(0), Q(-1)))
    assert qa.ray_meets((Q(-1), sqrt(2)))
    assert qa.ray_meets((Q(-2), 2 * sqrt(2)))  # same ray, scaled
    assert qa.ray_meets((Q(1), Q(1)))  # (1,1) in Z x (Z + aZ)
    assert qa.ray_meets((Q(1), sqrt(2)))  # the point (1, sqrt2) itself
    assert not z2().ray_meets((Q(1), sqrt(2)))
    assert not z2().ray_meets((sqrt(2), Q(1)))
    assert z2().ray_meets((Q(3), Q(-7)))
    # every ray through a nonzero member meets Q_a; Z^2 meets exactly the
    # rays of rational slope
    ts = [Q(1), Q(1, 2), Q(3), Q(2, 7), Q(5, 3)]
    for text in PARAMS:
        qa = hirzebruch_quasilattice(ParamSpec(parse_scalar(text)))
        for m in itertools.product(range(-2, 3), repeat=3):
            v = combo(qa.generators, m)
            if v[0].is_zero() and v[1].is_zero():
                continue
            for t in ts:
                assert qa.ray_meets(smul(t, v)), (text, m, str(t))
    z = z2()
    for d in (2, 3):
        entries = [Q(0), Q(1), Q(-2), sqrt(d), Q(1) - sqrt(d), Q(1, 2) + 3 * sqrt(d)]
        for g in itertools.product(entries, repeat=2):
            if g[0].is_zero() and g[1].is_zero():
                continue
            rational_slope = g[0].is_zero() or in_q(g[1] / g[0])
            assert z.ray_meets(g) == rational_slope, tuple(map(str, g))


def test_augment_and_equivalent():
    base = z2()
    same = base.augment((Q(1), Q(1)))
    assert same_group(base, same)
    finer = base.augment((Q(1, 2), Q(0)))
    assert not same_group(base, finer)
    assert finer.member((Q(1, 2), Q(0)))
    assert finer.quotient(base) == GroupDesc("finite_cyclic", order=2, rotation_coefficient=Q(1, 2))
    assert same.quotient(base) == GroupDesc("trivial")
    with pytest.raises(ValueError):
        base.augment((Q(0), Q(0)))


def test_group_desc_validation():
    with pytest.raises(ValueError):
        GroupDesc("weird")
    with pytest.raises(ValueError):
        GroupDesc("finite_cyclic", order=1)
