"""Field axioms, exact ordering, parsing, and serialization of QuadScalar."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasitoric.scalar import (
    ParamSpec,
    Q,
    QuadScalar,
    ScalarContextError,
    ScalarDomainError,
    format_scalar,
    is_squarefree,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
    sqrt,
)

from conftest import SQUAREFREE_DS, any_scalars, conjugate, fractions, is_integer, quad_scalars


def test_squarefree():
    assert [n for n in range(2, 20) if is_squarefree(n)] == [
        2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19
    ]


def test_squarefree_against_brute_force():
    limit = 30000
    square_free = [n >= 2 for n in range(limit)]
    for k in range(2, math.isqrt(limit) + 1):
        for m in range(k * k, limit, k * k):
            square_free[m] = False
    assert [n for n in range(limit) if is_squarefree(n)] == [
        n for n in range(limit) if square_free[n]
    ]
    # past the cube-root trial division: p^2, p*q and 2*p^2 for primes near 10^6
    assert not is_squarefree(999983**2)
    assert is_squarefree(999983 * 999979)
    assert not is_squarefree(2 * 499979**2)
    assert is_squarefree(999999999989)


def same_field_pairs():
    return st.sampled_from(SQUAREFREE_DS).flatmap(
        lambda d: st.tuples(quad_scalars(d), quad_scalars(d))
    )


def assert_canonical(x):
    """x is what the checked constructor would build from its own parts."""
    assert type(x.r) is Fraction and type(x.s) is Fraction
    assert (x.d is None) == (x.s == 0)
    y = QuadScalar(x.r, x.s, x.d)
    assert x == y and hash(x) == hash(y)


@given(st.one_of(same_field_pairs(), st.tuples(any_scalars(), any_scalars())))
def test_arithmetic_results_are_canonical(pair):
    a, b = pair
    results = [-a, conjugate(a), a + 1, 1 + a, a - 1, 1 - a, 2 * a, a * 2, a + (-a)]
    try:
        results += [a + b, a - b, a * b, a * conjugate(a)]
        if not b.is_zero():
            results += [a / b, b.inv(), 1 / b]
    except ScalarContextError:
        assert a.d is not None and b.d is not None and a.d != b.d
    for x in results:
        assert_canonical(x)


def test_checks_stay_at_the_boundary():
    for op in (
        lambda: sqrt(2) + sqrt(3),
        lambda: sqrt(2) - sqrt(3),
        lambda: sqrt(2) * sqrt(3),
        lambda: sqrt(2) / sqrt(3),
        lambda: (1 + sqrt(2)) - (1 + sqrt(5)),
    ):
        with pytest.raises(ScalarContextError):
            op()
    for op in (lambda: Q(0).inv(), lambda: 1 / Q(0), lambda: sqrt(2) / Q(0)):
        with pytest.raises(ScalarDomainError):
            op()
    for bad in ((1, 1, 4), (1, 1), (1, 1, 1), (1, 1, 0), (1, 1, 10**12 + 1)):
        with pytest.raises(ScalarContextError):
            QuadScalar(*bad)
    assert_canonical(QuadScalar(1, 2, 3))
    assert_canonical(QuadScalar(3, 0, 2))


def test_eq_unparseable_string_is_unequal():
    for text in ("x", "", "sqrt(4)", "1e5", "1/0", "sqrt(2)+sqrt(3)"):
        assert not Q(1) == text
        assert Q(1) != text
    assert Q(1) in ["x", Q(1)]
    # a string is never equal, even one that parses: it could not hash equal
    assert Q(1) != "1" and sqrt(2) != "sqrt(2)"
    assert "1" not in {Q(1)} and {Q(1): 0}.get("1") is None


_plain_numbers = st.one_of(st.integers(-4, 4), fractions(max_num=4, max_den=3))
_numbers = st.one_of(_plain_numbers, _plain_numbers.map(Q), quad_scalars(2, 4, 3))


@given(_numbers, _numbers)
def test_equal_values_hash_equal(x, y):
    """Hash contract over int, Fraction and QuadScalar: equality is symmetric
    and equal values hash equal, so sets and dict keys mix the types."""
    assert (x == y) == (y == x) and (x != y) != (x == y)
    if x == y:
        assert hash(x) == hash(y) and y in {x}


def test_constructor_canonicalizes():
    x = QuadScalar(Fraction(3), Fraction(0), 2)
    assert x.d is None  # zero irrational part drops the context
    with pytest.raises(ScalarContextError):
        QuadScalar(Fraction(1), Fraction(1), None)
    with pytest.raises(ScalarContextError):
        QuadScalar(Fraction(1), Fraction(1), 4)  # not squarefree


@given(any_scalars())
def test_scalars_are_immutable(x):
    """A QuadScalar keeps its parts in slots, refuses assignment and
    deletion, and survives copying and pickling with its value and hash."""
    for name in ("r", "s", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.r
    assert not hasattr(x, "__dict__")
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x) and (y.r, y.s, y.d) == (x.r, x.s, x.d)


def test_context_mixing_rejected():
    with pytest.raises(ScalarContextError):
        sqrt(2) + sqrt(3)
    # rationals mix with anything
    assert (Q(1) + sqrt(2)).d == 2


@given(any_scalars(), any_scalars(), any_scalars())
def test_ring_axioms(a, b, c):
    try:
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        assert a - a == Q(0)
    except ScalarContextError:
        pass  # different sqrt contexts cannot combine


@given(any_scalars())
def test_field_inverse(a):
    if a.is_zero():
        with pytest.raises(ScalarDomainError):
            a.inv()
    else:
        assert a * a.inv() == Q(1)
        assert a / a == Q(1)


@given(any_scalars())
def test_sign_matches_float(a):
    """The exact sign and the float sign agree whenever the float is safely
    away from zero."""
    f = a.to_float()
    if abs(f) > 1e-8:
        assert a.sign() == (1 if f > 0 else -1)
    if a.is_zero():
        assert a.sign() == 0


@given(quad_scalars(2), quad_scalars(2))
def test_order_matches_float(a, b):
    fa, fb = a.to_float(), b.to_float()
    if abs(fa - fb) > 1e-8:
        assert (a < b) == (fa < fb)
        assert (a > b) == (fa > fb)


@given(any_scalars())
def test_abs_and_pow(a):
    assert abs(a).sign() >= 0


@given(any_scalars())
def test_format_parse_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


@given(any_scalars())
def test_json_roundtrip(a):
    obj = scalar_to_json(a)
    assert scalar_from_json(obj) == a
    assert math.isclose(obj["float"], a.to_float())


def test_json_bool_is_not_a_scalar():
    """JSON true and false are not the numbers 1 and 0."""
    for obj in (True, False):
        with pytest.raises(ValueError):
            scalar_from_json(obj)
    assert scalar_from_json(1) == Q(1)


def test_parse_examples():
    assert parse_scalar("3/2") == QuadScalar(Fraction(3, 2))
    assert parse_scalar("sqrt(2)") == sqrt(2)
    assert parse_scalar("1+sqrt(2)") == Q(1) + sqrt(2)
    assert parse_scalar("-1/2-3*sqrt(5)") == Q("-1/2") - 3 * sqrt(5)
    assert parse_scalar("2*sqrt(3)") == 2 * sqrt(3)
    for bad in ("", "one", "sqrt(4)", "1 1", "1+", "sqrt(-2)"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_conjugate():
    x = Q(1) + 2 * sqrt(2)
    assert conjugate(x) == Q(1) - 2 * sqrt(2)
    assert x * conjugate(x) == Q(1 - 8)


def test_param_spec():
    """A parameter is its exact positive value, coerced and printed as
    parsed; whether it is rational is Gamma_a's to say, not its own."""
    a = ParamSpec(parse_scalar("3/2"))
    assert a.value == Q(3, 2) and str(a) == "3/2" and not is_integer(a.value)
    assert ParamSpec(2).value == Q(2) and is_integer(ParamSpec(Q(2)).value)
    irr = ParamSpec(parse_scalar("1+sqrt(2)"))
    assert irr.value == Q(1) + sqrt(2) and str(irr) == "1+sqrt(2)"
    assert not any(hasattr(irr, name) for name in ("rational", "p", "q"))
    with pytest.raises(ValueError):
        ParamSpec(Q(0))
    with pytest.raises(ValueError):
        ParamSpec(Q(-1))
    # positive irrational with negative rational part is fine
    ParamSpec(parse_scalar("-1+sqrt(2)"))
    with pytest.raises(ValueError):
        ParamSpec(parse_scalar("1-sqrt(2)"))


@given(
    st.integers(-50, 50),
    st.integers(1, 20),
    st.integers(-50, 50).filter(lambda n: n != 0),
    st.integers(1, 20),
)
def test_sign_vs_fraction_oracle(p1, q1, p2, q2):
    """r + s*sqrt(2) sign against floating point (never exactly zero since
    sqrt(2) is irrational and s != 0)."""
    x = QuadScalar(Fraction(p1, q1), Fraction(p2, q2), 2)
    approx = p1 / q1 + (p2 / q2) * math.sqrt(2)
    assert x.sign() == (1 if approx > 0 else -1)
