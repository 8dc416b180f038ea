"""The foliated-manifold layer: group actions, projection invariance, leaf
classification, and the rational/irrational return-time dichotomy."""

import cmath
import random
from fractions import Fraction

import pytest

from quasitoric.foliation import (
    DEFAULT_TOL,
    LVMDatum,
    act_c_lambda,
    act_conjugate,
    class_residual,
    classify_leaves,
    dist_to_z_plus_az,
    equivalent_in_Fa,
    in_U,
    normalize,
    project,
    real_flow_phase_distance,
    verify_projection_invariance,
)
from quasitoric.gale import gale_dual
from quasitoric.pipeline import hirzebruch_vector_config
from quasitoric.scalar import ParamSpec, Q, parse_scalar

from test_gale import hirzebruch_chamber


def make_datum(text: str) -> LVMDatum:
    a = ParamSpec(parse_scalar(text))
    return LVMDatum(gale_dual(hirzebruch_vector_config(a)), hirzebruch_chamber(), a)


def random_U_points(rng: random.Random, n: int):
    out = []
    while len(out) < n:
        z = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(5)
        )
        if min(abs(w) for w in z) > 0.05:
            out.append(z)
    return out


def test_normalize_and_in_U():
    z = (1 + 0j, 2j, 0.5 + 0j, 1 + 1j, 3 + 0j)
    n = normalize(z)
    assert max(abs(w) for w in n) == pytest.approx(1.0)
    assert in_U(z, hirzebruch_chamber())
    # z5 = 0 kills every chamber element (they all contain index 5)
    assert not in_U((1 + 0j, 1j, 1 + 0j, 1j, 0j), hirzebruch_chamber())
    with pytest.raises(ValueError):
        normalize((0j,) * 5)


def test_action_group_law():
    """Acting by s then t equals acting by s + t (projectively)."""
    datum = make_datum("sqrt(2)")
    rng = random.Random(11)
    for z in random_U_points(rng, 5):
        for s, t in [(0.3, 0.4), (0.25 + 0.1j, -0.5 + 0.2j)]:
            for act in (act_c_lambda, act_conjugate):
                once = act(s + t, z, datum.points)
                twice = act(t, act(s, z, datum.points), datum.points)
                assert max(
                    abs(u - v) for u, v in zip(project(once), project(twice))
                ) < 1e-9


def test_action_preserves_U():
    datum = make_datum("3/2")
    rng = random.Random(5)
    for z in random_U_points(rng, 10):
        assert in_U(z, datum.chamber)
        for t in (0.7, 0.3 + 0.2j):
            assert in_U(act_c_lambda(t, z, datum.points), datum.chamber)
            assert in_U(act_conjugate(t, z, datum.points), datum.chamber)


def test_project_requires_z5():
    with pytest.raises(ValueError):
        project((1 + 0j, 1j, 1 + 0j, 1j, 0j))
    w = project((2 + 0j, 2j, 2 + 0j, 2j, 2 + 0j))
    assert w == (1 + 0j, 1j, 1 + 0j, 1j)


def test_dist_to_z_plus_az():
    a = ParamSpec(parse_scalar("3/2"))
    # Z + (3/2)Z = (1/2)Z
    assert dist_to_z_plus_az(0.5, a) == pytest.approx(0.0)
    assert dist_to_z_plus_az(0.75, a) == pytest.approx(0.25)
    irr = ParamSpec(parse_scalar("sqrt(2)"))
    import math

    assert dist_to_z_plus_az(math.sqrt(2), irr) == pytest.approx(0.0, abs=1e-9)
    assert dist_to_z_plus_az(3 - math.sqrt(2), irr) == pytest.approx(0.0, abs=1e-9)


def test_class_residual_zero_patterns():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    w = (1 + 0j, 1 + 0j, 1 + 0j, 1 + 0j)
    w_zero = (0j, 1 + 0j, 1 + 0j, 1 + 0j)
    assert class_residual(w, w_zero, a) == float("inf")
    assert class_residual(w_zero, w_zero, a) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        class_residual((1 + 0j,) * 3, (1 + 0j,) * 3, a)


def test_equivalence_by_group_element():
    """Multiplying by (e^{2 pi i u}, e^{2 pi i v}, e^{2 pi i (v + a u)}, e^{2 pi i u})
    stays in the class; a generic perturbation leaves it."""
    rng = random.Random(3)
    for text in ("3/2", "sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        av = float(a.value)
        for _ in range(10):
            w = tuple(
                complex(rng.uniform(0.2, 1), rng.uniform(-1, 1)) for _ in range(4)
            )
            u = complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))
            v = complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))
            g = (
                cmath.exp(2j * cmath.pi * u),
                cmath.exp(2j * cmath.pi * v),
                cmath.exp(2j * cmath.pi * (v + av * u)),
                cmath.exp(2j * cmath.pi * u),
            )
            moved = tuple(gi * wi for gi, wi in zip(g, w))
            assert equivalent_in_Fa(w, moved, a, tol=1e-7)
            bad = (moved[0], moved[1], moved[2] * cmath.exp(0.21j), moved[3])
            assert not equivalent_in_Fa(w, bad, a, tol=1e-7)


def test_projection_invariance_report():
    rng = random.Random(42)
    for text in ("2", "3/2", "sqrt(2)", "1+sqrt(2)"):
        datum = make_datum(text)
        samples = random_U_points(rng, 12)
        # |t| stays small: the holomorphic flow scales |z3| by e^(-2 pi a Im(Lambda_3 t))
        # and large t drives points numerically out of U
        t_values = [0.5, -0.3, 0.45, 0.2 + 0.1j, -0.4 - 0.05j]
        report = verify_projection_invariance(datum, samples, t_values, tol=1e-7)
        assert report.all_equivalent, (text, report.max_residual)


def test_classify_leaves_rational():
    r = classify_leaves(ParamSpec(Q(2)))
    assert r.generic_leaf == "torus_T2"
    assert r.generic_closure == "torus_T2"
    assert r.covering_degree == 1
    assert r.special_leaf_generic_stratum == "C/(Z + iZ)"

    r = classify_leaves(ParamSpec(parse_scalar("5/3")))
    assert r.covering_degree == 3
    assert r.special_leaf_generic_stratum == "C/(Z + 3iZ)"
    assert r.special_leaf_degenerate_stratum == "C/(Z + iZ)"


def test_classify_leaves_irrational():
    r = classify_leaves(ParamSpec(parse_scalar("sqrt(2)")))
    assert r.generic_leaf == "cylinder_S1xR"
    assert r.generic_closure == "torus_T3"
    assert r.special_leaf_generic_stratum == "C*"
    assert r.special_leaf_degenerate_stratum == "compact complex torus"
    assert r.covering_degree is None


def test_return_time_dichotomy():
    """Rational a = p/q: the real flow closes up at time q and at no earlier
    integer time coprime to the pattern; irrational a: it never does."""
    for q in range(1, 13):
        for p in range(1, q + 1):
            from math import gcd

            if gcd(p, q) != 1:
                continue
            a = ParamSpec(Q(Fraction(p, q)))
            assert real_flow_phase_distance(a, float(q)) == pytest.approx(0.0, abs=1e-9)
            for t in range(1, q):
                assert real_flow_phase_distance(a, float(t)) > 1e-6
    irr = ParamSpec(parse_scalar("sqrt(2)"))
    smallest = min(real_flow_phase_distance(irr, float(t)) for t in range(1, 201))
    assert smallest > 1e-3
