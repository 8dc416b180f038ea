"""Moment-map level equations and quasifold presentations, with exact
vertex-pattern level-set checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasitoric import pipeline
from quasitoric.delzant import (
    PolytopeTriple,
    TripleError,
    moment_map_coeffs,
    presentation,
    render_phase_map,
)
from quasitoric.gale import relation_basis
from quasitoric.pipeline import PipelineInconsistency, build_report, five_constraint_triple, trapezoid
from quasitoric.quasilattice import Quasilattice, hirzebruch_quasilattice, z2
from quasitoric.scalar import ParamSpec, Q, parse_scalar

from conftest import SQUAREFREE_DS, kernel_rows_for, params, quad_scalars, rational_scalars


def normals(halfplanes):
    return [h.normal for h in halfplanes]


def reduced_presentation(a):
    """The presentation of (P_a, Q_a), with the moment map of P_a for relation
    rows reduced from its facet normals (``kernel_rows_for``) and Gamma_a as
    its one owner, the report's strip cut, computes it; and that Gamma."""
    triple = PolytopeTriple(trapezoid(a), hirzebruch_quasilattice(a))
    facets = triple.polytope.hrep
    components = moment_map_coeffs(facets, kernel_rows_for(normals(facets)))
    gamma = build_report(a).cut.gamma
    return presentation(triple, components, gamma), gamma


def test_triple_validation():
    a = ParamSpec(parse_scalar("sqrt(2)"))
    # trapezoid normals live in Q_a but (-1, sqrt 2) is not in Z^2
    with pytest.raises(TripleError):
        PolytopeTriple(trapezoid(a), z2())
    PolytopeTriple(trapezoid(a), hirzebruch_quasilattice(a))  # fine with Q_a


def test_moment_components_regression():
    """lambda = (0, 0, -1, -1, -2a) gives the three level equations."""
    for text in ("2", "3/2", "sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        triple = five_constraint_triple(trapezoid(a), hirzebruch_quasilattice(a))
        rows = kernel_rows_for(normals(triple.halfplanes()))
        comps = moment_map_coeffs(triple.halfplanes(), rows)
        av = a.value
        assert [c.constant for c in comps] == [2 * (av + 1), Q(1), Q(1) + av]
        assert comps[0].coefficients == (Q(1),) * 5
        assert comps[1].coefficients == (Q(0), Q(1), Q(1), Q(0), Q(0))
        assert comps[2].coefficients == (Q(1), Q(0), av, Q(1), Q(0))
        assert comps[1].render() == "|z2|^2 + |z3|^2 = 1"


def test_level_set_vertex_patterns():
    """At each vertex of P_a exactly two homogeneous coordinates vanish; the
    remaining squared moduli solve the level equations exactly."""
    for text in ("2", "3/2", "sqrt(2)"):
        a = ParamSpec(parse_scalar(text))
        av = a.value
        triple = five_constraint_triple(trapezoid(a), hirzebruch_quasilattice(a))
        halfplanes = triple.halfplanes()
        comps = moment_map_coeffs(halfplanes, kernel_rows_for(normals(halfplanes)))
        # |z_i|^2 = <mu, X_i> - lambda_i at the moment-image point mu
        for v in trapezoid(a).vertices:
            moduli = [
                h.normal[0] * v[0] + h.normal[1] * v[1] - h.offset
                for h in halfplanes
            ]
            assert all(m.sign() >= 0 for m in moduli)
            assert sum(1 for m in moduli[:4] if m.is_zero()) == 2
            for c in comps:
                level = sum((b * m for b, m in zip(c.coefficients, moduli)), -c.constant)
                assert level.is_zero()


def test_moment_coeffs_reject_bad_rows():
    a = ParamSpec(Q(2))
    triple = five_constraint_triple(trapezoid(a), hirzebruch_quasilattice(a))
    with pytest.raises(ValueError):
        moment_map_coeffs(triple.halfplanes(), [[Q(1), Q(0), Q(0), Q(0), Q(0)]])
    with pytest.raises(ValueError):
        moment_map_coeffs(triple.halfplanes(), [[Q(1), Q(1)]])


def test_presentation_four_facets():
    pres, gamma = reduced_presentation(ParamSpec(parse_scalar("sqrt(2)")))
    assert pres.facet_count == 4
    assert pres.quasitorus == "S^1 x (S^1/Gamma_a)"
    assert gamma.kind == "dense_cyclic"
    assert pres.divisor_orders == ()
    # cutting group N = {(e^{2 pi i r}, e^{2 pi i s}, e^{2 pi i (s + a r)}, e^{2 pi i r})}
    phases = pres.group_phases()
    assert phases == (
        "(e^(2*pi*i*(r)), e^(2*pi*i*(s)), e^(2*pi*i*(s + (sqrt(2))r)), e^(2*pi*i*(r)))"
    )


def test_presentation_rational_cases():
    pres, gamma = reduced_presentation(ParamSpec(Q(3)))
    assert pres.quasitorus == "S^1 x S^1"
    assert gamma.kind == "trivial"
    assert pres.divisor_orders == ()

    pres, gamma = reduced_presentation(ParamSpec(parse_scalar("5/3")))
    assert pres.quasitorus == "S^1 x (S^1/Z_3)"
    assert gamma.order == 3
    # the two horizontal facets carry order-3 orbifold divisors
    orders = dict(pres.divisor_orders)
    assert set(orders.values()) == {3} and len(orders) == 2


def test_render_phase_map_constant_coordinate():
    out = render_phase_map([[Q(1), Q(0)], [Q(0), Q(0)]])
    # second row is zero everywhere: ignored; second coordinate constant
    assert out == "(e^(2*pi*i*(r)), 1)"



def test_report_checks_each_normal_in_qa_once(monkeypatch):
    """After a warm-up, a serialised report for 1+sqrt(2) builds one triple,
    P_a's four facets and the extra half-plane, whose normals are tested in
    Q_a once each; the sixth membership test is the quotient's rotation
    check.  So it makes 6 ``Quasilattice.member`` calls and 13 coordinate
    reductions (10 and 17 while the presentation built its own triple)."""
    members, reductions = [], []

    def logged(log, fn):
        def wrapper(*args, **kwargs):
            log.append(1)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Quasilattice, "member", logged(members, Quasilattice.member))
    monkeypatch.setattr(Quasilattice, "coordinates", logged(reductions, Quasilattice.coordinates))
    build_report(ParamSpec(parse_scalar("3/2"))).to_json()
    members.clear()
    reductions.clear()
    doc = build_report(ParamSpec(parse_scalar("1+sqrt(2)")))
    doc.to_json()
    assert len(members) == 6
    assert len(reductions) == 13
    assert doc.presentation.facet_count == 4


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    params(),
    rational_scalars().filter(lambda x: x.sign() > 0).map(ParamSpec),
    st.sampled_from(SQUAREFREE_DS).flatmap(quad_scalars)
    .filter(lambda x: x.sign() > 0).map(ParamSpec),
))
def test_report_level_components_are_the_facets_moment_map(a):
    """The presentation's level components, which a report takes from its
    one moment map of the five-constraint triple, are the moment map of
    P_a's four facets for V_a's relation rows below the all-ones row,
    without the ghost column; its relation rows are their coefficients."""
    doc = build_report(a)
    ghosts = doc.gale.vector_config.ghost_indices
    rows = [[b for j, b in enumerate(r, start=1) if j not in ghosts]
            for r in doc.gale.relation_matrix[1:]]
    components = tuple(moment_map_coeffs(doc.polytope.hrep, rows))
    assert doc.presentation.level_components == components
    assert doc.presentation.relation_rows == tuple(c.coefficients for c in components)


def test_report_refuses_a_relation_nonzero_at_the_ghost(monkeypatch):
    """V_a's second relation row plus its all-ones row is still a relation
    of V_a, so the five-constraint moment map accepts it, but its ghost
    entry is 1: without the ghost column it is no relation of P_a's facets,
    and the report raises rather than hand it to the presentation."""
    def shifted(vc):
        ones, row, *rest = relation_basis(vc)
        return [ones, [b + 1 for b in row], *rest]

    monkeypatch.setattr(pipeline, "relation_basis", shifted)
    with pytest.raises(PipelineInconsistency, match="ghost"):
        build_report(ParamSpec(Q(2)))
