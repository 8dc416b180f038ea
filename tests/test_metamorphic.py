"""Metamorphic relations of the family F_a: two reports whose parameters an
exact symmetry relates, compared with each other and with no second
implementation."""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasitoric.jsonio import leaf_report_to_json
from quasitoric.pipeline import build_report
from quasitoric.scalar import ParamSpec, Q, QuadScalar, parse_scalar

from conftest import SQUAREFREE_DS, conjugate, conjugate_report, quad_scalars, rational_scalars

# positive a of small height: p/q, and r + s*sqrt(d) with d in {2, 3, 5, 7}
SMALL_PARAMS = st.one_of(
    rational_scalars(),
    st.sampled_from(SQUAREFREE_DS).flatmap(quad_scalars),
).filter(lambda x: x.sign() > 0).map(ParamSpec)


@settings(max_examples=50, deadline=None)
@given(SMALL_PARAMS)
@example(ParamSpec(parse_scalar("2")))
@example(ParamSpec(parse_scalar("3/2")))
@example(ParamSpec(parse_scalar("sqrt(2)")))
@example(ParamSpec(parse_scalar("1/3+sqrt(5)")))
def test_integer_shift_keeps_the_quasilattice_gamma_and_leaves(a):
    """Z + (a+1)Z = Z + aZ, so the reports of a and a + 1 have the same
    Q_a: each holds the other's generators.  Gamma_a = Q_a / Z^2 keeps its
    kind and order, and its rotation coefficient, a, moves by exactly 1
    (none for a trivial Gamma).  The leaf tables read Gamma alone, so their
    JSON is byte-equal."""
    shifted = ParamSpec(a.value + 1)
    doc, doc_shifted = build_report(a), build_report(shifted)
    qa, qb = doc.quasilattice, doc_shifted.quasilattice
    assert all(qb.member(g) for g in qa.generators)
    assert all(qa.member(g) for g in qb.generators)
    gamma, gamma_shifted = doc.cut.gamma, doc_shifted.cut.gamma
    assert (gamma_shifted.kind, gamma_shifted.order) == (gamma.kind, gamma.order)
    if gamma.kind == "trivial":
        assert gamma.rotation_coefficient is gamma_shifted.rotation_coefficient is None
    else:
        assert gamma_shifted.rotation_coefficient - gamma.rotation_coefficient == Q(1)
    named = (doc.presentation.quasitorus, doc.presentation.divisor_orders)
    assert (doc_shifted.presentation.quasitorus, doc_shifted.presentation.divisor_orders) == named
    assert (json.dumps(leaf_report_to_json(doc_shifted.leaf_report), sort_keys=True)
            == json.dumps(leaf_report_to_json(doc.leaf_report), sort_keys=True))


# a = r + s*sqrt(d), s != 0, with a and its conjugate both positive: r > |s|*sqrt(d)
CONJUGATE_PAIRS = st.builds(
    QuadScalar,
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 8)),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 8)),
    st.sampled_from(SQUAREFREE_DS),
).filter(lambda a: a.r * a.r > a.s * a.s * a.d)


@settings(max_examples=50, deadline=None)
@given(CONJUGATE_PAIRS)
@example(parse_scalar("3+sqrt(2)"))
@example(parse_scalar("2-sqrt(3)"))
@example(parse_scalar("5/2+1/2*sqrt(5)"))
@example(parse_scalar("4-2*sqrt(3)"))
def test_galois_conjugation_conjugates_every_scalar(a):
    """sqrt(d) -> -sqrt(d) is a field automorphism of Q(sqrt(d)).  Every
    exact datum of a report is built from a by field operations, and every
    sign it tests reads alike for each a > 0 (P_a has the same shape for
    all of them).  So the report of a' = r - s*sqrt(d) is the report of a
    with every scalar conjugated, the rendered equations and phase map
    included (conftest's ``Fraction``-only ``conjugate_report``)."""
    doc = build_report(ParamSpec(a)).to_json()
    assert conjugate_report(doc) == build_report(ParamSpec(conjugate(a))).to_json()
