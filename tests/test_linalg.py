"""Row reduction, kernels, and HNF against independent rank and minor checks."""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasitoric.linalg import (
    cross,
    dot,
    hnf_rows,
    kernel_basis,
    primitive_int_vector,
    rot90,
    rref,
    solve2x2,
)
from quasitoric.scalar import Q, sqrt

from conftest import is_integer, matrix_rank, solve_linear


def test_solve2x2():
    sol = solve2x2((Q(1), Q(2)), (Q(3), Q(4)), (Q(5), Q(6)))
    assert sol == (Q(-4), Q("9/2"))
    assert solve2x2((Q(1), Q(2)), (Q(2), Q(4)), (Q(0), Q(0))) is None


def test_rot90_and_cross():
    v = (Q(3), Q(1))
    assert dot(v, rot90(v)).is_zero()
    assert cross(v, rot90(v)) == dot(v, v)


def test_rank_and_kernel_over_quadratic_field():
    a = sqrt(2)
    rows = [
        [Q(1), Q(0), Q(0), Q(-1), Q(0)],
        [Q(0), Q(1), Q(-1), a, Q(0)],
    ]
    assert matrix_rank(rows) == 2
    ker = kernel_basis(rows)
    assert len(ker) == 3
    for v in ker:
        for row in rows:
            acc = Q(0)
            for x, y in zip(row, v):
                acc = acc + x * y
            assert acc.is_zero()


def test_rref_names_each_rows_source():
    """Each column's pivot row is the first nonzero one there, in input
    order, among the rows not yet pivots; a zero row comes last."""
    rows = [[Q(0), Q(1), Q(1)], [Q(0), Q(0), Q(0)], [Q(1), Q(2), Q(0)], [Q(1), Q(0), Q(0)]]
    red, pivots, sources = rref(rows)
    assert pivots == [0, 1, 2] and sources == [2, 0, 3, 1]
    assert red == [[Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(0), Q(0), Q(1)], [Q(0)] * 3]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=2, max_size=4))
def test_kernel_annihilates(rows):
    mat = [[Q(x) for x in row] for row in rows]
    for v in kernel_basis(mat):
        for row in mat:
            acc = Q(0)
            for x, y in zip(row, v):
                acc = acc + x * y
            assert acc.is_zero()
    assert matrix_rank(mat) + len(kernel_basis(mat)) == 4


def test_solve_linear():
    rows = [[Q(2), Q(1)], [Q(1), Q(1)]]
    assert solve_linear(rows, [Q(3), Q(2)]) == [Q(1), Q(1)]
    # inconsistent
    rows = [[Q(1), Q(1)], [Q(2), Q(2)]]
    assert solve_linear(rows, [Q(1), Q(3)]) is None


def test_hnf_rows_known():
    basis = hnf_rows([[2, 0], [0, 2], [1, 1]])
    assert basis == [[1, 1], [0, 2]]
    basis = hnf_rows([[4, 6], [6, 9]])
    assert basis == [[2, 3]]
    assert hnf_rows([[0, 0], [0, 0]]) == []


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _minor_gcd(rows, k):
    """gcd of all k x k minors: invariant under unimodular row operations."""
    g = 0
    for rs in combinations(rows, k):
        for cs in combinations(range(len(rows[0])), k):
            g = gcd(g, _det([[r[c] for c in cs] for r in rs]))
    return g


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=2, max_size=4))
def test_hnf_preserves_row_span(rows):
    basis = hnf_rows(rows)
    k = len(basis)
    rank = matrix_rank([[Q(x) for x in r] for r in rows])
    # the basis rows are independent, so every original row has unique
    # rational coefficients in them, and they must be integers
    assert matrix_rank([[Q(x) for x in b] for b in basis]) == k
    for r in rows:
        if k == 0:
            assert not any(r)
            continue
        coeffs = solve_linear([[Q(b[j]) for b in basis] for j in range(3)], [Q(x) for x in r])
        assert coeffs is not None
        assert all(is_integer(c) for c in coeffs)
    # so span(rows) is inside span(basis); equal rank and an equal gcd of
    # the maximal minors make the index 1, so the spans are equal
    assert k == rank
    if k:
        assert _minor_gcd(basis, k) == _minor_gcd(rows, k)


def test_primitive_int_vector():
    assert primitive_int_vector([Fraction(2, 3), Fraction(4, 3)]) == [1, 2]
    assert primitive_int_vector([Fraction(-6), Fraction(9)]) == [-2, 3]
    with pytest.raises(ValueError):
        primitive_int_vector([Fraction(0), Fraction(0)])
