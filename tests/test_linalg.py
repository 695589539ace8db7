"""Rank and span membership over exact fields, through SpanBasis.

The property tests compare SpanBasis against rref_rows, the independent
full Fraction row reduction of the test reference (cyc_reference).
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bct.errors import InvalidParameters
from bct.exact_arith import (
    CycNumber,
    SpanBasis,
    euler_phi,
    z_span_test,
    zeta,
)
from cyc_reference import rref_rows


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def span_of(rows, ncols):
    sb = SpanBasis(ncols)
    for r in rows:
        sb.add(r)
    return sb


def test_rref_rank_one():
    sb = span_of(frac_rows([[1, 2], [2, 4]]), 2)
    assert sb.rank == 1
    assert sb.rows == [[Fraction(1), Fraction(2)]]


def test_rref_identity():
    sb = span_of(frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3)
    assert sb.rank == 3


def test_rref_cyclotomic_rank_one():
    z = zeta(3)
    one = z ** 0
    row1 = [z, one]
    row2 = [one, z * z]
    # dependence oracle: the second row is z^2 times the first
    assert [z * z * x for x in row1] == row2
    assert span_of([row1, row2], 2).rank == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda: euler_phi(0),
        lambda: CycNumber(5, (1, 2)),
        lambda: zeta(6).galois(3),
        lambda: SpanBasis(3).reduce([1, 2]),
        lambda: z_span_test([[1, 2]], 2)([1]),
        lambda: z_span_test([], 2)([0]),
        lambda: z_span_test([[1, 2], [3]], 2),
    ],
    ids=["euler_phi", "coeff_count", "galois", "span_width", "lattice_width",
         "lattice_width_empty", "lattice_row_width"],
)
def test_bad_arguments_raise_invalid_parameters(call):
    # argument checks raise instead of asserting, so `python -O` keeps them
    with pytest.raises(InvalidParameters):
        call()


def test_in_span_examples():
    assert span_of(frac_rows([[1, 0], [0, 1]]), 2).contains([1, 1])
    assert not span_of(frac_rows([[0, 1]]), 2).contains([1, 0])
    assert span_of(frac_rows([[1, 2]]), 2).contains([3, 6])


frac_matrix = st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
             min_size=4, max_size=4),
    min_size=1,
    max_size=5,
)


@given(frac_matrix)
def test_rref_idempotent(rows):
    # the basis is the reduced echelon form, only in insertion order
    sb = span_of(frac_rows(rows), 4)
    reduced, rank, _ = rref_rows(frac_rows(rows))
    assert sb.rank == rank
    assert [row for _, row in sorted(zip(sb.pivots, sb.rows))] == reduced[:rank]
    again = span_of(sb.rows, 4)
    assert again.rows == sb.rows


@given(frac_matrix)
def test_span_basis_matches_rref(rows):
    rows = frac_rows(rows)
    _, rank, _ = rref_rows(rows)
    sb = span_of(rows, 4)
    assert sb.rank == rank
    for r in rows:
        assert sb.contains(r)


@given(frac_matrix, st.lists(st.fractions(min_value=-3, max_value=3,
                                          max_denominator=3),
                             min_size=4, max_size=4))
def test_in_span_agrees_with_rank_growth(rows, v):
    rows = frac_rows(rows)
    v = [Fraction(x) for x in v]
    _, rank, _ = rref_rows(rows)
    _, rank_aug, _ = rref_rows(rows + [v])
    assert span_of(rows, 4).contains(v) == (rank == rank_aug)
