"""Integer-lattice membership, z_span_test.

The square cases are checked both ways against the exact reference: for
a nonsingular L, v lies in the integer span exactly when the Fraction
solution c of c*L = v (cyc_reference.rref_rows on the transpose) is
integral.  Rank-deficient L, whose coefficients are not unique, are
checked against combinations with coefficients in a box.
"""

from fractions import Fraction
from itertools import product

from hypothesis import assume, given, settings, strategies as st

from bct.exact_arith import z_span_test
from cyc_reference import rref_rows


def combination(coeffs, L):
    return [sum(c * row[j] for c, row in zip(coeffs, L)) for j in range(len(L[0]))]


def fraction_coefficients(L, v):
    """The unique c with c*L = v for a square L, or None when L is singular."""
    n = len(L)
    tape = [[Fraction(L[i][j]) for i in range(n)] + [Fraction(v[j])] for j in range(n)]
    reduced, rank, _ = rref_rows(tape, limit_cols=n)
    if rank < n:
        return None
    return [row[n] for row in reduced]


def test_z_span_examples():
    assert z_span_test([[1, 2]], 2)([2, 4])
    assert not z_span_test([[2, 0], [0, 2]], 2)([1, 1])
    # unique rational solution is (1/2, -1/2), so not an integer combination
    assert not z_span_test([[3, 1], [1, 3]], 2)([1, -1])


def test_snf_diag_2_3():
    """diag(2, 3) spans 2Z x 3Z, not the lattice of its Smith form diag(1, 6)."""
    member = z_span_test([[2, 0], [0, 3]], 2)
    assert member([2, 3]) and member([-4, 9])
    assert not member([1, 6]) and not member([3, 0])


def test_snf_identity():
    """The identity, its own Smith form, spans all of Z^2."""
    member = z_span_test([[1, 0], [0, 1]], 2)
    assert member([5, -7]) and member([0, 0])


def test_snf_single_entry():
    """The 1x1 matrix [[2]], its own Smith form, spans 2Z."""
    member = z_span_test([[2]], 1)
    assert member([-6]) and not member([3])


def test_z_span_empty_list():
    member = z_span_test([], 3)
    assert member([0, 0, 0])
    assert not member([1, 0, 0])


def square(n):
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    min_size=n, max_size=n)


@given(st.sampled_from([3, 4]).flatmap(
    lambda n: st.tuples(square(n), st.lists(st.integers(-6, 6), min_size=n, max_size=n))
), st.booleans())
@settings(max_examples=80)
def test_z_span_nonsingular_matches_fraction_solution(case, as_combination):
    L, v = case
    if as_combination:
        # v = c*L with integral c, so that members are drawn as often as not
        v = combination(v, L)
    coeffs = fraction_coefficients(L, v)
    assume(coeffs is not None)
    assert z_span_test(L, len(L))(v) == all(c.denominator == 1 for c in coeffs)


@st.composite
def rank_deficient(draw):
    """One to three rows of width 3 and one more that is zero, a repeat of
    one of them or a multiple of one, placed anywhere."""
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                         min_size=1, max_size=3))
    base = draw(st.sampled_from(rows))
    kind = draw(st.sampled_from(["zero", "repeated", "proportional"]))
    if kind == "zero":
        extra = [0, 0, 0]
    elif kind == "repeated":
        extra = list(base)
    else:
        extra = [draw(st.sampled_from([-3, -2, 2, 3])) * x for x in base]
    rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@given(rank_deficient(), st.data())
@settings(max_examples=40)
def test_z_span_rank_deficient_accepts_box_combinations(L, data):
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=len(L), max_size=len(L)))
    assert z_span_test(L, 3)(combination(coeffs, L))


@given(rank_deficient(), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=30)
def test_z_span_rank_deficient_refusals_have_no_box_combination(L, v):
    if not z_span_test(L, 3)(v):
        for c in product(range(-4, 5), repeat=len(L)):
            assert combination(c, L) != v


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
             min_size=3, max_size=3),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
@settings(max_examples=40)
def test_z_span_agrees_with_bounded_search(L, coeffs):
    # membership built by hand is always detected
    assert z_span_test(L, 3)(combination(coeffs, L))


@given(
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
             min_size=3, max_size=3),
    st.lists(st.integers(-4, 4), min_size=3, max_size=3),
)
@settings(max_examples=30)
def test_z_span_negative_agrees_with_box(L, v):
    # if the lattice test says no, no combination with coefficients in the
    # [-5, 5] box may exist either
    if not z_span_test(L, 3)(v):
        for c in product(range(-5, 6), repeat=3):
            assert combination(c, L) != v
