"""Cyclotomic number arithmetic: canonical form, field ops, serialization,
and the integer field Q(zeta_N) that matrix groups compute in."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bct.errors import DivisionByZero, InvalidParameters
from bct.exact_arith import (
    CycNumber,
    _context,
    cyclotomic_polynomial,
    euler_phi,
    zeta,
)
from cyc_reference import rref_rows


def test_phi3_root():
    z = zeta(3)
    assert z * z + z + 1 == 0


def test_inverse_of_i():
    i = zeta(4)
    assert i.inv() == -i
    assert i.inv() == zeta(4, 3)
    assert i * i.inv() == 1


def test_embed_value_preserving():
    assert zeta(3) == zeta(6) ** 2 == zeta(12, 4)


def test_zero_has_no_inverse():
    with pytest.raises(DivisionByZero):
        CycNumber.rational(0).inv()


def test_canonical_form_minimizes_order():
    assert zeta(6).order == 3
    assert zeta(6) == 1 + zeta(3)
    assert zeta(4, 2).order == 1
    assert zeta(4, 2) == -1
    assert (zeta(5) ** 5).order == 1
    assert (zeta(8) * zeta(8, 7)).order == 1


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_mixed_order_arithmetic():
    a = zeta(3) * zeta(4)
    assert a.order == 12
    assert a ** 12 == 1
    assert zeta(3) + zeta(4) == zeta(4) + zeta(3)


def test_dispatcher():
    assert zeta(3) + zeta(3, 2) == -1
    assert zeta(3) * zeta(3, 2) == 1
    assert zeta(5).inv() == zeta(5, 4)
    assert (zeta(8) == zeta(8)) is True
    assert (zeta(8) == zeta(8, 3)) is False


def test_rational_interop_and_hash():
    half = CycNumber.rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert hash(half) == hash(Fraction(1, 2))
    assert half + half == 1
    assert 2 * zeta(3) - zeta(3) == zeta(3)


def test_json_round_trip():
    a = zeta(12) + 3 * zeta(12, 5) - Fraction(2, 7)
    assert CycNumber.from_json(a.to_json()) == a


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def cyc_numbers(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    coeffs = draw(
        st.lists(small_fracs, min_size=euler_phi(n), max_size=euler_phi(n))
    )
    return CycNumber(n, tuple(coeffs))


@given(cyc_numbers())
def test_mul_inverse_round_trip(a):
    if a:
        assert a * a.inv() == 1


@given(cyc_numbers(), cyc_numbers())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


@given(st.sampled_from([3, 4, 5, 7, 8, 9, 12]), st.integers(0, 30))
def test_root_of_unity_powers(n, k):
    assert zeta(n) ** k == zeta(n, k)
    assert zeta(n, k) ** n == 1


# ---------------------------------------------------------------------------
# the integer field Q(zeta_N) of _CycContext against CycNumber

FIELD_ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 17]


def rref_inverse(x):
    """The inverse by a phi x phi Fraction solve of x * y = 1 on the power
    basis: the reference for the norm-based CycNumber.inv."""
    ctx = _context(x.order)
    phi = ctx.phi
    rows = [[Fraction(0)] * phi + [Fraction(int(i == 0))] for i in range(phi)]
    for j in range(phi):
        col = ctx.times(x.coeffs, tuple(int(t == j) for t in range(phi)))
        for i in range(phi):
            rows[i][j] = Fraction(col[i])
    reduced, rank, _ = rref_rows(rows, limit_cols=phi)
    assert rank == phi
    return CycNumber(x.order, tuple(reduced[j][phi] for j in range(phi)))


@st.composite
def field_values(draw, n):
    """A value of Q(zeta_n), written at a random divisor order of n."""
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coeffs = draw(st.lists(small_fracs, min_size=euler_phi(d), max_size=euler_phi(d)))
    return CycNumber(d, tuple(coeffs))


@pytest.mark.parametrize("n", FIELD_ORDERS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_field_agrees_with_cyc_numbers(n, data):
    x, y = data.draw(field_values(n)), data.draw(field_values(n))
    F = _context(n)
    a, b = F.of(x), F.of(y)
    for v, value in ((a, x), (b, y)):
        nums, den = v
        assert den > 0 and gcd(den, *nums) == 1
        assert F.cyc(v) == value
        assert F.cyc(v).order == value.order
    assert F.cyc(F.mul(a, b)) == x * y
    assert F.cyc(F.add(a, b)) == x + y
    assert F.cyc(F.sub(a, b)) == x - y
    assert F.cyc(F.conj(a)) == x.conj()
    assert F.mul(a, b) == F.of(x * y)
    if x:
        assert F.cyc(F.inv(a)) == x.inv() == rref_inverse(x)
        assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("n", FIELD_ORDERS)
def test_field_zero_has_no_inverse(n):
    F = _context(n)
    assert F.of(CycNumber.rational(0)) == F.zero
    with pytest.raises(DivisionByZero):
        F.inv(F.zero)


def test_field_refuses_a_value_outside_it():
    with pytest.raises(InvalidParameters):
        _context(5).of(zeta(3))
    assert _context(15).of(zeta(30)) == _context(15).of(-zeta(15, 8))
