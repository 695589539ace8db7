"""The integer Laurent ring that carries the operators of induced modules."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct.errors import InternalInconsistency
from bct.exact_arith import LaurentScalar, zeta

NV = 3
ZERO = LaurentScalar(NV)
ONE = LaurentScalar.one(NV)

exponents = st.tuples(*[st.integers(-3, 3)] * NV)
scalars = st.dictionaries(exponents, st.integers(-4, 4), max_size=4).map(
    lambda terms: LaurentScalar(NV, terms)
)


def no_zero_terms(x):
    return all(type(c) is int and c != 0 for c in x.terms.values())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a and a + ZERO == a
    assert a - a == ZERO and not (a - a)
    assert a * 3 == a + a + a and 2 * a == a + a and a * 0 == ZERO
    for x in (a, b, a + b, a * b, a - b, a * b + c, -a):
        assert no_zero_terms(x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars, st.integers(0, NV - 1), st.integers(-3, 3))
def test_shift_is_multiplication_by_a_variable(a, slot, power):
    assert a.shift(slot, power) == a * LaurentScalar.variable(NV, slot, power)
    assert no_zero_terms(a.shift(slot, power))


def test_negative_exponents():
    d = LaurentScalar.variable(NV, 0)
    d_inv = LaurentScalar.variable(NV, 0, -1)
    assert d * d_inv == ONE
    assert (d_inv * d_inv).terms == {(-2, 0, 0): 1}
    assert d_inv.shift(0, 2) == d
    mu = LaurentScalar.variable(NV, 2, -1)
    assert (d * mu).terms == {(1, 0, -1): 1}


def test_zero_terms_never_stored():
    x = LaurentScalar(NV, {(0, 0, 0): 0, (1, 0, 0): 2})
    assert x.terms == {(1, 0, 0): 2}
    d = LaurentScalar.variable(NV, 0)
    assert (d + -d).terms == {}
    # the cross terms of (d + 1)(d - 1) cancel and leave nothing behind
    assert ((d + ONE) * (d - ONE)).terms == {(2, 0, 0): 1, (0, 0, 0): -1}


def test_non_integer_coefficients_rejected():
    for c in (Fraction(1, 2), Fraction(1), zeta(3)):
        with pytest.raises(TypeError):
            LaurentScalar(NV, {(0, 0, 0): c})
    with pytest.raises(TypeError):
        ONE * Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * ONE


def test_rings_of_different_size_do_not_mix():
    with pytest.raises(InternalInconsistency):
        LaurentScalar(2, {(0, 0, 0): 1})
    with pytest.raises(InternalInconsistency):
        LaurentScalar.one(2) + LaurentScalar.one(3)
    with pytest.raises(InternalInconsistency):
        LaurentScalar.one(2) * LaurentScalar.one(3)
