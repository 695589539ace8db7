"""The integer CycNumber and int-vector SpanBasis against their Fraction
references: the Fraction CycNumber they replaced (cyc_reference.RefCyc)
and SpanBasis run on Fraction vectors."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from bct import exact_arith
from bct.admissibility import Collection, classify_orbits, collection
from bct.exact_arith import CycNumber, SpanBasis, euler_phi, zeta
from bct.reflection_groups import build_imprimitive, packaged_group
from cyc_reference import RefCyc

REF_ORDERS = [1, 4, 12, 15, 17]

small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def twins(draw, n):
    """One value of Q(zeta_n), written at a random divisor order of n, as
    (CycNumber, RefCyc)."""
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    coeffs = draw(st.lists(small_fracs, min_size=euler_phi(d), max_size=euler_phi(d)))
    return CycNumber(d, coeffs), RefCyc(d, coeffs)


def assert_same(x, ref):
    assert x.order == ref.order
    assert x.coeffs == ref.coeffs
    assert repr(x) == repr(ref)
    assert str(x) == str(ref)
    assert x.to_json() == ref.to_json()
    assert all(type(c) is int for c in x.nums)
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *x.nums) == 1


@pytest.mark.parametrize("n", REF_ORDERS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_cyc_numbers_match_the_fraction_reference(n, data):
    (x, rx), (y, ry) = data.draw(twins(n)), data.draw(twins(n))
    q = data.draw(small_fracs)
    unit = data.draw(st.sampled_from([a for a in range(1, n + 1) if gcd(a, n) == 1]))
    for got, want in (
        (x, rx),
        (x + y, rx + ry),
        (x - y, rx - ry),
        (x * y, rx * ry),
        (-x, -rx),
        (x + q, rx + q),
        (x * q, rx * q),
        (x.conj(), rx.conj()),
        (x.galois(unit), rx.galois(unit)),
    ):
        assert_same(got, want)
    if ry:
        assert_same(y.inv(), ry.inv())
    assert (x == y) is (rx == ry)
    assert (x == q) is (rx == q)
    if x == y:
        assert hash(x) == hash(y)
    if x.order == 1:
        assert hash(x) == hash(rx) == hash(x.coeffs[0])


def test_cyc_arithmetic_builds_no_fraction(monkeypatch):
    values = [
        zeta(12) + Fraction(1, 3),
        zeta(15, 2) * Fraction(-2, 5),
        CycNumber.rational(Fraction(3, 7)),
        zeta(4),
        zeta(5, 3) - 2,
    ]

    def run():
        for x in values:
            for y in values:
                x + y, x - y, x * y, x * 3, 2 - x, x == y
            if x:
                x.inv(), 1 / x
            x.conj(), x.galois(7), -x

    run()  # the subfield transforms of each order are set up once, in Fractions

    class Refused(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("CycNumber arithmetic built a Fraction")

    monkeypatch.setattr(exact_arith, "Fraction", Refused)
    run()


int_rows = st.lists(
    st.lists(st.integers(-4, 4), min_size=5, max_size=5), min_size=1, max_size=6
)


def fractions_of(v):
    return [Fraction(x) for x in v]


def assert_no_float(values):
    assert all(type(x) in (int, Fraction) for x in values)


@given(int_rows, st.lists(st.integers(-4, 4), min_size=5, max_size=5))
def test_int_span_basis_matches_the_fraction_reference(rows, v):
    got, ref = SpanBasis(5), SpanBasis(5)
    for row in rows:
        assert got.add(row) is ref.add(fractions_of(row))
    for row in got.rows:
        assert_no_float(row)
    assert got.rank == ref.rank
    assert got.rows == ref.rows
    assert got.contains(v) is ref.contains(fractions_of(v))
    for i in range(5):
        unit = [int(j == i) for j in range(5)]
        residue = got.reduce(unit)
        assert_no_float(residue)
        assert residue == ref.reduce(fractions_of(unit))


@pytest.mark.parametrize(
    "build",
    [
        lambda: packaged_group("g4"),
        lambda: packaged_group("g23"),
        lambda: build_imprimitive(3, 1, 3),
        lambda: build_imprimitive(4, 2, 3),
    ],
    ids=["g4", "g23", "G(3,1,3)", "G(4,2,3)"],
)
def test_workspace_classes_match_the_fraction_reference(build):
    G = build()
    for rec in classify_orbits(G):
        ws = Collection(G, rec.orbit.representative)
        ref = SpanBasis(ws.nrefl + 1)
        for vec in ws.span.rows:
            assert_no_float(vec)
        for vec in collection(G, ws.B).rel_bar_vectors:
            ref.add(fractions_of(vec))
        want = {}
        for i in range(ws.nrefl + 1):
            unit = fractions_of(int(j == i) for j in range(ws.nrefl + 1))
            want.setdefault(tuple(ref.reduce(unit)), []).append(i)
        got = ws.classes
        for residue in got:
            assert_no_float(residue)
        assert list(got.items()) == list(want.items())
        assert ws.span.rank == ref.rank
