"""The Fraction CycNumber that the integer one in exact_arith replaced,
kept as a test reference: coefficients are Fractions, and every sum and
product descends to its smallest order through Fraction row products with
the subfield transforms L of the power basis.  Inverses come from a
phi x phi Fraction solve of x * y = 1 instead of the norm.  rref_rows is
the full Fraction row reduction behind both, and the reference of the
SpanBasis tests."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from bct.exact_arith import _context, _prime_factors, euler_phi

_ZERO = Fraction(0)


def rref_rows(rows, limit_cols=None):
    """Row-reduce a copy over any exact field (Fraction or CycNumber).

    Returns (rows, rank, pivots) with every input row kept, the first rank
    of them nonzero; pivoting is restricted to the first limit_cols columns
    when given, so augmented tapes survive untouched: the full row
    reduction that SpanBasis and the subfield descent are tested against.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, 0, []
    ncols = len(rows[0]) if limit_cols is None else limit_cols
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, r, pivots


@lru_cache(maxsize=None)
def descent(n, p):
    """(m, phi_m, L) with L * E = [I; 0], the columns of E the basis powers
    of zeta_m, m = n/p, in the order-n basis."""
    ctx = _context(n)
    m = n // p
    phi_m = euler_phi(m)
    cols = [ctx.pows[(p * j) % n] for j in range(phi_m)]
    rows = [
        [Fraction(cols[j][i]) for j in range(phi_m)]
        + [Fraction(int(t == i)) for t in range(ctx.phi)]
        for i in range(ctx.phi)
    ]
    reduced, rank, pivots = rref_rows(rows, limit_cols=phi_m)
    assert rank == phi_m and pivots == list(range(phi_m))
    return m, phi_m, [tuple(r[phi_m:]) for r in reduced]


def canonical_pair(order, coeffs):
    # smallest order able to express the value
    while order > 1:
        for p in _prime_factors(order):
            m, phi_m, L = descent(order, p)
            z = [
                sum((r * c for r, c in zip(row, coeffs) if r and c), _ZERO)
                for row in L
            ]
            if any(z[phi_m:]):
                continue
            order, coeffs = m, tuple(z[:phi_m])
            break
        else:
            break
    return order, coeffs


class RefCyc:
    """Canonical element of Q(zeta_n) on Fraction coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        assert len(coeffs) == euler_phi(order)
        self.order, self.coeffs = canonical_pair(order, coeffs)

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefCyc(1, (other,))
        if self.order == other.order:
            return self.order, self.coeffs, other.coeffs
        n = self.order * other.order // gcd(self.order, other.order)
        ctx = _context(n)
        a, b = (ctx.spread(x.coeffs, n // x.order) for x in (self, other))
        return n, a, b

    def __add__(self, other):
        n, a, b = self._common(other)
        return RefCyc(n, tuple(x + y for x, y in zip(a, b)))

    def __neg__(self):
        return RefCyc(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        n, a, b = self._common(other)
        return RefCyc(n, tuple(x - y for x, y in zip(a, b)))

    def __mul__(self, other):
        n, a, b = self._common(other)
        return RefCyc(n, _context(n).times(a, b))

    def inv(self):
        ctx = _context(self.order)
        phi = ctx.phi
        rows = [[_ZERO] * phi + [Fraction(int(i == 0))] for i in range(phi)]
        for j in range(phi):
            col = ctx.times(self.coeffs, tuple(int(t == j) for t in range(phi)))
            for i in range(phi):
                rows[i][j] = Fraction(col[i])
        reduced, rank, _ = rref_rows(rows, limit_cols=phi)
        if rank != phi:
            raise ZeroDivisionError("inverse of zero")
        return RefCyc(self.order, tuple(reduced[j][phi] for j in range(phi)))

    def galois(self, a):
        n = self.order
        assert gcd(a, n) == 1
        return RefCyc(n, _context(n).spread(self.coeffs, a % n))

    def conj(self):
        return self.galois(self.order - 1) if self.order > 1 else self

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs[0] == other
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        if self.order == 1:
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CycNumber({self.order}, {self.coeffs})"

    def __str__(self):
        if self.order == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            base = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
            if c == 1:
                parts.append(base)
            elif c == -1:
                parts.append(f"-{base}")
            else:
                parts.append(f"{c}*{base}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def to_json(self):
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}
