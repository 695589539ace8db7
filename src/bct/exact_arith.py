"""Exact arithmetic: cyclotomic numbers, integer Laurent polynomials, linear
algebra over exact fields, and integer-lattice membership through a
row-echelon Hermite basis.

Everything is exact.  Field scalars are ints, Fractions or CycNumbers; the
Laurent polynomials that carry module operators have int coefficients,
lattice work uses arbitrary-precision integers, and no floating point
appears anywhere.

A CycNumber holds one integer value representation, the (numerators, den)
field values of _CycContext, at the smallest order able to express it: so
definitions, digests, repr and every value a caller sees do not depend on
how they were computed, and bulk work in one field (a matrix group's
closure and hyperplane scan) runs on the same values without conversion.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .errors import (
    DivisionByZero,
    InternalInconsistency,
    InvalidParameters,
)

__all__ = [
    "CycNumber",
    "zeta",
    "LaurentScalar",
    "SpanBasis",
    "z_span_test",
    "euler_phi",
    "cyclotomic_polynomial",
]

# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-order reduction data


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise InvalidParameters(f"euler_phi needs n >= 1, got {n}")
    # n * prod(1 - 1/p) over the primes p dividing n, exact at each step
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out, m, k = [], n, 2
    while k * k <= m:
        if m % k == 0:
            out.append(k)
            while m % k == 0:
                m //= k
        k += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # quotient over Z; the remainder must vanish
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        if c % lead:
            raise InternalInconsistency("inexact polynomial division")
        f = c // lead
        quot[i - dd] = f
        for j, d in enumerate(den):
            num[i - dd + j] -= f * d
    if any(num):
        raise InternalInconsistency("polynomial division leaves a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [0] * (n + 1)
    poly[0], poly[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    if len(poly) != euler_phi(n) + 1:
        raise InternalInconsistency(f"cyclotomic polynomial {n} has wrong degree")
    return tuple(poly)


class _CycContext:
    """The field Q(zeta_n), built once and cached: reduction data, and
    integer arithmetic on values (numerators, den), phi ints on the power
    basis over one den > 0 with gcd(content, den) = 1, so that equality and
    hashing are tuple operations.  A value keeps order n; of and cyc convert
    from and to canonical CycNumbers, which hold the same pair."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        cp = cyclotomic_polynomial(n)
        if cp[-1] != 1:
            raise InternalInconsistency(f"cyclotomic polynomial {n} is not monic")
        # x^phi = -(cp[0] + cp[1] x + ... + cp[phi-1] x^{phi-1})
        top = tuple(-c for c in cp[:-1])
        pows = [
            tuple(1 if i == k else 0 for i in range(self.phi))
            for k in range(self.phi)
        ]
        for _ in range(self.phi, max(n, 2 * self.phi - 1)):
            prev = pows[-1]
            shifted = list((0,) + prev[:-1])
            carry = prev[-1]
            if carry:
                for t in range(self.phi):
                    shifted[t] += carry * top[t]
            pows.append(tuple(shifted))
        self.pows = pows  # x^k reduced mod Phi_n, 0 <= k < max(n, 2 phi - 1)
        self._descent: dict[int, tuple] = {}
        self.zero = ((0,) * self.phi, 1)
        self.one = (pows[0], 1)

    def times(self, a, b):
        """Product of two coefficient vectors reduced mod Phi_n, over any
        exact coefficients."""
        phi = self.phi
        out = [0] * phi
        pows = self.pows
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj and i + j < phi:
                        out[i + j] += ai * bj
                    elif bj:
                        c = ai * bj
                        for t, r in enumerate(pows[i + j]):
                            if r:
                                out[t] += c * r
        return tuple(out)

    def spread(self, coeffs, k: int):
        """sum_i coeffs[i] zeta^(k i): the lift of an order-(n/k) vector for
        k | n, the image under zeta -> zeta^k for k a unit."""
        out = [0] * self.phi
        for i, c in enumerate(coeffs):
            if c:
                for t, r in enumerate(self.pows[k * i % self.n]):
                    if r:
                        out[t] += c * r
        return tuple(out)

    # -- the field: (numerators, den) pairs ----------------------------------

    @staticmethod
    def _value(nums, den):
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g == 1:
            return tuple(nums), den
        return tuple(c // g for c in nums), den // g

    def of(self, x: "CycNumber"):
        """The field value of x; x must lie in Q(zeta_n).  Z[zeta_n] meets
        Q(zeta_m) in Z[zeta_m], so the lift keeps gcd(content, den) = 1."""
        if self.n % x.order:
            raise InvalidParameters(f"{x} does not lie in Q(zeta_{self.n})")
        if x.order == self.n:
            return x.nums, x.den
        return self.spread(x.nums, self.n // x.order), x.den

    def cyc(self, a) -> "CycNumber":
        """The canonical CycNumber of the field value a."""
        return _cyc(self.n, *a)

    def mul(self, a, b):
        return self._value(self.times(a[0], b[0]), a[1] * b[1])

    def add(self, a, b):
        (x, d), (y, e) = a, b
        if d == e:
            return self._value([u + v for u, v in zip(x, y)], d)
        return self._value([u * e + v * d for u, v in zip(x, y)], d * e)

    def sub(self, a, b):
        return self.add(a, (tuple(-c for c in b[0]), b[1]))

    def conj(self, a):
        """Complex conjugate: zeta -> zeta^-1 maps Z[zeta] onto itself, so
        it keeps the content and the normal form."""
        return self.spread(a[0], self.n - 1), a[1]

    def inv(self, a):
        """a^-1 = prod_{k != 1} sigma_k(a) / N(a), through the norm N."""
        nums, den = a
        if not any(nums):
            raise DivisionByZero("inverse of zero")
        rest = self.one[0]
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                rest = self.times(rest, self.spread(nums, k))
        norm = self.times(nums, rest)
        if any(norm[1:]) or not norm[0]:
            raise InternalInconsistency(f"norm of {a} is not a nonzero rational")
        return self._value([c * den for c in rest], norm[0])

    def descent(self, p: int):
        """(m, D, head, tail) for m = n/p: integer rows, sparse as (column,
        entry) pairs.  An element x lies in Q(zeta_m) iff every tail row
        kills x, and then the head rows give D times its order-m vector.
        Both come from the span of the rows (zeta_m^j, -e_j), zeta_m^j in
        the order-n basis: (x, 0) reduces to (0, y) exactly when x is
        sum_j y_j zeta_m^j."""
        if p not in self._descent:
            m = self.n // p
            phi_m = euler_phi(m)
            span = SpanBasis(self.phi + phi_m)
            for j in range(phi_m):
                tag = tuple(-int(t == j) for t in range(phi_m))
                span.add(self.pows[p * j % self.n] + tag)
            if max(span.pivots) >= self.phi:
                raise InternalInconsistency(f"subfield basis of order {m} is singular")
            cols = [span.reduce(self.pows[i] + (0,) * phi_m) for i in range(self.phi)]
            D = lcm(*(x.denominator for col in cols for x in col))
            rows = [
                tuple((i, int(col[r] * D)) for i, col in enumerate(cols) if col[r])
                for r in range(self.phi + phi_m)
            ]
            tail = [rows[r] for r in range(self.phi) if r not in span.pivots]
            self._descent[p] = (m, D, tuple(rows[self.phi :]), tuple(tail))
        return self._descent[p]


@lru_cache(maxsize=None)
def _context(n: int) -> _CycContext:
    return _CycContext(n)


# ---------------------------------------------------------------------------
# cyclotomic numbers


def _new(order, nums, den) -> "CycNumber":
    out = object.__new__(CycNumber)
    _set = object.__setattr__
    _set(out, "order", order)
    _set(out, "nums", nums)
    _set(out, "den", den)
    return out


def _cyc(order, nums, den, descend=True) -> "CycNumber":
    """The CycNumber nums/den of Q(zeta_order), den > 0, at the smallest
    order able to express it unless descend is False (the caller knows
    the order is smallest already)."""
    if descend and order > 1:
        if not any(nums):
            return _new(1, (0,), 1)
        while order > 1:
            ctx = _context(order)
            for p in _prime_factors(order):
                m, D, head, tail = ctx.descent(p)
                if any(sum(c * nums[j] for j, c in row) for row in tail):
                    continue
                nums = [sum(c * nums[j] for j, c in row) for row in head]
                order, den = m, den * D
                break
            else:
                break
    return _new(order, *_CycContext._value(nums, den))


def _operand(x):
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, (int, Fraction)):
        return _new(1, (x.numerator,), x.denominator)
    return None


def _lift(x, y):
    """(order, nums of x, nums of y) in the smallest cyclotomic field
    holding both."""
    if x.order == y.order:
        return x.order, x.nums, y.nums
    n = lcm(x.order, y.order)
    ctx = _context(n)
    return n, ctx.spread(x.nums, n // x.order), ctx.spread(y.nums, n // y.order)


class CycNumber:
    """Element of Q(zeta_n): integers nums on the power basis 1, zeta, ...,
    zeta^{phi(n)-1} over one denominator den > 0 with gcd(den, *nums) = 1,
    the field values of _CycContext.

    Instances are canonical: the stored order is the smallest cyclotomic order
    able to express the value, so equality and hashing reduce to plain tuple
    comparison.  Arithmetic runs on the integers; coeffs, the Fraction view,
    is read only to print and serialize.  All operations return new objects.
    """

    __slots__ = ("order", "nums", "den")

    def __new__(cls, order, coeffs):
        coeffs = tuple(map(Fraction, coeffs))
        if len(coeffs) != euler_phi(order):
            raise InvalidParameters(
                f"order {order} needs {euler_phi(order)} coefficients"
            )
        den = lcm(*(c.denominator for c in coeffs))
        return _cyc(order, [c.numerator * (den // c.denominator) for c in coeffs], den)

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    @classmethod
    def rational(cls, q) -> "CycNumber":
        return _operand(q if isinstance(q, (int, Fraction)) else Fraction(q))

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- arithmetic ---------------------------------------------------------

    def _sum(self, other, sign):
        other = _operand(other)
        if other is None:
            return NotImplemented
        n, a, b = _lift(self, other)
        d, e = sign * self.den, other.den
        nums = [x * e + y * d for x, y in zip(a, b)]
        # a rational term leaves the other one's order as it is
        return _cyc(n, nums, self.den * e, descend=1 not in (self.order, other.order))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, tuple(-c for c in self.nums), self.den)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        den = self.den * other.den
        if other.order == 1 or self.order == 1:
            # a nonzero rational factor keeps the other one's order
            q, x = (other, self) if other.order == 1 else (self, other)
            if not q.nums[0]:
                return q
            return _cyc(x.order, [q.nums[0] * c for c in x.nums], den, descend=False)
        n, a, b = _lift(self, other)
        return _cyc(n, _context(n).times(a, b), den)

    __rmul__ = __mul__

    def inv(self) -> "CycNumber":
        # Q(x) = Q(1/x), so the inverse keeps the smallest order
        ctx = _context(self.order)
        return _new(self.order, *ctx.inv((self.nums, self.den)))

    def __truediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out = CycNumber.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def galois(self, a: int) -> "CycNumber":
        """Image under the field automorphism zeta -> zeta^a, gcd(a, order) = 1.

        It maps Z[zeta] and every subfield onto itself, so it keeps the
        smallest order and the content."""
        n = self.order
        if gcd(a, n) != 1:
            raise InvalidParameters(f"zeta -> zeta^{a} is no automorphism of order {n}")
        return _new(n, _context(n).spread(self.nums, a % n), self.den)

    def conj(self) -> "CycNumber":
        """Complex conjugate."""
        return self.galois(self.order - 1) if self.order > 1 else self

    # -- comparisons --------------------------------------------------------

    def __bool__(self):
        # zero is canonical only at order 1
        return self.order > 1 or self.nums[0] != 0

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return (self.nums, self.den, self.order) == (other.nums, other.den, other.order)

    def __hash__(self):
        if self.order > 1:
            return hash((self.order, self.nums, self.den))
        # equal to the hash of the same int or Fraction
        return hash(Fraction(self.nums[0], self.den) if self.den > 1 else self.nums[0])

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

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, d: dict) -> "CycNumber":
        return cls(d["order"], d["coeffs"])


def zeta(n: int, k: int = 1) -> CycNumber:
    """The root of unity e^{2 pi i k / n}."""
    return _cyc(n, _context(n).pows[k % n], 1)


# ---------------------------------------------------------------------------
# Laurent coefficients


def _laurent(nvars: int, terms: dict) -> "LaurentScalar":
    """A LaurentScalar over terms already clean: int coefficients, none
    zero, exponent tuples of length nvars."""
    out = object.__new__(LaurentScalar)
    _set = object.__setattr__
    _set(out, "nvars", nvars)
    _set(out, "terms", terms)
    return out


class LaurentScalar:
    """Sparse Laurent polynomial with integer coefficients.

    Terms map integer exponent tuples to nonzero ints.  Slot 0 of every
    tuple is the delta exponent; the remaining slots are the
    per-reflection-class parameters.  Negative exponents are allowed and
    zero coefficients are never stored, so equality is plain dict equality.
    A coefficient that is not an int (a Fraction or a CycNumber included)
    is refused: the operators of induced permutation modules never need
    one.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        if terms:
            for exps, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"Laurent coefficients are integers, not {c!r}")
                if c:
                    exps = tuple(exps)
                    if len(exps) != nvars:
                        raise InternalInconsistency(
                            f"exponent tuple {exps} in a ring of {nvars} variables"
                        )
                    clean[exps] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentScalar is immutable")

    @classmethod
    def one(cls, nvars: int) -> "LaurentScalar":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    @lru_cache(maxsize=None)
    def variable(cls, nvars: int, slot: int, power: int = 1) -> "LaurentScalar":
        """One shared object per variable, so operator entries of equal
        value are one object and operator equality is mostly identity."""
        exps = [0] * nvars
        exps[slot] = power
        return cls(nvars, {tuple(exps): 1})

    def _same_ring(self, other):
        if other.nvars != self.nvars:
            raise InternalInconsistency(
                f"Laurent scalars over {self.nvars} and {other.nvars} variables"
            )

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        self._same_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return _laurent(self.nvars, terms)

    def __neg__(self):
        return _laurent(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _laurent(self.nvars, {})
            return _laurent(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        self._same_ring(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return _laurent(self.nvars, {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def shift(self, slot: int, power: int = 1) -> "LaurentScalar":
        """The product with variable `slot` raised to `power`: every
        exponent tuple moves by `power` in that slot, and no coefficient
        changes."""
        return _laurent(
            self.nvars,
            {
                e[:slot] + (e[slot] + power,) + e[slot + 1 :]: c
                for e, c in self.terms.items()
            },
        )

    def __repr__(self):
        if not self.terms:
            return "LaurentScalar(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            names = []
            for slot, e in enumerate(exps):
                if e == 0:
                    continue
                name = "d" if slot == 0 else f"m{slot}"
                names.append(name if e == 1 else f"{name}^{e}")
            mono = "*".join(names) if names else "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# linear algebra over exact fields


def _div(x, d):
    """x / d, exact on int input too: an int when d divides x, else a
    Fraction, never a float."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    return x / d


class SpanBasis:
    """Grow-only reduced echelon basis over Fractions, CycNumbers, or ints
    (which stay ints where pivots divide); add() reports whether the span
    grew."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def reduce(self, v):
        v = list(v)
        if len(v) != self.ncols:
            raise InvalidParameters(f"vector of length {len(v)}, span of {self.ncols}")
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def add(self, v) -> bool:
        v = self.reduce(v)
        p = None
        for i, x in enumerate(v):
            if x:
                p = i
                break
        if p is None:
            return False
        lead = v[p]
        if lead != 1:
            v = [_div(x, lead) for x in v]
        for i, row in enumerate(self.rows):
            f = row[p]
            if f:
                self.rows[i] = [x - f * y for x, y in zip(row, v)]
        self.rows.append(v)
        self.pivots.append(p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# integer lattices


def z_span_test(L, ncols: int):
    """The membership test of the integer span of the rows L, each of
    length ncols: a function v -> bool, true when v is an integer
    combination of the rows.

    A row-echelon Hermite basis of L is built once, one row per pivot
    column (the column of its first nonzero entry): each row of L is
    walked along the pivots and merged into the basis row at each one by
    the extended Euclidean algorithm run on the two rows, whose steps are
    unimodular, and becomes a new basis row at the first free pivot
    column.  v is a member exactly when reducing it by the basis rows in
    pivot order finds every pivot entry divisible and leaves zero.
    """
    basis = {}
    for row in L:
        v = [int(x) for x in row]
        if len(v) != ncols:
            raise InvalidParameters(f"lattice row of length {len(v)}, width {ncols}")
        for p in range(ncols):
            if not v[p]:
                continue
            b = basis.get(p)
            if b is None:
                basis[p] = v
                break
            while v[p]:
                q = b[p] // v[p]
                b, v = v, [s - q * t for s, t in zip(b, v)]
            basis[p] = b
    pivots = sorted(basis.items())

    def member(v):
        v = [int(x) for x in v]
        if len(v) != ncols:
            raise InvalidParameters(f"vector of length {len(v)}, lattice of width {ncols}")
        for p, row in pivots:
            q, r = divmod(v[p], row[p])
            if r:
                return False
            if q:
                v = [s - q * t for s, t in zip(v, row)]
        return not any(v)

    return member
