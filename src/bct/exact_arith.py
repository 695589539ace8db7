"""Exact arithmetic: cyclotomic numbers, integer Laurent polynomials, linear
algebra over exact fields, and integer-lattice membership via the Smith
normal form.

Everything is exact.  Field scalars are Fractions or CycNumbers; the Laurent
polynomials that carry module operators have int coefficients, lattice work
uses arbitrary-precision integers, and no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add

from .errors import DivisionByZero, InternalInconsistency, OrderMismatch

__all__ = [
    "CycNumber",
    "zeta",
    "LaurentScalar",
    "SpanBasis",
    "smith_normal_form",
    "z_span_member",
    "euler_phi",
    "cyclotomic_polynomial",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# cyclotomic polynomials and per-order reduction data


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    assert n >= 1
    result, m, k = n, n, 2
    while k * k <= m:
        if m % k == 0:
            while m % k == 0:
                m //= k
            result -= result // k
        k += 1
    if m > 1:
        result -= result // m
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
    # quotient over Z, asserting the remainder vanishes
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        f = c // lead
        quot[i - dd] = f
        for j, d in enumerate(den):
            num[i - dd + j] -= f * d
    assert all(c == 0 for c in num)
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
    assert len(poly) == euler_phi(n) + 1
    return tuple(poly)


class _CycContext:
    """Reduction data for one cyclotomic order, built once and cached."""

    def __init__(self, n: int):
        self.n = n
        self.phi = euler_phi(n)
        cp = cyclotomic_polynomial(n)
        assert cp[-1] == 1
        # x^phi = -(cp[0] + cp[1] x + ... + cp[phi-1] x^{phi-1})
        top = tuple(Fraction(-c) for c in cp[:-1])
        pows = [
            tuple(_ONE if i == k else _ZERO for i in range(self.phi))
            for k in range(self.phi)
        ]
        for _ in range(self.phi, max(n, 2 * self.phi - 1)):
            prev = pows[-1]
            shifted = list((_ZERO,) + prev[:-1])
            carry = prev[-1]
            if carry:
                for t in range(self.phi):
                    if top[t]:
                        shifted[t] += carry * top[t]
            pows.append(tuple(shifted))
        self.pows = pows  # x^k reduced mod Phi_n, 0 <= k < max(n, 2 phi - 1)
        self._descent: dict[int, tuple[int, int, list[tuple[Fraction, ...]]]] = {}

    def mul(self, a, b):
        phi = self.phi
        out = [_ZERO] * phi
        pows = self.pows
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                k = i + j
                if k < phi:
                    out[k] += ai * bj
                else:
                    c = ai * bj
                    row = pows[k]
                    for t in range(phi):
                        if row[t]:
                            out[t] += c * row[t]
        return tuple(out)

    def descent(self, p: int):
        """Row transform L with L * E = [I; 0], where the columns of E are the
        basis powers of zeta_{n/p} written in the order-n basis.  An element x
        lies in the subfield iff the tail of L*x vanishes."""
        if p in self._descent:
            return self._descent[p]
        m = self.n // p
        phi_m = euler_phi(m)
        cols = [self.pows[(p * j) % self.n] for j in range(phi_m)]
        rows = []
        for i in range(self.phi):
            aug = [cols[j][i] for j in range(phi_m)]
            aug += [_ONE if t == i else _ZERO for t in range(self.phi)]
            rows.append(aug)
        reduced, rank, pivots = _rref_rows(rows, limit_cols=phi_m)
        assert rank == phi_m and pivots == list(range(phi_m))
        L = [tuple(r[phi_m:]) for r in reduced]
        self._descent[p] = (m, phi_m, L)
        return self._descent[p]


@lru_cache(maxsize=None)
def _context(n: int) -> _CycContext:
    return _CycContext(n)


def _canonical_pair(order, coeffs):
    # smallest order able to express the value
    while order > 1:
        ctx = _context(order)
        for p in _prime_factors(order):
            m, phi_m, L = ctx.descent(p)
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


# ---------------------------------------------------------------------------
# cyclotomic numbers


class CycNumber:
    """Element of Q(zeta_n) on the power basis 1, zeta, ..., zeta^{phi(n)-1}.

    Instances are canonical: the stored order is the smallest cyclotomic order
    able to express the value, so equality and hashing reduce to plain tuple
    comparison.  All operations return new objects.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs, _canonical=False):
        if not _canonical:
            coeffs = tuple(
                c if isinstance(c, Fraction) else Fraction(c) for c in coeffs
            )
            assert len(coeffs) == euler_phi(order)
            order, coeffs = _canonical_pair(order, coeffs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    @classmethod
    def rational(cls, q) -> "CycNumber":
        return cls(1, (Fraction(q),), _canonical=True)

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    def as_fraction(self) -> Fraction:
        if self.order != 1:
            raise OrderMismatch(f"not a rational number: {self}")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------------

    def _common(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.rational(other)
        elif not isinstance(other, CycNumber):
            return None
        if self.order == other.order:
            return self.order, self.coeffs, other.coeffs
        n = self.order * other.order // gcd(self.order, other.order)
        return n, _lift(self, n), _lift(other, n)

    def __add__(self, other):
        co = self._common(other)
        if co is None:
            return NotImplemented
        n, a, b = co
        if n == 1:
            return CycNumber(1, (a[0] + b[0],), _canonical=True)
        return CycNumber(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return CycNumber(
            self.order, tuple(-c for c in self.coeffs), _canonical=True
        )

    def __sub__(self, other):
        co = self._common(other)
        if co is None:
            return NotImplemented
        n, a, b = co
        if n == 1:
            return CycNumber(1, (a[0] - b[0],), _canonical=True)
        return CycNumber(n, tuple(x - y for x, y in zip(a, b)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        co = self._common(other)
        if co is None:
            return NotImplemented
        n, a, b = co
        if n == 1:
            return CycNumber(1, (a[0] * b[0],), _canonical=True)
        return CycNumber(n, _context(n).mul(a, b))

    __rmul__ = __mul__

    def inv(self) -> "CycNumber":
        if not self:
            raise DivisionByZero("inverse of zero")
        if self.order == 1:
            return CycNumber(1, (1 / self.coeffs[0],), _canonical=True)
        ctx = _context(self.order)
        phi = ctx.phi
        # solve (self * x) = 1 on the power basis
        rows = []
        for i in range(phi):
            rows.append([_ZERO] * phi + [_ONE if i == 0 else _ZERO])
        for j in range(phi):
            basis_j = tuple(_ONE if t == j else _ZERO for t in range(phi))
            col = ctx.mul(self.coeffs, basis_j)
            for i in range(phi):
                rows[i][j] = col[i]
        reduced, rank, pivots = _rref_rows(rows, limit_cols=phi)
        assert rank == phi
        return CycNumber(self.order, tuple(reduced[j][phi] for j in range(phi)))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNumber.rational(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return self * other.inv()

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
        """Image under the field automorphism zeta -> zeta^a, gcd(a, order) = 1."""
        n = self.order
        if n == 1:
            return self
        a %= n
        assert gcd(a, n) == 1
        ctx = _context(n)
        out = [_ZERO] * ctx.phi
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            row = ctx.pows[(a * i) % n]
            for t in range(ctx.phi):
                if row[t]:
                    out[t] += c * row[t]
        return CycNumber(n, tuple(out))

    def conj(self) -> "CycNumber":
        """Complex conjugate."""
        return self.galois(self.order - 1) if self.order > 1 else self

    # -- comparisons --------------------------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and self.coeffs[0] == other
        if not isinstance(other, CycNumber):
            return NotImplemented
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

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, d: dict) -> "CycNumber":
        return cls(d["order"], tuple(Fraction(c) for c in d["coeffs"]))


def _lift(x: CycNumber, n: int):
    # raw coefficient vector of x in the order-n basis (no canonicalization)
    ctx = _context(n)
    step = n // x.order
    out = [_ZERO] * ctx.phi
    for i, c in enumerate(x.coeffs):
        if not c:
            continue
        row = ctx.pows[(i * step) % n]
        for t in range(ctx.phi):
            if row[t]:
                out[t] += c * row[t]
    return tuple(out)


def zeta(n: int, k: int = 1) -> CycNumber:
    """The root of unity e^{2 pi i k / n}."""
    ctx = _context(n)
    return CycNumber(n, ctx.pows[k % n])


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
    def variable(cls, nvars: int, slot: int, power: int = 1) -> "LaurentScalar":
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


def _rref_rows(rows, limit_cols=None):
    """Row-reduce a copy over any exact field (Fraction or CycNumber).

    Returns (rows, rank, pivots) with every input row kept, the first rank
    of them nonzero; pivoting is restricted to the first limit_cols columns
    when given, so augmented tapes survive untouched.  The augmented solver
    behind CycNumber.inv and _CycContext.descent; rank and membership
    questions go through SpanBasis.
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


class SpanBasis:
    """Grow-only reduced echelon basis; add() reports whether the span grew."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list] = []
        self.pivots: list[int] = []

    def reduce(self, v):
        v = list(v)
        assert len(v) == self.ncols
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
            v = [x / lead for x in v]
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


def smith_normal_form(A):
    """Smith normal form of an integer matrix.

    Returns (S, D, T) with S (m x m) and T (n x n) unimodular, S*A*T = D
    diagonal, and the diagonal a divisibility chain d1 | d2 | ...  Pivots are
    chosen by minimal absolute value to keep the intermediate entries small.
    """
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    S = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, k, q):  # row i -= q * row k
        Mi, Mk = M[i], M[k]
        for j in range(n):
            Mi[j] -= q * Mk[j]
        Si, Sk = S[i], S[k]
        for j in range(m):
            Si[j] -= q * Sk[j]

    def col_sub(j, k, q):  # col j -= q * col k
        for i in range(m):
            M[i][j] -= q * M[i][k]
        for i in range(n):
            T[i][j] -= q * T[i][k]

    for t in range(min(m, n)):
        while True:
            piv = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = M[i][j]
                    if v and (best is None or abs(v) < best):
                        best = abs(v)
                        piv = (i, j)
            if piv is None:
                break
            pi, pj = piv
            if pi != t:
                M[t], M[pi] = M[pi], M[t]
                S[t], S[pi] = S[pi], S[t]
            if pj != t:
                for row in M:
                    row[t], row[pj] = row[pj], row[t]
                for row in T:
                    row[t], row[pj] = row[pj], row[t]
            if M[t][t] < 0:
                for j in range(n):
                    M[t][j] = -M[t][j]
                for j in range(m):
                    S[t][j] = -S[t][j]
            d = M[t][t]
            dirty = False
            for i in range(t + 1, m):
                if M[i][t]:
                    q = M[i][t] // d
                    if q:
                        row_sub(i, t, q)
                    if M[i][t]:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if M[t][j]:
                    q = M[t][j] // d
                    if q:
                        col_sub(j, t, q)
                    if M[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot divides every remaining entry, or we merge a bad row in
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if M[i][j] % d:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)
        if M[t][t] == 0:
            break

    D = tuple(tuple(row) for row in M)
    return (
        tuple(tuple(row) for row in S),
        D,
        tuple(tuple(row) for row in T),
    )


def z_span_member(v, L) -> bool:
    """Is v an integer combination of the vectors in L?

    Via the Smith form of the matrix with rows L: with S*A*T = D of rank r,
    membership means (v*T) vanishes beyond position r and d_i | (v*T)_i below.
    """
    L = [[int(x) for x in row] for row in L]
    v = [int(x) for x in v]
    if not L:
        return not any(v)
    n = len(L[0])
    assert len(v) == n and all(len(row) == n for row in L)
    mrows = len(L)
    _, D, T = smith_normal_form(L)
    w = [sum(v[i] * T[i][j] for i in range(n)) for j in range(n)]
    for j in range(n):
        d = D[j][j] if j < mrows else 0
        if d == 0:
            if w[j] != 0:
                return False
        elif w[j] % d != 0:
            return False
    return True
