"""Complex reflection groups: the monomial three-parameter family and explicit
unitary matrix groups, with hyperplanes, orbits, stabilizers, and subgroups.

After closure a group element is an index 0..|G|-1.  Each index carries a
permutation of the finite point set P = W.{e_1, ..., e_n}: for the monomial
family P is the m*n vectors zeta^k e_i, for a matrix group it is found by
applying the generators to points.  The first n points are e_1, ..., e_n,
so the first n entries of a permutation (its frame) identify the element:
column j of its matrix is the point e_j maps to.  A product is a tuple
composition and a dictionary lookup, and the hyperplane action is one
|G| x #H table filled along a breadth-first search over the generators.

Monomial and MatrixElem are the value types of single elements, used for
generators, in tests, and by G.element(i); they are built on demand and
never stored beside the index arrays.  Monomial elements store a
permutation and an exponent vector (column l carries zeta_m^{exps[l]} in
row perm[l]); matrix elements store exact cyclotomic entries.
"""

from __future__ import annotations

import json
from importlib import resources
from itertools import permutations, product
from operator import itemgetter
from math import factorial, gcd

from .errors import (
    InternalInconsistency,
    InvalidParameters,
    InvalidRoot,
    TooLarge,
)
from .exact_arith import CycNumber, zeta

DEFAULT_CAP = 200_000
_ZERO = CycNumber.rational(0)
_ONE = CycNumber.rational(1)


# ---------------------------------------------------------------------------
# group elements


class Monomial:
    """Monomial matrix over the m-th roots of unity, in permutation form."""

    __slots__ = ("m", "perm", "exps")

    def __init__(self, m, perm, exps):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "exps", tuple(e % m for e in exps))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if other.m != self.m:
            raise InternalInconsistency("monomials over different m multiplied")
        p, a = self.perm, self.exps
        q, b = other.perm, other.exps
        n = len(p)
        return Monomial(
            self.m,
            tuple(p[q[c]] for c in range(n)),
            tuple(a[q[c]] + b[c] for c in range(n)),
        )

    def inv(self):
        n = len(self.perm)
        ip = [0] * n
        for l, t in enumerate(self.perm):
            ip[t] = l
        return Monomial(self.m, ip, tuple(-self.exps[ip[c]] for c in range(n)))

    @property
    def dim(self):
        return len(self.perm)

    def is_identity(self):
        return all(t == l for l, t in enumerate(self.perm)) and not any(self.exps)

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (
            self.m == other.m and self.perm == other.perm and self.exps == other.exps
        )

    def __hash__(self):
        return hash((self.m, self.perm, self.exps))

    def __repr__(self):
        return f"Monomial(m={self.m}, perm={self.perm}, exps={self.exps})"

    def to_matrix(self) -> "MatrixElem":
        n = len(self.perm)
        z = CycNumber.rational(0)
        rows = [[z] * n for _ in range(n)]
        for l in range(n):
            rows[self.perm[l]][l] = zeta(self.m, self.exps[l])
        return MatrixElem(rows)


class MatrixElem:
    """Square matrix with exact cyclotomic entries.

    Inverses use the Hermitian transpose; every element admitted into a group
    is checked unitary at construction time, so this is safe.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(
            tuple(
                x if isinstance(x, CycNumber) else CycNumber.rational(x) for x in row
            )
            for row in entries
        )
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InvalidParameters("matrix entries must form a square array")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixElem is immutable")

    @property
    def dim(self):
        return len(self.entries)

    def __mul__(self, other):
        if not isinstance(other, MatrixElem):
            return NotImplemented
        a, b = self.entries, other.entries
        n = len(a)
        out = []
        for i in range(n):
            row = []
            ai = a[i]
            for j in range(n):
                acc = ai[0] * b[0][j]
                for k in range(1, n):
                    acc = acc + ai[k] * b[k][j]
                row.append(acc)
            out.append(row)
        return MatrixElem(out)

    def inv(self):
        n = self.dim
        return MatrixElem(
            [[self.entries[j][i].conj() for j in range(n)] for i in range(n)]
        )

    def is_identity(self):
        n = self.dim
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def is_unitary(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                acc = CycNumber.rational(0)
                for k in range(n):
                    acc = acc + self.entries[i][k] * self.entries[j][k].conj()
                if acc != (1 if i == j else 0):
                    return False
        return True

    def trace(self):
        t = self.entries[0][0]
        for i in range(1, self.dim):
            t = t + self.entries[i][i]
        return t

    def __eq__(self, other):
        if not isinstance(other, MatrixElem):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"MatrixElem({self.dim}x{self.dim})"


def identity_matrix(n: int) -> MatrixElem:
    return MatrixElem(
        [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    )


def element_order(g) -> int:
    k, h = 1, g
    while not h.is_identity():
        h = h * g
        k += 1
        if k > 10_000:
            raise InternalInconsistency("element order exceeds 10000")
    return k


def hermitian_inner(u, v) -> CycNumber:
    """Standard Hermitian form, conjugate-linear in the second slot."""
    acc = CycNumber.rational(0)
    for x, y in zip(u, v):
        acc = acc + x * (y.conj() if isinstance(y, CycNumber) else CycNumber.rational(y))
    return acc


def reflection_from_root(root, eigenvalue) -> MatrixElem:
    """Unitary reflection fixing root-perp pointwise and scaling root by the
    eigenvalue: r(v) = v - (1 - alpha) (<v,u>/<u,u>) u."""
    u = [x if isinstance(x, CycNumber) else CycNumber.rational(x) for x in root]
    if not any(u):
        raise InvalidRoot("zero vector cannot be a root")
    alpha = (
        eigenvalue
        if isinstance(eigenvalue, CycNumber)
        else CycNumber.rational(eigenvalue)
    )
    if alpha == 1 or alpha ** (2 * alpha.order) != 1:
        raise InvalidParameters(f"eigenvalue must be a root of unity != 1: {alpha}")
    norm = hermitian_inner(u, u)
    factor = (1 - alpha) / norm
    n = len(u)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = CycNumber.rational(1 if i == j else 0)
            row.append(e - factor * u[i] * u[j].conj())
        rows.append(row)
    return MatrixElem(rows)


# ---------------------------------------------------------------------------
# breadth-first closure


def bfs(seeds, labels, step, limit=None, refuse=None):
    """Breadth-first closure of the seeds under step(state, label).

    Returns (states, tree): every state reached, in discovery order with the
    seeds first, and per state None for a seed or the pair (position of the
    state it was reached from, label) for the rest.  Reaching more than
    limit states raises the exception refuse.
    """
    states = list(seeds)
    seen = set(states)
    tree = [None] * len(states)
    k = 0
    while k < len(states):
        cur = states[k]
        for lab in labels:
            nxt = step(cur, lab)
            if nxt not in seen:
                if limit is not None and len(states) >= limit:
                    raise refuse
                seen.add(nxt)
                states.append(nxt)
                tree.append((k, lab))
        k += 1
    return states, tree


def _closure_refusal(cap: int) -> TooLarge:
    return TooLarge(f"group closure exceeds cap {cap}")


# ---------------------------------------------------------------------------
# hyperplanes and subgroups


class Hyperplane:
    """Reflecting hyperplane with its distinguished reflection and a root.

    dist_reflection is an element index.  For monomial groups, key is a
    structural tag: ("diag", i) for z_i = 0 and ("pair", i, j, k) for
    z_i = zeta^k z_j with i < j (0-based).  Matrix-group hyperplanes have
    key None and are identified by id alone.
    """

    __slots__ = ("id", "label", "key", "dist_reflection", "root", "order_m", "group")

    def __init__(self, hid, label, key, dist_reflection, root, order_m, group):
        self.id = hid
        self.label = label
        self.key = key
        self.dist_reflection = dist_reflection
        self.root = tuple(root)
        self.order_m = order_m
        self.group = group

    def __repr__(self):
        return f"Hyperplane({self.label})"


class Subgroup:
    """Subgroup given by an explicit set of element indices."""

    __slots__ = ("generators", "elements")

    def __init__(self, generators, elements):
        self.generators = tuple(generators)
        self.elements = frozenset(elements)

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.elements

    def __repr__(self):
        return f"Subgroup(order={self.order})"


# ---------------------------------------------------------------------------
# groups


class Group:
    """A concrete complex reflection group with fully enumerated elements.

    Elements are the indices 0..order-1, the identity first; perms[i] is
    the permutation of the point set carried by element i.
    """

    def __init__(
        self,
        kind,
        name,
        definition,
        dim,
        perms,
        generators,
        points=None,
        *,
        m=None,
        p=None,
        n=None,
        cyclotomic_order=None,
        provenance="paper",
    ):
        self.kind = kind
        self.name = name
        self.definition = definition
        self.dim = dim
        self.m, self.p, self.n = m, p, n
        self.cyclotomic_order = cyclotomic_order
        self.provenance = provenance
        self.order = len(perms)
        self._perms = perms
        self._points = points
        self._point_ids = None
        # the frame of a sequence: its first dim entries, as a tuple (an
        # int when dim is 1, as itemgetter returns it)
        self._frame = itemgetter(*range(dim))
        self._index = {self._frame(perm): i for i, perm in enumerate(perms)}
        if len(self._index) != self.order:
            raise InternalInconsistency("two group elements share one frame")
        self.identity = 0
        self.generators = tuple(self._index[self._frame(g)] for g in generators)
        self.reducible = kind == "imprimitive" and (m, p, n) == (2, 2, 2)
        self._hyperplanes = None
        self._reflections = None
        self._refl_index = None
        self._refl_hyp = None
        self._dist_index = None
        self._actions = None
        self._classes = None
        self._transv_table = None
        self._orbit_records = None
        self._adm_cache = {}
        self._stabilizers = {}

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"

    # -- elements -----------------------------------------------------------

    @property
    def elements(self):
        return range(self.order)

    @property
    def npoints(self) -> int:
        """Size of the point set the elements permute."""
        return len(self._perms[0])

    def mul(self, a: int, b: int) -> int:
        """Index of the product a*b: (a*b)(e_j) = a(b(e_j))."""
        return self._index[itemgetter(*self._perms[b][: self.dim])(self._perms[a])]

    def inv(self, a: int) -> int:
        pa = self._perms[a]
        return self._index[self._frame([pa.index(j) for j in range(self.dim)])]

    def conj(self, w: int, g: int) -> int:
        """Index of w g w^-1."""
        return self.mul(self.mul(w, g), self.inv(w))

    def element(self, i: int):
        """The value of element i, a Monomial or a MatrixElem, built anew."""
        frame = self._perms[i][: self.dim]
        if self.kind == "imprimitive":
            n = self.dim
            return Monomial(self.m, [x % n for x in frame], [x // n for x in frame])
        cols = [self._points[x] for x in frame]
        return MatrixElem([[col[r] for col in cols] for r in range(self.dim)])

    def index_of(self, g) -> int:
        """Index of the element with value g (a Monomial or a MatrixElem)."""
        n = self.dim
        frame = None
        if self.kind == "imprimitive":
            if isinstance(g, Monomial) and g.m == self.m and g.dim == n:
                frame = [e * n + t for t, e in zip(g.perm, g.exps)]
        elif isinstance(g, MatrixElem) and g.dim == n:
            if self._point_ids is None:
                self._point_ids = {v: x for x, v in enumerate(self._points)}
            frame = [
                self._point_ids.get(tuple(row[j] for row in g.entries))
                for j in range(n)
            ]
        i = None if frame is None else self._index.get(self._frame(frame))
        if i is None:
            raise InvalidParameters(f"{g!r} is not an element of {self.name}")
        return i

    def _trace(self, g: int):
        frame = self._perms[g][: self.dim]
        t = self._points[frame[0]][0]
        for j in range(1, self.dim):
            t = t + self._points[frame[j]][j]
        return t

    # -- reflections and hyperplanes --------------------------------------

    def _build_hyperplanes(self):
        if self._hyperplanes is not None:
            return
        if self.kind == "imprimitive":
            self._build_hyperplanes_imprimitive()
        else:
            self._build_hyperplanes_matrix()
        self._dist_index = {
            h.dist_reflection: h.id for h in self._hyperplanes
        }
        self._refl_index = {g: i for i, g in enumerate(self._reflections)}

    def _build_hyperplanes_imprimitive(self):
        m, p, n = self.m, self.p, self.n
        hyps = []
        refls = []
        refl_hyp = []
        ident = tuple(range(n))

        def add_refl(g, hid):
            refls.append(self.index_of(g))
            refl_hyp.append(hid)

        if p != m:
            for i in range(n):
                root = [CycNumber.rational(1 if l == i else 0) for l in range(n)]
                t_i = Monomial(m, ident, tuple(p if l == i else 0 for l in range(n)))
                hid = len(hyps)
                hyps.append(
                    Hyperplane(
                        hid, f"H_{i+1}", ("diag", i), self.index_of(t_i), root,
                        m // p, self,
                    )
                )
                for k in range(1, m // p):
                    add_refl(
                        Monomial(
                            m, ident, tuple(p * k if l == i else 0 for l in range(n))
                        ),
                        hid,
                    )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(m):
                    perm = list(ident)
                    perm[i], perm[j] = j, i
                    exps = [0] * n
                    exps[i], exps[j] = -k, k
                    s = Monomial(m, perm, exps)
                    root = [
                        CycNumber.rational(0) for _ in range(n)
                    ]
                    root[i] = CycNumber.rational(1)
                    root[j] = -zeta(m, -k)
                    hid = len(hyps)
                    label = f"H_{i+1},{j+1}^{k}" if m > 1 else f"H_{i+1},{j+1}"
                    hyps.append(
                        Hyperplane(
                            hid, label, ("pair", i, j, k), self.index_of(s), root,
                            2, self,
                        )
                    )
                    add_refl(s, hid)
        self._hyperplanes = hyps
        self._reflections = refls
        self._refl_hyp = refl_hyp

    def _build_hyperplanes_matrix(self):
        """Rank-1 scan: g is a reflection when g - I has rank one.  Column j
        of g - I is the point e_j maps to, minus e_j, and vanishes exactly
        when g fixes e_j; the rank is one when every nonzero column is
        proportional to the first."""
        n = self.dim
        points = self._points
        by_root = {}
        root_order = []
        for g in range(1, self.order):
            cols = []
            for j, x in enumerate(self._perms[g][:n]):
                if x != j:
                    col = list(points[x])
                    col[j] = col[j] - _ONE
                    cols.append(col)
            col = cols[0]
            a = next(i for i, x in enumerate(col) if x)
            if any(
                u * v[a] != x * col[a]
                for v in cols[1:]
                for u, x in zip(col, v)
            ):
                continue
            # group by fixed space, via the normalized root
            lead = col[a]
            root = tuple(x / lead for x in col)
            if root not in by_root:
                by_root[root] = []
                root_order.append(root)
            by_root[root].append(g)
        hyps = []
        refls = []
        refl_hyp = []
        for root in root_order:
            members = by_root[root]
            m_h = len(members) + 1
            want = zeta(m_h) + (n - 1)
            dist = [g for g in members if self._trace(g) == want]
            if len(dist) != 1:
                raise InternalInconsistency(
                    f"distinguished reflection not unique for root {root}"
                )
            hid = len(hyps)
            hyps.append(Hyperplane(hid, f"H{hid}", None, dist[0], root, m_h, self))
            for g in members:
                refls.append(g)
                refl_hyp.append(hid)
        self._hyperplanes = hyps
        self._reflections = refls
        self._refl_hyp = refl_hyp

    @property
    def reflections(self):
        """Element indices of the reflections, grouped by hyperplane."""
        self._build_hyperplanes()
        return self._reflections

    def reflection_index(self, g: int) -> int:
        """Position in the reflection list of the reflection with index g."""
        self._build_hyperplanes()
        return self._refl_index[g]

    def reflection_hyperplane(self, idx: int) -> int:
        """Hyperplane id of the reflection with the given index."""
        self._build_hyperplanes()
        return self._refl_hyp[idx]

    def hyperplane_reflections(self, hid: int):
        """Indices of the reflections whose hyperplane is hid."""
        self._build_hyperplanes()
        return [i for i, h in enumerate(self._refl_hyp) if h == hid]

    # -- action on hyperplanes ---------------------------------------------

    def _generator_action(self, s):
        """Row of one generator: s r_H s^-1 is the distinguished reflection
        of sH, since conjugation keeps the eigenvalue."""
        out = []
        for h in self._hyperplanes:
            hid = self._dist_index.get(self.conj(s, h.dist_reflection))
            if hid is None:
                raise InternalInconsistency(
                    "conjugate of a distinguished reflection is not "
                    "a known distinguished reflection"
                )
            out.append(hid)
        return tuple(out)

    def action_table(self):
        """The |G| x #H table: row w lists the image of every hyperplane id
        under w.  Filled along a breadth-first search over the generators,
        composing each parent row with a generator row."""
        if self._actions is None:
            self._build_hyperplanes()
            gens = self.generators
            gen_rows = [self._generator_action(s) for s in gens]
            # right multiplication by generator k, as in mul
            getters = [itemgetter(*self._perms[s][: self.dim]) for s in gens]
            perms, index = self._perms, self._index
            states, tree = bfs(
                [self.identity],
                range(len(gens)),
                lambda g, k: index[getters[k](perms[g])],
            )
            if len(states) != self.order:
                raise InternalInconsistency(
                    f"generators reach {len(states)} of {self.order} elements"
                )
            rows = [None] * self.order
            rows[self.identity] = tuple(range(len(self._hyperplanes)))
            for g, (parent, k) in zip(states[1:], tree[1:]):
                rows[g] = tuple(map(rows[states[parent]].__getitem__, gen_rows[k]))
            self._actions = rows
        return self._actions

    def hyperplane_action(self, w: int):
        """Permutation of hyperplane ids induced by element w."""
        return self.action_table()[w]

    def stabilizer_of(self, B) -> "Subgroup":
        """Setwise stabilizer of a collection of hyperplane ids, scanned by
        `stabilizer` once per collection and kept (collection_orbits keeps
        the stabilizers of the orbit representatives it checks)."""
        key = tuple(sorted(B))
        sub = self._stabilizers.get(key)
        if sub is None:
            sub = self._stabilizers[key] = stabilizer(self, key)
        return sub

    # -- conjugacy classes of reflections ----------------------------------

    @property
    def reflection_classes(self):
        """Partition of reflection indices into W-conjugacy classes, ordered
        by smallest member."""
        self._build_hyperplanes()
        if self._classes is not None:
            return self._classes
        refls, index = self._reflections, self._refl_index

        def conjugate(r, g):
            return index[self.conj(g, refls[r])]

        unseen = set(range(len(refls)))
        classes = []
        while unseen:
            members, _ = bfs([min(unseen)], self.generators, conjugate)
            if not unseen.issuperset(members):
                raise InternalInconsistency("reflection classes overlap")
            unseen.difference_update(members)
            classes.append(tuple(sorted(members)))
        classes.sort(key=lambda c: c[0])
        self._classes = classes
        return classes

    def reflection_class_of(self, idx: int) -> int:
        for ci, members in enumerate(self.reflection_classes):
            if idx in members:
                return ci
        raise InternalInconsistency(f"reflection {idx} not classified")


# ---------------------------------------------------------------------------
# constructors


def imprimitive_order(m: int, p: int, n: int) -> int:
    """Order of the monomial group (m, p, n), after validating the
    parameters."""
    if m < 1 or p < 1 or m % p != 0:
        raise InvalidParameters(f"p must divide m, got (m, p) = ({m}, {p})")
    if n < 2:
        raise InvalidParameters("rank parameter n must be at least 2")
    return factorial(n) * m ** n // p


def refuse_over_cap(definition: dict, order: int, cap: int):
    """Raise the TooLarge error that building the defined group under cap
    raises, when its known order exceeds cap."""
    if order <= cap:
        return
    if definition["kind"] == "imprimitive":
        raise TooLarge(f"|{definition['name']}| = {order} exceeds cap {cap}")
    raise _closure_refusal(cap)


def _monomial_perm(m, n, perm, exps):
    # the point zeta^k e_l has index k*n + l
    return tuple(
        ((k + e) % m) * n + t for k in range(m) for t, e in zip(perm, exps)
    )


def build_imprimitive(m: int, p: int, n: int, cap: int = DEFAULT_CAP) -> Group:
    """The monomial group with parameters (m, p, n): monomial matrices with
    entries in the m-th roots of unity whose entry product is an (m/p)-th
    root of unity."""
    definition = group_definition({"kind": "imprimitive", "m": m, "p": p, "n": n})
    order = imprimitive_order(m, p, n)
    refuse_over_cap(definition, order, cap)
    # (perm, exps) is the permutation matrix of perm times the diagonal
    # matrix of exps, so its point permutation is one composition
    diagonals = [
        itemgetter(*_monomial_perm(m, n, range(n), exps))
        for exps in product(range(m), repeat=n)
        if sum(exps) % p == 0
    ]
    perms = [
        diag(_monomial_perm(m, n, perm, [0] * n))
        for perm in permutations(range(n))
        for diag in diagonals
    ]
    if len(perms) != order:
        raise InternalInconsistency(
            f"enumerated {len(perms)} elements, closed form says {order}"
        )
    ident = tuple(range(n))
    gens = []
    for i in range(n - 1):
        perm = list(ident)
        perm[i], perm[i + 1] = i + 1, i
        gens.append((perm, [0] * n))
    if m > 1:
        perm = list(ident)
        perm[0], perm[1] = 1, 0
        exps = [0] * n
        exps[0], exps[1] = -1, 1
        gens.append((perm, exps))
    if p != m:
        gens.append((ident, [p] + [0] * (n - 1)))
    return Group(
        "imprimitive",
        definition["name"],
        definition,
        n,
        perms,
        [_monomial_perm(m, n, perm, exps) for perm, exps in gens],
        m=m,
        p=p,
        n=n,
        cyclotomic_order=m,
    )


def _apply(g: MatrixElem, v):
    """g v, skipping zero entries."""
    out = []
    for row in g.entries:
        acc = None
        for a, x in zip(row, v):
            if a and x:
                t = a * x
                acc = t if acc is None else acc + t
        out.append(_ZERO if acc is None else acc)
    return tuple(out)


def build_matrix_group(
    gens, cap: int = DEFAULT_CAP, name: str = "matrix-group", provenance: str = "paper"
) -> Group:
    """Closure of unitary generator matrices under multiplication.

    The generators are applied to points once, from e_1, ..., e_n until the
    point set P closes; the closure itself then runs on their permutations
    of P, in the breadth-first order of right multiplication by the
    generators."""
    gens = [g if isinstance(g, MatrixElem) else MatrixElem(g) for g in gens]
    if not gens:
        raise InvalidParameters("at least one generator required")
    dim = gens[0].dim
    for g in gens:
        if g.dim != dim:
            raise InvalidParameters("generators must share one dimension")
        if not g.is_unitary():
            raise InvalidParameters(
                "non-unitary generator: the construction requires matrices "
                "unitary for the standard Hermitian form"
            )
    refuse = _closure_refusal(cap)
    basis = [tuple(_ONE if i == j else _ZERO for i in range(dim)) for j in range(dim)]
    images = {}

    def apply(v, s):
        w = images[v, s] = _apply(gens[s], v)
        return w

    labels = range(len(gens))
    points, _ = bfs(basis, labels, apply, limit=dim * cap, refuse=refuse)
    ids = {v: x for x, v in enumerate(points)}
    gen_perms = [tuple(ids[images[v, s]] for v in points) for s in labels]
    perms, _ = bfs(
        [tuple(range(len(points)))],
        gen_perms,
        lambda g, s: tuple(map(g.__getitem__, s)),
        limit=cap,
        refuse=refuse,
    )
    definition = _matrix_definition(name, provenance, gens)
    return Group(
        "matrix",
        name,
        definition,
        dim,
        perms,
        gen_perms,
        points,
        cyclotomic_order=definition["cyclotomic_order"],
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# spec operations


def hyperplanes(G: Group):
    G._build_hyperplanes()
    return list(G._hyperplanes)


def act_on_hyperplane(w: int, H: Hyperplane) -> Hyperplane:
    G = H.group
    return G._hyperplanes[G.hyperplane_action(w)[H.id]]


def stabilizer(G: Group, B) -> Subgroup:
    """Setwise stabilizer of a collection of hyperplane ids: a scan over
    the action table that keeps the elements mapping every member of the
    collection into it, one member at a time."""
    bset = frozenset(B)
    rows = G.action_table()
    members = G.elements
    for h in bset:
        members = [g for g in members if rows[g][h] in bset]
    return Subgroup(members, members)


def orbit(G: Group, B):
    """Orbit of a collection under the hyperplane action, as sorted tuples,
    in breadth-first order from B."""
    acts = [G.hyperplane_action(g) for g in G.generators]
    out, _ = bfs(
        [tuple(sorted(B))], acts, lambda cur, act: tuple(sorted(act[h] for h in cur))
    )
    return out


def subgroup_closure(G: Group, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    for g in gens:
        if not 0 <= g < G.order:
            raise InternalInconsistency(f"generator {g!r} is not an element index")
    elements, _ = bfs([G.identity], gens, G.mul)
    return Subgroup(gens, elements)


def small_generating_set(G: Group, sub: Subgroup):
    """Short generating list for an explicitly enumerated subgroup.

    Greedy: walk the members in element order and keep each one that
    enlarges the closure of what was kept so far.
    """
    gens = []
    have = {G.identity}
    for g in sorted(sub.elements):
        if g in have:
            continue
        gens.append(g)
        have = subgroup_closure(G, gens).elements
        if len(have) == sub.order:
            break
    if len(have) != sub.order:
        raise InternalInconsistency("members do not generate their subgroup")
    return gens


# ---------------------------------------------------------------------------
# serialization

_EXTERNAL_NOTE = (
    "generator data sourced outside the primary reference; "
    "results derived from it are reported as externally checked"
)


def _matrix_definition(name, provenance, gens) -> dict:
    amb = 1
    for o in {e.order for g in gens for row in g.entries for e in row}:
        amb = amb * o // gcd(amb, o)
    out = {
        "name": name,
        "kind": "matrix",
        "cyclotomic_order": amb,
        "provenance": provenance,
        "generators": [
            [[x.to_json() for x in row] for row in g.entries] for g in gens
        ],
    }
    if provenance == "external":
        out["note"] = _EXTERNAL_NOTE
    return out


def _generators_from_json(data: dict):
    return [
        MatrixElem([[CycNumber.from_json(x) for x in row] for row in g])
        for g in data["generators"]
    ]


def group_definition(data: dict) -> dict:
    """The canonical definition JSON of the group that data describes,
    equal to group_to_json of the built group, without building it."""
    if data["kind"] == "imprimitive":
        m, p, n = data["m"], data["p"], data["n"]
        name = f"G({m},{p},{n})"
        return {"name": name, "kind": "imprimitive", "m": m, "p": p, "n": n}
    return _matrix_definition(
        data.get("name", "matrix-group"),
        data.get("provenance", "paper"),
        _generators_from_json(data),
    )


def group_to_json(G: Group) -> dict:
    return G.definition


def group_from_json(data: dict, cap: int = DEFAULT_CAP) -> Group:
    if data["kind"] == "imprimitive":
        return build_imprimitive(data["m"], data["p"], data["n"], cap=cap)
    return build_matrix_group(
        _generators_from_json(data),
        cap=cap,
        name=data.get("name", "matrix-group"),
        provenance=data.get("provenance", "paper"),
    )


def load_group_file(path, cap: int = DEFAULT_CAP) -> Group:
    with open(path) as fh:
        return group_from_json(json.load(fh), cap=cap)


_PACKAGED = {
    "g25": "data/g25.json",
    "g26": "data/g26.json",
    "g4": "data/external/g04.json",
    "g23": "data/external/g23.json",
}


def packaged_definition(name: str) -> dict:
    """The definition JSON of one of the shipped matrix groups."""
    key = name.lower()
    if key not in _PACKAGED:
        raise InvalidParameters(
            f"unknown packaged group {name!r}; have {sorted(_PACKAGED)}"
        )
    return json.loads(resources.files("bct").joinpath(_PACKAGED[key]).read_text())


def packaged_group(name: str, cap: int = DEFAULT_CAP) -> Group:
    """Load one of the shipped matrix groups by short name."""
    return group_from_json(packaged_definition(name), cap=cap)
