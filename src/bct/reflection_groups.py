"""Complex reflection groups: the monomial three-parameter family and explicit
unitary matrix groups, with hyperplanes, orbits, stabilizers, and subgroups.

Group elements come in two shapes.  Monomial elements store a permutation and
an exponent vector (column l carries zeta_m^{exps[l]} in row perm[l]); matrix
elements store exact cyclotomic entries.  Both are immutable and hashable so
group enumeration can deduplicate by value.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from itertools import permutations, product
from math import factorial, gcd

from .errors import (
    InternalInconsistency,
    InvalidParameters,
    InvalidRoot,
    TooLarge,
)
from .exact_arith import CycNumber, SpanBasis, zeta

DEFAULT_CAP = 200_000


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
        assert other.m == self.m
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
        assert all(len(r) == n for r in rows)
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
        assert k <= 10_000
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
# hyperplanes and subgroups


class Hyperplane:
    """Reflecting hyperplane with its distinguished reflection and a root.

    For monomial groups, key is a structural tag: ("diag", i) for z_i = 0 and
    ("pair", i, j, k) for z_i = zeta^k z_j with i < j (0-based).  Matrix-group
    hyperplanes have key None and are identified by id alone.
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
    """Subgroup given by an explicit element set."""

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
    """A concrete complex reflection group with fully enumerated elements."""

    def __init__(
        self,
        kind,
        name,
        generators,
        elements,
        identity,
        *,
        m=None,
        p=None,
        n=None,
        cyclotomic_order=None,
        provenance="paper",
    ):
        self.kind = kind
        self.name = name
        self.generators = list(generators)
        self.elements = list(elements)
        self.identity = identity
        self.m, self.p, self.n = m, p, n
        self.cyclotomic_order = cyclotomic_order
        self.provenance = provenance
        self.order = len(self.elements)
        self._elem_index = {g: i for i, g in enumerate(self.elements)}
        assert len(self._elem_index) == self.order
        self.reducible = kind == "imprimitive" and (m, p, n) == (2, 2, 2)
        self._hyperplanes = None
        self._reflections = None
        self._refl_index = None
        self._refl_hyp = None
        self._dist_index = None
        self._label_index = None
        self._action_cache = {}
        self._actions_complete = False
        self._classes = None
        self._transv_table = None
        self._adm_cache = {}

    def __contains__(self, g):
        return g in self._elem_index

    def elem_index(self, g) -> int:
        return self._elem_index[g]

    def __repr__(self):
        return f"Group({self.name}, order={self.order})"

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
            refls.append(g)
            refl_hyp.append(hid)

        if p != m:
            for i in range(n):
                root = [CycNumber.rational(1 if l == i else 0) for l in range(n)]
                t_i = Monomial(m, ident, tuple(p if l == i else 0 for l in range(n)))
                hid = len(hyps)
                hyps.append(
                    Hyperplane(hid, f"H_{i+1}", ("diag", i), t_i, root, m // p, self)
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
                        Hyperplane(hid, label, ("pair", i, j, k), s, root, 2, self)
                    )
                    add_refl(s, hid)
        self._hyperplanes = hyps
        self._reflections = refls
        self._refl_hyp = refl_hyp
        self._label_index = {h.key: h.id for h in hyps}

    def _build_hyperplanes_matrix(self):
        one = CycNumber.rational(1)
        refl_elems = []
        for g in self.elements:
            if g.is_identity():
                continue
            nz = [
                [g.entries[i][j] - (one if i == j else 0) for j in range(g.dim)]
                for i in range(g.dim)
            ]
            span = SpanBasis(g.dim)
            for row in nz:
                span.add(row)
            if span.rank == 1:
                refl_elems.append(g)
        # group by fixed space, via the normalized root
        by_root = {}
        root_order = []
        for g in refl_elems:
            col = None
            for j in range(g.dim):
                cand = [
                    g.entries[i][j] - (one if i == j else 0) for i in range(g.dim)
                ]
                if any(cand):
                    col = cand
                    break
            lead = next(x for x in col if x)
            col = tuple(x / lead for x in col)
            if col not in by_root:
                by_root[col] = []
                root_order.append(col)
            by_root[col].append(g)
        hyps = []
        refls = []
        refl_hyp = []
        for root in root_order:
            members = by_root[root]
            m_h = len(members) + 1
            want = zeta(m_h)
            dim = members[0].dim
            dist = [g for g in members if g.trace() == want + (dim - 1)]
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
        self._label_index = None

    @property
    def reflections(self):
        self._build_hyperplanes()
        return self._reflections

    def reflection_index(self, g) -> int:
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

    def _act_monomial(self, w, hid):
        key = self._hyperplanes[hid].key
        if key[0] == "diag":
            return self._label_index[("diag", w.perm[key[1]])]
        _, i, j, k = key
        u, v = w.perm[i], w.perm[j]
        lam = (k + w.exps[i] - w.exps[j]) % self.m
        if u > v:
            u, v, lam = v, u, (-lam) % self.m
        return self._label_index[("pair", u, v, lam)]

    def hyperplane_action(self, w):
        """Permutation of hyperplane ids induced by w, cached per element."""
        self._build_hyperplanes()
        got = self._action_cache.get(w)
        if got is not None:
            return got
        if self.kind == "imprimitive":
            out = tuple(
                self._act_monomial(w, hid) for hid in range(len(self._hyperplanes))
            )
        else:
            w_inv = w.inv()
            out = []
            for h in self._hyperplanes:
                conj = w * h.dist_reflection * w_inv
                hid = self._dist_index.get(conj)
                if hid is None:
                    raise InternalInconsistency(
                        "conjugate of a distinguished reflection is not "
                        "a known distinguished reflection"
                    )
                out.append(hid)
            out = tuple(out)
        self._action_cache[w] = out
        return out

    def ensure_all_actions(self):
        """Fill the action cache for every element at once by composing
        generator actions along a breadth-first traversal.  Much cheaper
        than conjugating hyperplane by hyperplane per element."""
        if self._actions_complete:
            return
        self._build_hyperplanes()
        gen_acts = [(s, self.hyperplane_action(s)) for s in self.generators]
        size = len(self._hyperplanes)
        acts = {self.identity: tuple(range(size))}
        queue = [self.identity]
        while queue:
            g = queue.pop(0)
            ag = acts[g]
            for s, a_s in gen_acts:
                h = g * s
                if h not in acts:
                    acts[h] = tuple(ag[a_s[i]] for i in range(size))
                    queue.append(h)
        assert len(acts) == self.order
        self._action_cache.update(acts)
        self._actions_complete = True

    # -- conjugacy classes of reflections ----------------------------------

    @property
    def reflection_classes(self):
        """Partition of reflection indices into W-conjugacy classes, ordered
        by smallest member."""
        self._build_hyperplanes()
        if self._classes is not None:
            return self._classes
        unseen = set(range(len(self._reflections)))
        gens = [(g, g.inv()) for g in self.generators]
        classes = []
        while unseen:
            start = min(unseen)
            members = {start}
            queue = [self._reflections[start]]
            while queue:
                s = queue.pop(0)
                for g, g_inv in gens:
                    c = g * s * g_inv
                    idx = self._refl_index[c]
                    if idx not in members:
                        members.add(idx)
                        queue.append(c)
            assert members <= unseen
            unseen -= members
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


def build_imprimitive(m: int, p: int, n: int, cap: int = DEFAULT_CAP) -> Group:
    """The monomial group with parameters (m, p, n): monomial matrices with
    entries in the m-th roots of unity whose entry product is an (m/p)-th
    root of unity."""
    if m < 1 or p < 1 or m % p != 0:
        raise InvalidParameters(f"p must divide m, got (m, p) = ({m}, {p})")
    if n < 2:
        raise InvalidParameters("rank parameter n must be at least 2")
    order = factorial(n) * m ** n // p
    if order > cap:
        raise TooLarge(f"|G({m},{p},{n})| = {order} exceeds cap {cap}")
    elements = []
    for perm in permutations(range(n)):
        for exps in product(range(m), repeat=n):
            if sum(exps) % p == 0:
                elements.append(Monomial(m, perm, exps))
    assert len(elements) == order
    ident = tuple(range(n))
    gens = []
    for i in range(n - 1):
        perm = list(ident)
        perm[i], perm[i + 1] = i + 1, i
        gens.append(Monomial(m, perm, [0] * n))
    if m > 1:
        perm = list(ident)
        perm[0], perm[1] = 1, 0
        exps = [0] * n
        exps[0], exps[1] = -1, 1
        gens.append(Monomial(m, perm, exps))
    if p != m:
        gens.append(Monomial(m, ident, [p] + [0] * (n - 1)))
    identity = Monomial(m, ident, [0] * n)
    return Group(
        "imprimitive",
        f"G({m},{p},{n})",
        gens,
        elements,
        identity,
        m=m,
        p=p,
        n=n,
        cyclotomic_order=m,
    )


def build_matrix_group(
    gens, cap: int = DEFAULT_CAP, name: str = "matrix-group", provenance: str = "paper"
) -> Group:
    """Closure of unitary generator matrices under multiplication."""
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
    ident = identity_matrix(dim)
    elements = [ident]
    index = {ident: 0}
    queue = [ident]
    while queue:
        g = queue.pop(0)
        for s in gens:
            h = g * s
            if h not in index:
                if len(elements) >= cap:
                    raise TooLarge(f"group closure exceeds cap {cap}")
                index[h] = len(elements)
                elements.append(h)
                queue.append(h)
    amb = 1
    for o in {e.order for g in gens for row in g.entries for e in row}:
        amb = amb * o // gcd(amb, o)
    return Group(
        "matrix",
        name,
        gens,
        elements,
        ident,
        cyclotomic_order=amb,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# spec operations


def hyperplanes(G: Group):
    G._build_hyperplanes()
    return list(G._hyperplanes)


def act_on_hyperplane(w, H: Hyperplane) -> Hyperplane:
    G = H.group
    return G._hyperplanes[G.hyperplane_action(w)[H.id]]


def stabilizer(G: Group, B) -> Subgroup:
    """Setwise stabilizer of a collection of hyperplane ids."""
    G.ensure_all_actions()
    B = frozenset(B)
    members = []
    for g in G.elements:
        act = G.hyperplane_action(g)
        if frozenset(act[h] for h in B) == B:
            members.append(g)
    sub = Subgroup(members, members)
    return sub


def orbit(G: Group, B):
    """Orbit of a collection under the hyperplane action, as sorted tuples.

    The orbit-stabilizer identity is asserted against an explicit stabilizer
    scan.
    """
    start = tuple(sorted(B))
    seen = {start}
    out = [start]
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for g in G.generators:
            act = G.hyperplane_action(g)
            nxt = tuple(sorted(act[h] for h in cur))
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                queue.append(nxt)
    assert len(out) * stabilizer(G, start).order == G.order
    return out


def subgroup_closure(G: Group, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    for g in gens:
        assert g in G, "generators must lie in the parent group"
    elements = {G.identity}
    queue = [G.identity]
    while queue:
        g = queue.pop(0)
        for s in gens:
            h = g * s
            if h not in elements:
                elements.add(h)
                queue.append(h)
    return Subgroup(gens, elements)


def small_generating_set(G: Group, sub: Subgroup):
    """Short generating list for an explicitly enumerated subgroup.

    Greedy: walk the members in element order and keep each one that
    enlarges the closure of what was kept so far.
    """
    gens = []
    have = {G.identity}
    for g in sorted(sub.elements, key=G.elem_index):
        if g in have:
            continue
        gens.append(g)
        have = subgroup_closure(G, gens).elements
        if len(have) == sub.order:
            break
    assert len(have) == sub.order
    return gens


# ---------------------------------------------------------------------------
# serialization

_EXTERNAL_NOTE = (
    "generator data sourced outside the primary reference; "
    "results derived from it are reported as externally checked"
)


def group_to_json(G: Group) -> dict:
    if G.kind == "imprimitive":
        return {
            "name": G.name,
            "kind": "imprimitive",
            "m": G.m,
            "p": G.p,
            "n": G.n,
        }
    out = {
        "name": G.name,
        "kind": "matrix",
        "cyclotomic_order": G.cyclotomic_order,
        "provenance": G.provenance,
        "generators": [
            [[x.to_json() for x in row] for row in g.entries] for g in G.generators
        ],
    }
    if G.provenance == "external":
        out["note"] = _EXTERNAL_NOTE
    return out


def group_from_json(data: dict, cap: int = DEFAULT_CAP) -> Group:
    if data["kind"] == "imprimitive":
        return build_imprimitive(data["m"], data["p"], data["n"], cap=cap)
    gens = [
        MatrixElem(
            [[CycNumber.from_json(x) for x in row] for row in g]
        )
        for g in data["generators"]
    ]
    return build_matrix_group(
        gens,
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


def packaged_group(name: str, cap: int = DEFAULT_CAP) -> Group:
    """Load one of the shipped matrix groups by short name."""
    key = name.lower()
    if key not in _PACKAGED:
        raise InvalidParameters(
            f"unknown packaged group {name!r}; have {sorted(_PACKAGED)}"
        )
    ref = resources.files("bct").joinpath(_PACKAGED[key])
    return group_from_json(json.loads(ref.read_text()), cap=cap)
