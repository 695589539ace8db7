"""Complex reflection groups: the monomial three-parameter family and explicit
unitary matrix groups, with hyperplanes, orbits, stabilizers, and subgroups.

After closure a group element is an index 0..|G|-1.  Each index carries a
permutation of the finite point set P = W.{e_1, ..., e_n}: for the monomial
family P is the m*n vectors zeta^k e_i, for a matrix group it is found by
applying the generators to points.  The first n points are e_1, ..., e_n,
so the first n entries of a permutation (its frame) identify the element:
column j of its matrix is the point e_j maps to.  A product reads one
permutation at the other's frame and looks the result up in a dictionary
of frames.  A group on at most 256 points stores its permutations as
bytes, one per point, and composes them by bytes.translate (_perm_store);
a group on more than 256 points stores them as tuples.

The hyperplane action is stored factored.  A monomial group is its
diagonal subgroup N, of order D = m^n/p, times the permutation matrices,
and element r*D + d is permutation r after diagonal d; its row of
hyperplane images is the row of permutation r read at the row of diagonal
d.  The D diagonal rows follow a closed rule on hyperplane keys, and the
n! permutation rows are filled along the tree of the closure that built
the permutations: each constructor closes its generators with bfs, a
monomial group their permutation parts, and hands Group that tree.  A
matrix group is the same store with D = 1, one permutation row per
element.

A group's derived data (its hyperplanes, each with its reflections, the
reflection lookups and classes, the action rows and the generators' rows)
are cached properties: each is built on its first read, from the ones it
needs, and kept.

A matrix group computes in Q(zeta_N), N its definition's cyclotomic order:
its generator entries are lifted once to integer field values
(exact_arith._CycContext), and P is found and stored in that form.  A
monomial group computes in Q(zeta_m) and makes its point values zeta^k e_t
only on first use, since neither its build nor its hyperplanes need them.

An element's value is its matrix: a tuple of row tuples of CycNumbers.
Values appear only at the boundary, since every product is formed on
indices: generators come in as matrices, G.element(i) reads column j off
the point at frame[j], and G.index_of(g) looks each column of g up among
the points.  Values leave the field as canonical CycNumbers only there and
in the hyperplane roots.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, islice, permutations, product
from operator import itemgetter

from .definitions import (
    DEFAULT_CAP,
    DEFAULT_NAME,
    DEFAULT_PROVENANCE,
    _closure_refusal,
    _matrix_definition,
    group_definition,
    imprimitive_order,
    packaged_definition,
    refuse_over_cap,
)
from .errors import InternalInconsistency, InvalidParameters, InvalidRoot
from .exact_arith import CycNumber, _context, zeta


# ---------------------------------------------------------------------------
# element values


def _as_cyc(x) -> CycNumber:
    return x if isinstance(x, CycNumber) else CycNumber.rational(x)


def _matrix(entries):
    """entries, nested sequences of CycNumbers, ints or Fractions, as a
    matrix value: a tuple of row tuples of CycNumbers."""
    rows = tuple(tuple(map(_as_cyc, row)) for row in entries)
    if any(len(r) != len(rows) for r in rows):
        raise InvalidParameters("matrix entries must form a square array")
    return rows


def hermitian_inner(u, v) -> CycNumber:
    """Standard Hermitian form, conjugate-linear in the second slot."""
    acc = CycNumber.rational(0)
    for x, y in zip(u, v):
        acc = acc + x * _as_cyc(y).conj()
    return acc


def reflection_from_root(root, eigenvalue):
    """The matrix of the unitary reflection fixing root-perp pointwise and
    scaling root by the eigenvalue: r(v) = v - (1 - alpha) (<v,u>/<u,u>) u."""
    u = list(map(_as_cyc, root))
    if not any(u):
        raise InvalidRoot("zero vector cannot be a root")
    alpha = _as_cyc(eigenvalue)
    if alpha == 1 or alpha ** (2 * alpha.order) != 1:
        raise InvalidParameters(f"eigenvalue must be a root of unity != 1: {alpha}")
    norm = hermitian_inner(u, u)
    factor = (1 - alpha) / norm
    n = len(u)
    return tuple(
        tuple(
            CycNumber.rational(1 if i == j else 0) - factor * u[i] * u[j].conj()
            for j in range(n)
        )
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# breadth-first closure


def bfs(seeds, labels, step, limit=None, refuse=None):
    """Breadth-first closure of the seeds under step(state, label).

    Returns (states, tree): every state reached, in discovery order with the
    seeds first, and per state None for a seed or the pair (position of the
    state it was reached from, position of the label) for the rest.
    Reaching more than limit states raises the exception refuse.
    """
    states = list(seeds)
    seen = set(states)
    tree = [None] * len(states)
    k = 0
    while k < len(states):
        cur = states[k]
        for j, lab in enumerate(labels):
            nxt = step(cur, lab)
            if nxt not in seen:
                if limit is not None and len(states) >= limit:
                    raise refuse
                seen.add(nxt)
                states.append(nxt)
                tree.append((k, j))
        k += 1
    return states, tree


def orbits(points, labels, step):
    """Partition of points into orbits under step(point, label).

    Each orbit is the bfs closure of the first point not yet visited, in
    discovery order.  An orbit that meets an earlier one means step does
    not permute the points, and raises InternalInconsistency.
    """
    seen = set()
    out = []
    for x in points:
        if x not in seen:
            members, _ = bfs([x], labels, step)
            if not seen.isdisjoint(members):
                raise InternalInconsistency(
                    f"the orbit of {x!r} meets an earlier orbit"
                )
            seen.update(members)
            out.append(members)
    return out


# ---------------------------------------------------------------------------
# hyperplanes and subgroups


class Hyperplane:
    """Reflecting hyperplane with its reflections, the distinguished one
    among them, and a root.

    dist_reflection and reflections are element indices, the reflections
    in the order of G.reflections.  For monomial groups, key is a
    structural tag: ("diag", i) for z_i = 0 and ("pair", i, j, k) for
    z_i = zeta^k z_j with i < j (0-based).  Matrix-group hyperplanes have
    key None and are identified by id alone.
    """

    __slots__ = (
        "id", "label", "key", "dist_reflection", "root", "order_m", "reflections"
    )

    def __init__(self, hid, label, key, dist_reflection, root, order_m, reflections):
        self.id = hid
        self.label = label
        self.key = key
        self.dist_reflection = dist_reflection
        self.root = tuple(root)
        self.order_m = order_m
        self.reflections = tuple(reflections)

    def __repr__(self):
        return f"Hyperplane({self.label})"


class Subgroup:
    """Subgroup given by its elements and the generators it was closed from;
    a stabilizer's walk is the (blocks, witnesses) they were sifted from."""

    __slots__ = ("generators", "elements", "walk")

    def __init__(self, generators, elements, walk=None):
        self.generators = tuple(generators)
        self.elements = frozenset(elements)
        self.walk = walk

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

    definition is the canonical definition (group_definition), the dict
    that keys the cache; kind, name, m, p, n, dim, cyclotomic_order and
    provenance are read from it once and kept as attributes (a monomial
    definition's cyclotomic order is m, and it has DEFAULT_PROVENANCE).
    Elements are the indices 0..order-1, the identity first; perms[i] is
    the permutation of the point set carried by element i.  Element
    r*D + d of a monomial group is permutation r after diagonal d, D =
    m^n/p the order of its diagonal subgroup (action_rows); a matrix group
    has D = 1.  tree is the bfs tree the constructor walked, over the
    permutation indices r, with generator positions as labels; action_rows
    reads it once.  The derived data are cached properties, each built once;
    the reflection facts among them (reflection_index, reflection_hyperplane,
    hyperplane_reflections, reflection_class_of) are tables, read by index.
    """

    def __init__(self, definition, perms, generators, tree, points=None):
        self.definition = definition
        self.kind = definition["kind"]
        self.name = definition["name"]
        m, p, n = map(definition.get, "mpn")
        self.m, self.p, self.n = m, p, n
        self.cyclotomic_order = definition.get("cyclotomic_order", m)
        self.provenance = definition.get("provenance", DEFAULT_PROVENANCE)
        monomial = self.kind == "imprimitive"
        self.dim = dim = n if monomial else len(definition["generators"][0])
        self._ndiag = m ** n // p if monomial else 1
        self.order = len(perms)
        self._perms = perms
        self._tree = tree
        if points is not None:
            # a matrix group's build found its points; a monomial group
            # makes them on first use (_points)
            self._points = points
        # the frame of a sequence: its first dim entries, as a tuple (an
        # int when dim is 1, as itemgetter returns it); _frames[i] is the
        # frame of element i as a tuple, and the same object keys _index
        self._frame = itemgetter(*range(dim))
        self._frames = [tuple(perm[:dim]) for perm in perms]
        keys = self._frames if dim > 1 else [f for f, in self._frames]
        self._index = dict(zip(keys, range(self.order)))
        if len(self._index) != self.order:
            raise InternalInconsistency("two group elements share one frame")
        self.identity = 0
        self.generators = tuple(self._index[self._frame(g)] for g in generators)
        self.reducible = (m, p, n) == (2, 2, 2)
        # kept here by transversality.transv_table, admissibility's
        # orbit_records and collection (one Collection record per sorted
        # collection), and stabilizer
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
        return self._index[itemgetter(*self._frames[b])(self._perms[a])]

    def right_coset(self, elements, b: int):
        """Indices of a*b for the a in elements, in order, as in mul."""
        p = self._perms
        frames = map(itemgetter(*self._frames[b]), map(p.__getitem__, elements))
        return map(self._index.__getitem__, frames)

    def left_mul(self, xs):
        """The map g -> an iterator over the indices of g*x for the x in xs,
        in order, as in mul.  The frame of g*x is g's permutation read at
        x's frame, so one getter of all those frames is built here, and a
        call reads g's permutation once and looks up one frame per x."""
        p, index, dim = self._perms, self._index, self.dim
        cols = [j for x in xs for j in self._frames[x]]
        n = len(cols)
        # two more columns keep the getter's result a tuple; islice drops them
        get = itemgetter(*cols, 0, 0)
        if dim == 1:
            return lambda g: map(index.__getitem__, islice(get(p[g]), n))
        return lambda g: map(index.__getitem__, zip(*[islice(get(p[g]), n)] * dim))

    def inv(self, a: int) -> int:
        pa = self._perms[a]
        return self._index[self._frame([pa.index(j) for j in range(self.dim)])]

    def conj(self, w: int, g: int) -> int:
        """Index of w g w^-1."""
        return self.mul(self.mul(w, g), self.inv(w))

    def element(self, i: int):
        """The matrix of element i, built anew: column j is the point that
        e_j maps to."""
        cols = [self._points[x] for x in self._frames[i]]
        return tuple(tuple(map(self._field.cyc, row)) for row in zip(*cols))

    def index_of(self, g) -> int:
        """Index of the element with matrix g, given as element gives it or
        as nested sequences of CycNumbers, ints or Fractions."""
        rows, F = _matrix(g), self._field
        frame = [self._point_ids.get(tuple(map(F.of, c))) for c in zip(*rows)]
        i = self._index.get(self._frame(frame)) if len(rows) == self.dim else None
        if i is None:
            shown = [[str(x) for x in row] for row in rows]
            raise InvalidParameters(f"{shown} is not an element of {self.name}")
        return i

    @cached_property
    def _field(self):
        """The field Q(zeta_N), N the cyclotomic order, of the points."""
        return _context(self.cyclotomic_order)

    @cached_property
    def _points(self):
        """The points of a monomial group, zeta^k e_t at index k*n + t, as
        _monomial_perm numbers them."""
        F, n = self._field, self.dim
        return [
            tuple(F.of(zeta(self.m, k)) if l == t else F.zero for l in range(n))
            for k in range(self.m)
            for t in range(n)
        ]

    @cached_property
    def _point_ids(self):
        return {v: x for x, v in enumerate(self._points)}

    def _trace(self, g: int):
        frame = self._frames[g]
        t = self._points[frame[0]][0]
        for j in range(1, self.dim):
            t = self._field.add(t, self._points[frame[j]][j])
        return t

    # -- reflections and hyperplanes --------------------------------------

    def _build_hyperplanes(self):
        """The reflecting hyperplanes, each with its reflections.  Run once
        per group, by the hyperplanes property."""
        if self.kind == "imprimitive":
            return self._build_hyperplanes_imprimitive()
        return self._build_hyperplanes_matrix()

    def _build_hyperplanes_imprimitive(self):
        """Each reflection is looked up by its frame: column l of a monomial
        element carrying zeta^e in row t goes to the point e*n + t, and a
        reflection moves one or two columns and fixes the rest."""
        m, p, n = self.m, self.p, self.n
        hyps = []

        def lookup(*moved):
            frame = list(range(n))
            for l, x in moved:
                frame[l] = x
            return self._index[self._frame(frame)]

        if p != m:
            for i in range(n):
                root = [CycNumber.rational(1 if l == i else 0) for l in range(n)]
                # the powers t_i^k of t_i = diag(zeta^p at i), k < m/p
                powers = [lookup((i, p * k * n + i)) for k in range(1, m // p)]
                hid, key = len(hyps), ("diag", i)
                hyps.append(
                    Hyperplane(hid, f"H_{i+1}", key, powers[0], root, m // p, powers)
                )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(m):
                    # column i to zeta^-k e_j, column j to zeta^k e_i
                    s = lookup((i, (-k % m) * n + j), (j, k * n + i))
                    root = [CycNumber.rational(0) for _ in range(n)]
                    root[i] = CycNumber.rational(1)
                    root[j] = -zeta(m, -k)
                    label = f"H_{i+1},{j+1}^{k}" if m > 1 else f"H_{i+1},{j+1}"
                    hyps.append(
                        Hyperplane(len(hyps), label, ("pair", i, j, k), s, root, 2, [s])
                    )
        return hyps

    def _build_hyperplanes_matrix(self):
        """Rank-1 scan: g is a reflection when g - I has rank one.  Column j
        of g - I is the point e_j maps to, minus e_j, and vanishes exactly
        when g fixes e_j; the rank is one when every nonzero column is
        proportional to the first.  All of it runs in the group's field.

        A reflection's trace is n - 1 + zeta for a root of unity zeta != 1
        of the field, whose roots of unity are the lcm(2, N)-th ones, the
        +-zeta_N^k: the scan skips every element with another trace."""
        n = self.dim
        points = self._points
        F = self._field
        mul = F.mul
        N = self.cyclotomic_order
        shift = F.of(CycNumber.rational(n - 1))
        roots = {F.of(r) for k in range(N) for r in (zeta(N, k), -zeta(N, k))}
        traces = {F.add(r, shift) for r in roots - {F.one}}
        by_root = {}
        root_order = []
        for g in range(1, self.order):
            if self._trace(g) not in traces:
                continue
            cols = []
            for j, x in enumerate(self._frames[g]):
                if x != j:
                    col = list(points[x])
                    col[j] = F.sub(col[j], F.one)
                    cols.append(col)
            col = cols[0]
            a = next(i for i, x in enumerate(col) if any(x[0]))
            if any(
                mul(u, v[a]) != mul(x, col[a])
                for v in cols[1:]
                for u, x in zip(col, v)
            ):
                continue
            # group by fixed space, via the normalized root
            lead = F.inv(col[a])
            root = tuple(mul(x, lead) for x in col)
            if root not in by_root:
                by_root[root] = []
                root_order.append(root)
            by_root[root].append(g)
        hyps = []
        for root in root_order:
            members = by_root[root]
            m_h = len(members) + 1
            want = F.of(zeta(m_h) + (n - 1))
            dist = [g for g in members if self._trace(g) == want]
            root = tuple(map(F.cyc, root))
            if len(dist) != 1:
                raise InternalInconsistency(
                    f"distinguished reflection not unique for root {root}"
                )
            hid = len(hyps)
            hyps.append(Hyperplane(hid, f"H{hid}", None, dist[0], root, m_h, members))
        return hyps

    @cached_property
    def hyperplanes(self):
        """The reflecting hyperplanes, indexed by id."""
        return self._build_hyperplanes()

    @cached_property
    def reflections(self):
        """Element indices of the reflections, grouped by hyperplane."""
        return [g for h in self.hyperplanes for g in h.reflections]

    @cached_property
    def reflection_index(self):
        """Position in reflections of each reflection, by element index."""
        return {g: i for i, g in enumerate(self.reflections)}

    @cached_property
    def reflection_hyperplane(self):
        """Hyperplane id of each reflection, by position."""
        return [h.id for h in self.hyperplanes for _ in h.reflections]

    @cached_property
    def hyperplane_reflections(self):
        """Positions of the reflections of each hyperplane id, ascending."""
        hyp_refls = [[] for _ in self.hyperplanes]
        for i, hid in enumerate(self.reflection_hyperplane):
            hyp_refls[hid].append(i)
        return [tuple(r) for r in hyp_refls]

    # -- action on hyperplanes ---------------------------------------------

    @cached_property
    def _dist_hyperplane(self):
        """Hyperplane id of each distinguished reflection, by element index."""
        return {h.dist_reflection: h.id for h in self.hyperplanes}

    def _generator_action(self, s):
        """Row of one generator: s r_H s^-1 is the distinguished reflection
        of sH, since conjugation keeps the eigenvalue."""
        dist = self._dist_hyperplane
        out = []
        for h in self.hyperplanes:
            hid = dist.get(self.conj(s, h.dist_reflection))
            if hid is None:
                raise InternalInconsistency(
                    "conjugate of a distinguished reflection is not "
                    "a known distinguished reflection"
                )
            out.append(hid)
        return tuple(out)

    def _diagonal_rows(self):
        """Row of each diagonal element of a monomial group, in build
        order: exponents e fix every H_i and take z_i = zeta^k z_j to
        z_i = zeta^(k + e_i - e_j) z_j."""
        m, n = self.m, self.n
        hyps = self.hyperplanes
        fixed = tuple(h.id for h in hyps if h.key[0] == "diag")
        id_of = {h.key: h.id for h in hyps}
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        # per pair (i, j) and shift t: the ids of its hyperplanes, k -> k + t
        shifted = [
            [tuple(id_of["pair", i, j, (k + t) % m] for k in range(m))
             for t in range(m)]
            for i, j in pairs
        ]
        rows = []
        for e in _diagonal_exps(m, self.p, n):
            moved = [sh[(e[i] - e[j]) % m] for sh, (i, j) in zip(shifted, pairs)]
            rows.append(tuple(chain(fixed, *moved)))
        if rows[0] != tuple(range(len(hyps))):
            raise InternalInconsistency("hyperplane ids are not in key order")
        return rows

    @cached_property
    def action_rows(self):
        """(prow, drow): element r*D + d maps hyperplane h to
        prow[r][drow[d][h]].  drow is the diagonal rows of a monomial group,
        the identity row alone for a matrix group.  prow is filled along the
        constructor's tree (rank 0 is the identity), composing each parent
        row with the row of a generator's permutation part, read back from
        the generator's row through its diagonal's.  The tree is dropped
        once the checks pass: a matrix group's holds |G| entries."""
        ident = tuple(range(len(self.hyperplanes)))
        D = self._ndiag
        drow = self._diagonal_rows() if D > 1 else [ident]
        gens = self.generators
        parts = []
        for s in gens:
            part = [None] * len(ident)
            for h, x in zip(drow[s % D], self._generator_action(s)):
                part[h] = x
            parts.append(tuple(part))
        prow = [ident]
        for parent, k in self._tree[1:]:
            prow.append(tuple(map(prow[parent].__getitem__, parts[k])))
        for s, part in zip(gens, parts):
            if prow[s // D] != part:
                raise InternalInconsistency(
                    f"generator {s} disagrees with the row of its permutation"
                )
        reached = self._reached()
        if reached != self.order:
            raise InternalInconsistency(
                f"generators reach {reached} of {self.order} elements"
            )
        del self._tree
        return prow, drow

    def _reached(self):
        """Order of the subgroup the generators generate, from the
        constructor's tree over their permutation parts: the permutations it
        reached times the diagonals its Schreier elements u_r s u_rs^-1
        close to (u_r the product of generators along the tree to
        permutation r), which generate the subgroup's diagonal part by
        Schreier's lemma."""
        tree, D = self._tree, self._ndiag
        if D == 1:
            return len(tree)
        gens = self.generators
        u = [self.identity]
        for parent, k in tree[1:]:
            u.append(self.mul(u[parent], gens[k]))
        schreier = []
        for ur in u:
            for s in gens:
                x = self.mul(ur, s)
                schreier.append(self.mul(x, self.inv(u[x // D])))
        return len(u) * len(_sift(self, schreier, D)[1])

    def hyperplane_action(self, w: int):
        """Permutation of hyperplane ids induced by element w: the row of
        its permutation read at the row of its diagonal, which is the
        identity for d = 0 (every element of a matrix group)."""
        prow, drow = self.action_rows
        r, d = divmod(w, self._ndiag)
        return tuple(map(prow[r].__getitem__, drow[d])) if d else prow[r]

    @cached_property
    def generator_rows(self):
        """The hyperplane_action row of each generator, in order."""
        return [self.hyperplane_action(s) for s in self.generators]

    def stabilizer_of(self, B) -> "Subgroup":
        """Setwise stabilizer of a collection, with its Schreier generators
        and the orbit walk they were sifted from: the last one `stabilizer`
        built for the collection, which it keeps here, or a new one."""
        sub = self._stabilizers.get(tuple(sorted(B)))
        return stabilizer(self, B) if sub is None else sub

    # -- orbits of reflections, hyperplanes and pairs of hyperplanes --------

    @cached_property
    def reflection_classes(self):
        """Partition of reflection indices into W-conjugacy classes, ordered
        by smallest member."""
        refls, index = self.reflections, self.reflection_index
        return [
            tuple(sorted(members))
            for members in orbits(
                range(len(refls)),
                self.generators,
                lambda r, g: index[self.conj(g, refls[r])],
            )
        ]

    @cached_property
    def reflection_class_of(self):
        """Position in reflection_classes of each reflection's class, by
        position."""
        classes = self.reflection_classes
        return {r: ci for ci, members in enumerate(classes) for r in members}

    # orbits under the generators' rows, each listed from its smallest
    # member, in the order of those members

    @cached_property
    def hyperplane_orbits(self):
        """The orbits of the hyperplane ids."""
        hids = range(len(self.hyperplanes))
        return orbits(hids, self.generator_rows, lambda h, row: row[h])

    @cached_property
    def pair_orbits(self):
        """The orbits of the unordered pairs (i, j), i < j, of hyperplane ids."""

        def step(pair, row):
            a, b = row[pair[0]], row[pair[1]]
            return (a, b) if a < b else (b, a)

        pairs = combinations(range(len(self.hyperplanes)), 2)
        return orbits(pairs, self.generator_rows, step)

    @cached_property
    def ordered_pair_orbits(self):
        """The orbits of the ordered pairs (i, j), i != j, of hyperplane ids."""
        pairs = permutations(range(len(self.hyperplanes)), 2)
        return orbits(pairs, self.generator_rows, lambda p, row: (row[p[0]], row[p[1]]))


# ---------------------------------------------------------------------------
# constructors


def _perm_store(npoints: int):
    """(store, compose) for permutations of npoints points: store makes one
    from a sequence of point indices, and compose(g, s) is g∘s, x -> g[s[x]].
    Up to 256 points a permutation is bytes, one per point, and g∘s is
    s.translate(g padded to 256 bytes), one C call; past that, a tuple."""
    if npoints <= 256:
        return bytes, lambda g, s: s.translate(g.ljust(256, b"\0"))
    return tuple, lambda g, s: tuple(map(g.__getitem__, s))


def _monomial_perm(m, n, perm, exps):
    # the point zeta^k e_l has index k*n + l
    return tuple(
        ((k + e) % m) * n + t for k in range(m) for t, e in zip(perm, exps)
    )


def _diagonal_exps(m, p, n):
    """Exponent vectors of the diagonal elements of (m, p, n), in the
    order build_imprimitive numbers them."""
    return [exps for exps in product(range(m), repeat=n) if sum(exps) % p == 0]


def build_imprimitive(m: int, p: int, n: int, cap: int = DEFAULT_CAP) -> Group:
    """The monomial group with parameters (m, p, n): monomial matrices with
    entries in the m-th roots of unity whose entry product is an (m/p)-th
    root of unity."""
    definition = group_definition({"kind": "imprimitive", "m": m, "p": p, "n": n})
    order = imprimitive_order(m, p, n)
    refuse_over_cap(definition, order, cap)
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
    store, compose = _perm_store(m * n)
    # element r * len(diagonals) + d is permutation r after diagonal d, so
    # its point map is the permutation's map composed with the diagonal's;
    # the permutations are the closure of the generators' permutation parts
    diagonals = [
        store(_monomial_perm(m, n, ident, exps)) for exps in _diagonal_exps(m, p, n)
    ]
    parts = [store(_monomial_perm(m, n, perm, [0] * n)) for perm, _ in gens]
    point_maps, tree = bfs([store(range(m * n))], parts, compose)
    perms = [compose(pm, diag) for pm in point_maps for diag in diagonals]
    if len(perms) != order:
        raise InternalInconsistency(
            f"enumerated {len(perms)} elements, closed form says {order}"
        )
    return Group(definition, perms, [_monomial_perm(m, n, *g) for g in gens], tree)


def _apply(F, rows, v, products):
    """g v in the field F, for g given as rows of (column, entry) pairs
    with every entry nonzero; zero entries of v are skipped.  products
    keeps each product of an entry and a coordinate, keyed by the pair:
    the points of a group share few coordinate values."""
    out = []
    for row in rows:
        acc = None
        for k, a in row:
            x = v[k]
            if any(x[0]):
                t = products.get((a, x))
                if t is None:
                    t = products[a, x] = F.mul(a, x)
                acc = t if acc is None else F.add(acc, t)
        out.append(F.zero if acc is None else acc)
    return tuple(out)


def build_matrix_group(
    gens,
    cap: int = DEFAULT_CAP,
    name: str = DEFAULT_NAME,
    provenance: str = DEFAULT_PROVENANCE,
) -> Group:
    """Closure of unitary generator matrices under multiplication.  Each
    generator is a square matrix of CycNumbers, ints or Fractions, as
    nested sequences.

    The generators are applied to points once, from e_1, ..., e_n until the
    point set P closes, in the field Q(zeta_N) of the definition's
    cyclotomic order N, each product of a generator entry and a coordinate
    formed once; the closure itself then runs on their permutations of P,
    in the breadth-first order of right multiplication by the
    generators."""
    gens = [_matrix(g) for g in gens]
    if not gens:
        raise InvalidParameters("at least one generator required")
    dim = len(gens[0])
    definition = _matrix_definition(name, provenance, gens)
    F = _context(definition["cyclotomic_order"])
    basis = [tuple(F.one if i == j else F.zero for i in range(dim)) for j in range(dim)]
    products = {}
    rows = []
    for g in gens:
        if len(g) != dim:
            raise InvalidParameters("generators must share one dimension")
        lifted = [[F.of(a) for a in row] for row in g]
        rows.append([[(k, a) for k, a in enumerate(r) if any(a[0])] for r in lifted])
        # g g^H = I: g maps the conjugate of its row j to e_j
        conj = [tuple(map(F.conj, r)) for r in lifted]
        if [_apply(F, rows[-1], r, products) for r in conj] != basis:
            raise InvalidParameters(
                "non-unitary generator: the construction requires matrices "
                "unitary for the standard Hermitian form"
            )
    refuse = _closure_refusal(cap)
    images = {}

    def apply(v, s):
        w = images[v, s] = _apply(F, rows[s], v, products)
        return w

    labels = range(len(gens))
    points, _ = bfs(basis, labels, apply, limit=dim * cap, refuse=refuse)
    ids = {v: x for x, v in enumerate(points)}
    store, compose = _perm_store(len(points))
    gen_perms = [store(ids[images[v, s]] for v in points) for s in labels]
    perms, tree = bfs(
        [store(range(len(points)))], gen_perms, compose, limit=cap, refuse=refuse
    )
    return Group(definition, perms, gen_perms, tree, points)


# ---------------------------------------------------------------------------
# spec operations


def orbit(G: Group, B):
    """(blocks, witnesses): the orbit of a collection under the hyperplane
    action, as sorted tuples in breadth-first order from sorted B, and per
    block an element mapping B onto it, s * (the parent's) for a block
    first reached by generator s."""
    blocks, tree = bfs(
        [tuple(sorted(B))],
        G.generator_rows,
        lambda cur, row: tuple(sorted(row[h] for h in cur)),
    )
    witnesses = [G.identity]
    for parent, k in tree[1:]:
        witnesses.append(G.mul(G.generators[k], witnesses[parent]))
    return blocks, witnesses


def stabilizer(G: Group, B) -> Subgroup:
    """Setwise stabilizer of a collection of hyperplane ids: the elements
    are a scan of the factored action rows, checked by len(orbit) * |Stab|
    = |G|; the generators are the Schreier elements u_sx^-1 s u_x of the
    orbit walk (block x, witness u_x, generator s), sifted until their
    closure has the scanned order, and that closure must equal the scan.
    A G-invariant B keeps G's generators, which action_rows found to reach
    all of G.

    The scan groups the diagonals by their image of B: permutation r after
    any diagonal of a group stabilizes B when row r maps that image into B.
    The subgroup keeps the orbit walk, and G keeps it for stabilizer_of.
    An id out of range or repeated raises InvalidParameters."""
    bset = frozenset(B)
    nhyp = len(G.hyperplanes)
    if len(bset) != len(B) or not all(0 <= h < nhyp for h in bset):
        raise InvalidParameters(
            f"collection {tuple(B)} repeats an id or leaves range({nhyp})"
        )
    prow, drow = G.action_rows
    images = {}
    for d, row in enumerate(drow):
        images.setdefault(tuple(row[h] for h in bset), []).append(d)
    members = []
    for image, ds in images.items():
        rs = range(len(prow))
        for x in image:
            rs = [r for r in rs if prow[r][x] in bset]
        members.extend(r * len(drow) + d for r in rs for d in ds)
    walk = blocks, witnesses = orbit(G, B)
    if len(blocks) * len(members) != G.order:
        raise InternalInconsistency(
            f"orbit-stabilizer fails for {blocks[0]}: {len(blocks)} * "
            f"{len(members)} != {G.order}"
        )
    scan = frozenset(members)
    gens = G.generators
    if len(blocks) > 1:
        witness = dict(zip(blocks, witnesses))
        schreier = (
            G.mul(G.inv(witness[tuple(sorted(row[h] for h in x))]), G.mul(s, u))
            for x, u in witness.items()
            for s, row in zip(G.generators, G.generator_rows)
        )
        gens, closure = _sift(G, schreier, len(scan))
        # the kept generators lie in their closure, so this puts them in the scan
        if closure != scan:
            raise InternalInconsistency(
                f"the Schreier generators of Stab({blocks[0]}) do not close to its scan"
            )
    G._stabilizers[blocks[0]] = sub = Subgroup(gens, scan, walk)
    return sub


def _sift(G: Group, candidates, order):
    """(kept, closure): each candidate outside the closure of those kept
    before it, and that closure, grown by Dimino's algorithm (whole cosets
    of the old closure per kept element, so it at least doubles) until it
    has order elements."""
    closure = {G.identity}
    kept = []
    for x in candidates:
        if len(closure) >= order:
            break
        if x in closure:
            continue
        kept.append(x)
        old = list(closure)
        reps = [G.identity]
        for r in reps:
            for s in kept:
                y = G.mul(r, s)
                if y not in closure:
                    closure.update(G.right_coset(old, y))
                    reps.append(y)
    return kept, closure


def subgroup_closure(G: Group, gens) -> Subgroup:
    """Smallest subgroup of G containing the given elements."""
    for g in gens:
        if not 0 <= g < G.order:
            raise InternalInconsistency(f"generator {g!r} is not an element index")
    return Subgroup(gens, _sift(G, gens, G.order)[1])


# ---------------------------------------------------------------------------
# serialization


def _generators_from_json(data: dict):
    return [
        _matrix([map(CycNumber.from_json, row) for row in g])
        for g in data["generators"]
    ]


def group_from_json(data: dict, cap: int = DEFAULT_CAP) -> Group:
    if data["kind"] == "imprimitive":
        return build_imprimitive(data["m"], data["p"], data["n"], cap=cap)
    named = {k: data[k] for k in ("name", "provenance") if k in data}
    return build_matrix_group(_generators_from_json(data), cap=cap, **named)


def packaged_group(name: str, cap: int = DEFAULT_CAP) -> Group:
    """Load one of the shipped matrix groups by short name."""
    return group_from_json(packaged_definition(name), cap=cap)
