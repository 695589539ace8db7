"""Transversality of reflecting hyperplanes and transverse collections.

Two distinct hyperplanes H1, H2 are transverse when no root of a third
hyperplane lies in the linear span of a root of H1 and a root of H2.  The
empty collection counts as transverse with everything.

The central object is the table holding, for every ordered pair of
hyperplanes, either a transversality flag or the list of reflections
mapping the first hyperplane onto the second.  Everything downstream
(collection enumeration, orbit splitting, admissibility) reads this table.

No orbit is computed here: the table reads G.pair_orbits, and the orbits
of collections are the walks reflection_groups.stabilizer keeps.
"""

from math import lcm

from .errors import InternalInconsistency, NotDistinct
from .exact_arith import SpanBasis, _context
from .reflection_groups import Group, Hyperplane, stabilizer

__all__ = [
    "TransvTable",
    "OrbitRecord",
    "is_transverse",
    "transv_table",
    "check_all_pairs",
    "enumerate_collections",
    "collection_orbits",
]


def _root_span_transverse(G: Group, H1: Hyperplane, H2: Hyperplane) -> bool:
    span = SpanBasis(len(H1.root))
    span.add(H1.root)
    span.add(H2.root)
    for h in G.hyperplanes:
        if h.id in (H1.id, H2.id):
            continue
        if span.contains(h.root):
            return False
    return True


def _imprimitive_transverse(G: Group, H1: Hyperplane, H2: Hyperplane) -> bool:
    # combinatorial fast path, by hyperplane type
    k1, k2 = H1.key, H2.key
    if k1[0] == "diag" and k2[0] == "diag":
        return False
    if k1[0] == "diag" or k2[0] == "diag":
        if k2[0] == "diag":
            k1, k2 = k2, k1
        return k1[1] not in (k2[1], k2[2])
    shared = len({k1[1], k1[2]} & {k2[1], k2[2]})
    if shared == 0:
        return True
    if shared == 1:
        return False
    return (G.m, G.p) == (2, 2)


def _check_type_shortcut(G: Group, H1: Hyperplane, H2: Hyperplane, got, decider):
    """On a monomial group, raise InternalInconsistency unless the type
    shortcut agrees with got, the verdict of another decider, which the
    message words as decider ("span criterion says")."""
    if G.kind == "imprimitive" and _imprimitive_transverse(G, H1, H2) != got:
        raise InternalInconsistency(
            f"transversality of ({H1.label}, {H2.label}): "
            f"type shortcut says {not got}, {decider} {got}"
        )


def is_transverse(G: Group, H1: Hyperplane, H2: Hyperplane) -> bool:
    """Whether no root of a third hyperplane lies in span(root(H1), root(H2)).

    For monomial groups a combinatorial shortcut by hyperplane type is
    checked against the span criterion.
    """
    if H1.id == H2.id:
        raise NotDistinct(f"transversality needs distinct hyperplanes, got {H1}")
    got = _root_span_transverse(G, H1, H2)
    _check_type_shortcut(G, H1, H2, got, "span criterion says")
    return got


class TransvTable:
    """Square table over hyperplane ids: transversality flags plus, for every
    ordered non-transverse pair (i, j), the reflections mapping H_i to H_j.

    A transverse cell never carries a mapping reflection; the converse can
    fail (some non-transverse pairs are mapped by no reflection at all).
    """

    __slots__ = ("group", "size", "_transverse", "_mapped")

    def __init__(self, group, size, transverse, mapped):
        self.group = group
        self.size = size
        self._transverse = transverse
        self._mapped = mapped

    def transverse(self, i: int, j: int) -> bool:
        if i == j:
            raise NotDistinct(f"diagonal cell ({i},{j}) is unused")
        return j in self._transverse[i]

    def mapped_by(self, i: int, j: int):
        """Indices of the reflections taking hyperplane i to hyperplane j."""
        if i == j:
            raise NotDistinct(f"diagonal cell ({i},{j}) is unused")
        return self._mapped.get((i, j), ())

    def row(self, i: int):
        """Ids transverse to hyperplane i, ascending."""
        return sorted(self._transverse[i])

    def __repr__(self):
        return f"TransvTable({self.group.name}, size={self.size})"


def transv_table(G: Group) -> TransvTable:
    """Build (once per group) the full transversality/mapping table.

    W permutes the flats of its arrangement, so whether H_i meets H_j in a
    flat on no third hyperplane is constant on each W-orbit of pairs: the
    span criterion runs once per orbit of G.pair_orbits.  On monomial
    groups the type shortcut still answers every pair and must agree
    with it."""
    if G._transv_table is not None:
        return G._transv_table
    hyps = G.hyperplanes
    size = len(hyps)
    mapped = {}
    for ridx, s in enumerate(G.reflections):
        act = G.hyperplane_action(s)
        for i in range(size):
            j = act[i]
            if j != i:
                mapped.setdefault((i, j), []).append(ridx)
    mapped = {cell: tuple(v) for cell, v in mapped.items()}
    transverse = [set() for _ in range(size)]
    for members in G.pair_orbits:
        i, j = members[0]
        flag = _root_span_transverse(G, hyps[i], hyps[j])
        for a, b in members:
            _check_type_shortcut(
                G, hyps[a], hyps[b], flag, "span criterion on its pair orbit says"
            )
            if flag:
                if (a, b) in mapped or (b, a) in mapped:
                    raise InternalInconsistency(
                        f"transverse pair ({hyps[a].label}, {hyps[b].label}) "
                        "has a mapping reflection"
                    )
                transverse[a].add(b)
                transverse[b].add(a)
    # mapping lists of (i,j) and (j,i) are each other's inverses
    for (i, j), lst in mapped.items():
        if {G.reflection_inverse[r] for r in lst} != set(mapped.get((j, i), ())):
            raise InternalInconsistency(
                f"mapping reflections of ({i}, {j}) and ({j}, {i}) are not inverse"
            )
    tbl = TransvTable(G, size, [frozenset(r) for r in transverse], mapped)
    G._transv_table = tbl
    return tbl


def _root_lines(G: Group):
    """Each root once in Z[zeta_N]^n, N the cyclotomic order: the power-basis
    coefficients of its coordinates over their common denominator, which
    keeps the root on its line."""
    F = _context(G.cyclotomic_order)
    out = []
    for h in G.hyperplanes:
        vals = [F.of(x) for x in h.root]
        den = lcm(*(d for _, d in vals))
        out.append(tuple(tuple(c * (den // d) for c in nums) for nums, d in vals))
    return F, out


def _transverse_row(G: Group, F, roots, i: int) -> set:
    """Ids j with H_j transverse to H_i.  Modulo root i, with p its first
    nonzero coordinate, root k is q_k = r_i[p] r_k - r_k[p] r_i with
    coordinate p dropped, no inverse taken; r_k lies in span(r_i, r_j)
    exactly when q_k is proportional to q_j.  So H_j is transverse to H_i
    when q_j is alone in its class of proportional vectors: the classes
    split each support's bucket by 2 x 2 minors against a representative."""
    times = F.times
    ri = roots[i]
    p = next(c for c, x in enumerate(ri) if any(x))
    a = ri[p]
    rest = [c for c in range(len(ri)) if c != p]
    buckets = {}  # support -> [(representative q, members)]
    for k, rk in enumerate(roots):
        if k == i:
            continue
        b = rk[p]
        q = [
            tuple(u - v for u, v in zip(times(a, rk[c]), times(b, ri[c])))
            for c in rest
        ]
        support = tuple(c for c, x in enumerate(q) if any(x))
        if not support:
            hyps = G.hyperplanes
            raise InternalInconsistency(
                f"hyperplanes {hyps[i].label} and {hyps[k].label} share a root line"
            )
        s, *others = support
        classes = buckets.setdefault(support, [])
        for rep, members in classes:
            if all(times(q[s], rep[c]) == times(rep[s], q[c]) for c in others):
                members.append(k)
                break
        else:
            classes.append((q, [k]))
    return {
        members[0]
        for classes in buckets.values()
        for _, members in classes
        if len(members) == 1
    }


def check_all_pairs(G: Group):
    """Compare every ordered cell of the table with an all-pairs oracle
    independent of its span tests: the root-line classes modulo each root
    in turn, one division-free reduction per ordered pair.  On monomial
    groups the type shortcut must agree on every pair.  A disagreeing cell
    raises InternalInconsistency."""
    tbl = transv_table(G)
    hyps = G.hyperplanes
    F, roots = _root_lines(G)
    for i in range(tbl.size):
        row = _transverse_row(G, F, roots, i)
        for j in range(tbl.size):
            if j == i:
                continue
            got = j in row
            if j > i:
                _check_type_shortcut(
                    G, hyps[i], hyps[j], got, "the all-pairs root-line classes say"
                )
            if got != tbl.transverse(i, j):
                raise InternalInconsistency(
                    f"table cell ({hyps[i].label}, {hyps[j].label}) says "
                    f"{not got}, the all-pairs root-line classes say {got}"
                )


def enumerate_collections(G: Group):
    """All pairwise-transverse collections of hyperplane ids, the empty one
    first, then in lexicographic order."""
    tbl = transv_table(G)
    out = [()]

    def extend(prefix, start):
        for h in range(start, tbl.size):
            if all(h in tbl._transverse[b] for b in prefix):
                cur = prefix + (h,)
                out.append(cur)
                extend(cur, h + 1)

    extend((), 0)
    return out


class OrbitRecord:
    """One orbit of transverse collections under the hyperplane action."""

    __slots__ = ("representative", "orbit_size", "stab_order", "cardinality")

    def __init__(self, representative, orbit_size, stab_order, cardinality):
        self.representative = representative
        self.orbit_size = orbit_size
        self.stab_order = stab_order
        self.cardinality = cardinality

    def __repr__(self):
        return (
            f"OrbitRecord({self.representative}, orbit={self.orbit_size}, "
            f"stab={self.stab_order})"
        )


def collection_orbits(G: Group):
    """Split the transverse collections into orbits; one record per orbit,
    ordered by (cardinality, lexicographically smallest member).

    Each orbit is the walk of the stabilizer of its first collection met,
    scanned and sifted afresh, checking orbit-stabilizer, and kept by
    stabilizer for G.stabilizer_of."""
    cols = enumerate_collections(G)
    universe = set(cols)
    seen = set()
    records = []
    for B in cols:
        if B in seen:
            continue
        stab = stabilizer(G, B)
        orb = stab.walk[0]
        # the enumeration ascends, so B is the smallest member of its orbit
        if min(orb) != B:
            raise InternalInconsistency(
                f"the orbit of {B} has the smaller member {min(orb)}, met later"
            )
        if not universe.issuperset(orb):
            raise InternalInconsistency(
                f"the orbit of {B} leaves the set of transverse collections"
            )
        seen.update(orb)
        records.append(OrbitRecord(B, len(orb), stab.order, len(B)))
    if len(seen) != len(cols):
        raise InternalInconsistency("the orbits do not cover the collections")
    records.sort(key=lambda r: (r.cardinality, r.representative))
    return records

