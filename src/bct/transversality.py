"""Transversality of reflecting hyperplanes and transverse collections.

Two distinct hyperplanes H1, H2 are transverse when no root of a third
hyperplane lies in the linear span of a root of H1 and a root of H2.  The
empty collection counts as transverse with everything.

The central object is the table holding, for every ordered pair of
hyperplanes, either a transversality flag or the list of reflections
mapping the first hyperplane onto the second.  Everything downstream
(collection enumeration, orbit splitting, admissibility) reads this table.
"""

from .errors import InternalInconsistency, NotDistinct
from .exact_arith import SpanBasis
from .reflection_groups import Group, Hyperplane, orbit, stabilizer

__all__ = [
    "TransvTable",
    "OrbitRecord",
    "is_transverse",
    "transv_table",
    "enumerate_collections",
    "collection_orbits",
    "small_orbit",
]


def _root_span_transverse(G: Group, H1: Hyperplane, H2: Hyperplane) -> bool:
    span = SpanBasis(len(H1.root))
    span.add(H1.root)
    span.add(H2.root)
    for h in G._hyperplanes:
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


def is_transverse(G: Group, H1: Hyperplane, H2: Hyperplane) -> bool:
    """Whether no root of a third hyperplane lies in span(root(H1), root(H2)).

    For monomial groups a combinatorial shortcut by hyperplane type is
    checked against the span criterion.
    """
    if H1.id == H2.id:
        raise NotDistinct(f"transversality needs distinct hyperplanes, got {H1}")
    G._build_hyperplanes()
    got = _root_span_transverse(G, H1, H2)
    if G.kind == "imprimitive":
        fast = _imprimitive_transverse(G, H1, H2)
        if fast != got:
            raise InternalInconsistency(
                f"transversality of ({H1.label}, {H2.label}): type shortcut "
                f"says {fast}, span criterion says {got}"
            )
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
    """Build (once per group) the full transversality/mapping table."""
    if G._transv_table is not None:
        return G._transv_table
    G._build_hyperplanes()
    hyps = G._hyperplanes
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
    for i in range(size):
        for j in range(i + 1, size):
            if is_transverse(G, hyps[i], hyps[j]):
                if (i, j) in mapped or (j, i) in mapped:
                    raise InternalInconsistency(
                        f"transverse pair ({hyps[i].label}, {hyps[j].label}) "
                        "has a mapping reflection"
                    )
                transverse[i].add(j)
                transverse[j].add(i)
    # mapping lists of (i,j) and (j,i) are each other's inverses
    refls = G.reflections
    for (i, j), lst in mapped.items():
        back = {G.reflection_index(G.inv(refls[r])) for r in lst}
        if back != set(mapped.get((j, i), ())):
            raise InternalInconsistency(
                f"mapping reflections of ({i}, {j}) and ({j}, {i}) are not inverse"
            )
    tbl = TransvTable(G, size, [frozenset(r) for r in transverse], mapped)
    G._transv_table = tbl
    return tbl


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
    ordered by (cardinality, lexicographically smallest member)."""
    cols = enumerate_collections(G)
    universe = set(cols)
    seen = set()
    records = []
    for B in cols:
        if B in seen:
            continue
        orb = orbit(G, B)
        if not universe.issuperset(orb):
            raise InternalInconsistency(
                f"the orbit of {B} leaves the set of transverse collections"
            )
        seen.update(orb)
        rep = min(orb)
        # scanned afresh for the check, then kept for G.stabilizer_of
        stab = stabilizer(G, rep)
        if len(orb) * stab.order != G.order:
            raise InternalInconsistency(
                f"orbit-stabilizer fails for {rep}: {len(orb)} * {stab.order} "
                f"!= {G.order}"
            )
        G._stabilizers[rep] = stab
        records.append(OrbitRecord(rep, len(orb), stab.order, len(rep)))
    if len(seen) != len(cols):
        raise InternalInconsistency("the orbits do not cover the collections")
    records.sort(key=lambda r: (r.cardinality, r.representative))
    return records


def small_orbit(G: Group, B):
    """Images of the collection B under every single reflection, deduplicated
    and sorted.  Ranges over the collections one reflection away from B."""
    B = tuple(sorted(B))
    images = set()
    for s in G.reflections:
        act = G.hyperplane_action(s)
        images.add(tuple(sorted(act[h] for h in B)))
    return sorted(images)
