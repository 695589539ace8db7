"""Element arithmetic on values, kept as a test reference: products,
inverses, identity tests and orders of matrices (tuples of row tuples of
CycNumbers), monomial elements in permutation form, and the closed-form
K_B membership test over monomial groups.  The package forms every product
on element indices, so these are the independent side that G.mul, G.inv,
G.element, the hyperplane build and collection(G, B).kb are tested against.

Also the unfactored hyperplane action: the |G| x #H table filled along a
breadth-first search over the generators, and the stabilizer scan over
every row of it, the side that the factored rows are tested against.

Also the sigma terms behind the relation sets: the walk of every outer
hyperplane for Rel(B), and the walk per image collection B' with its own
table of cut cells for Rel-bar(B), the side that a collection's one list
of sigma terms is tested against.
"""

from itertools import permutations

from bct.admissibility import collection
from bct.errors import InternalInconsistency, InvalidParameters
from bct.exact_arith import CycNumber, zeta
from bct.reflection_groups import bfs
from bct.transversality import transv_table


def mul(a, b):
    """The product a*b of two matrices."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def inv(g):
    """The inverse of a unitary matrix, its Hermitian transpose."""
    n = len(g)
    return tuple(tuple(g[j][i].conj() for j in range(n)) for i in range(n))


def is_identity(g) -> bool:
    n = len(g)
    return all(g[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def trace(g) -> CycNumber:
    t = g[0][0]
    for i in range(1, len(g)):
        t = t + g[i][i]
    return t


def identity_matrix(n: int):
    one, zero = CycNumber.rational(1), CycNumber.rational(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def element_order(g) -> int:
    k, h = 1, g
    while not is_identity(h):
        h = mul(h, g)
        k += 1
        if k > 10_000:
            raise InternalInconsistency("element order exceeds 10000")
    return k


# ---------------------------------------------------------------------------
# monomial elements in permutation form: (perm, exps), column l carrying
# zeta_m^exps[l] in row perm[l]


def perm_exps(G, i):
    """(perm, exps) of element i of a monomial group, read off its frame:
    column l goes to the point exps[l]*n + perm[l]."""
    n = G.n
    frame = G._frames[i]
    return tuple(x % n for x in frame), tuple(x // n for x in frame)


def mono_mul(m, a, b):
    """The product a*b of two monomial elements over the m-th roots."""
    (p, x), (q, y) = a, b
    n = len(p)
    return (
        tuple(p[q[c]] for c in range(n)),
        tuple((x[q[c]] + y[c]) % m for c in range(n)),
    )


def mono_inv(m, g):
    """The inverse of a monomial element over the m-th roots."""
    p, x = g
    n = len(p)
    ip = [0] * n
    for l, t in enumerate(p):
        ip[t] = l
    return tuple(ip), tuple(-x[ip[c]] % m for c in range(n))


def monomial(m, perm, exps):
    """The matrix of the monomial element (perm, exps) over the m-th roots."""
    n = len(perm)
    z = CycNumber.rational(0)
    rows = [[z] * n for _ in range(n)]
    for l in range(n):
        rows[perm[l]][l] = zeta(m, exps[l])
    return tuple(map(tuple, rows))


def monomial_matrix(G, i):
    """The matrix of element i of a monomial group, built from its frame."""
    return monomial(G.m, *perm_exps(G, i))


# ---------------------------------------------------------------------------
# closed-form K_B membership over monomial groups


def collection_shape(G, B):
    """("single", blocks) for pairwise index-disjoint pair hyperplanes,
    ("doubled", blocks) for the (2,2,n) both-labels form, else None."""
    keys = [G.hyperplanes[h].key for h in B]
    if not keys or any(k[0] != "pair" for k in keys):
        return None
    flat = [i for k in keys for i in (k[1], k[2])]
    if len(set(flat)) == len(flat):
        return "single", [(k[1], k[2], k[3]) for k in keys]
    if (G.m, G.p) != (2, 2):
        return None
    labels = {}
    for k in keys:
        labels.setdefault((k[1], k[2]), set()).add(k[3])
    pairs = sorted(labels)
    flat = [i for ij in pairs for i in ij]
    if len(set(flat)) == len(flat) and all(labels[ij] == {0, 1} for ij in pairs):
        return "doubled", pairs
    return None


def kb_membership_gmpn(G, elem, B) -> bool:
    """Matrix test for membership in K_B over a monomial group, for the
    two closed-form collection shapes.

    For pairwise index-disjoint pair hyperplanes: elem stabilizes B, is
    the identity on the unused coordinates, and its diagonal part has
    block values summing to zero mod m after untwisting the labels.  For
    the doubled (2,2,n) shape: elem stabilizes B and its permutation
    fixes every unused index.  The outcome is asserted against explicit
    subgroup closure.
    """
    if G.kind != "imprimitive":
        raise InvalidParameters("membership shortcut needs a monomial group")
    shape = collection_shape(G, B)
    if shape is None:
        raise InvalidParameters(f"collection {tuple(B)} has no closed-form shape")
    kind, blocks = shape
    if not 0 <= elem < G.order:
        raise InvalidParameters(f"element {elem} out of range")

    act = G.hyperplane_action(elem)
    value = perm_exps(G, elem)
    bset = frozenset(B)
    in_stab = frozenset(act[h] for h in bset) == bset

    n = G.n
    used = {i for blk in blocks for i in blk[:2]}
    unused = [l for l in range(n) if l not in used]

    if kind == "doubled":
        got = in_stab and all(value[0][l] == l for l in unused)
    else:
        gamma = [0] * n
        for i, j, kappa in blocks:
            gamma[i] = kappa
        twist = (tuple(range(n)), tuple(gamma))
        perm, exps = mono_mul(G.m, mono_mul(G.m, mono_inv(G.m, twist), value), twist)
        ok = in_stab
        ok = ok and all(perm[l] == l and exps[l] == 0 for l in unused)
        if ok:
            lam = []
            for i, j, _ in blocks:
                if exps[i] != exps[j]:
                    ok = False
                    break
                lam.append(exps[i])
            ok = ok and sum(lam) % G.m == 0
        got = ok

    expected = elem in collection(G, B).kb
    if got != expected:
        raise InternalInconsistency(
            f"matrix membership disagrees with closure on {value} for B={tuple(B)}"
        )
    return got


def bfs_action_table(G):
    """The |G| x #H table: row w lists the image of every hyperplane id
    under w.  Filled along a breadth-first search over the generators,
    composing each parent row with a generator's row, which comes from
    conjugating the distinguished reflections."""
    gens = G.generators
    ident = tuple(range(len(G.hyperplanes)))
    gen_rows = [G._generator_action(s) for s in gens]
    states, tree = bfs([G.identity], range(len(gens)), lambda g, k: G.mul(g, gens[k]))
    if len(states) != G.order:
        raise InternalInconsistency(
            f"generators reach {len(states)} of {G.order} elements"
        )
    rows = [None] * G.order
    rows[G.identity] = ident
    for g, (parent, k) in zip(states[1:], tree[1:]):
        rows[g] = tuple(map(rows[states[parent]].__getitem__, gen_rows[k]))
    return rows


def scan_stabilizer(table, B):
    """The elements whose row maps the collection B onto itself."""
    bset = frozenset(B)
    return frozenset(
        g for g, row in enumerate(table) if all(row[h] in bset for h in bset)
    )


# ---------------------------------------------------------------------------
# the sigma terms behind Rel(B) and Rel-bar(B)


def sigma_pairs(G, B):
    """(plus, minus) of every sigma^H_{H1,H2} behind Rel(B): H outside B by
    ascending id, then ordered pairs H1 != H2 inside B transverse to
    neither, each side the reflections mapping that member to H."""
    table = transv_table(G)
    bset = frozenset(B)
    for hout in range(table.size):
        if hout in bset:
            continue
        bad = [h for h in sorted(bset) if not table.transverse(hout, h)]
        for h1, h2 in permutations(bad, 2):
            yield table.mapped_by(h1, hout), table.mapped_by(h2, hout)


def projected_sigma_pairs(col):
    """(plus, minus) of every projected sigma difference behind Rel-bar(B):
    per image B' != B in sorted order, the outer hyperplane over B' minus
    B, the pair over B minus B', each cell cut to the reflections mapping
    B to B'."""
    table = col.table
    bset = frozenset(col.B)
    for bp, movers in sorted(col.movers.items()):
        pset = frozenset(bp)
        rows = [h for h in col.B if h not in pset]
        cols = [h for h in bp if h not in bset]
        cell = {
            (hr, hc): tuple(s for s in table.mapped_by(hr, hc) if s in movers)
            for hr in rows
            for hc in cols
        }
        for hc in cols:
            bad = [hr for hr in rows if not table.transverse(hr, hc)]
            for h1, h2 in permutations(bad, 2):
                yield cell[(h1, hc)], cell[(h2, hc)]
