"""Admissibility of transverse collections for Brauer-Chen algebras.

Every transverse collection B of reflecting hyperplanes carries a normal
subgroup K_B of its setwise stabilizer.  Whether the generator e_B of the
Brauer-Chen algebra survives in the regular module (B is "admissible"),
and how large the matrix block attached to the orbit of B is, are decided
by an exact calculus of relation vectors over the basis

    theta(s) = mu_s * s   for a reflection s with hyperplane outside B,
    theta(s) = s          for a reflection s with hyperplane inside B,
    theta(1) = 1.

Vectors are integer tuples of length N+1 where N is the number of
reflections: positions 0..N-1 follow the group's reflection list and
position N is the identity slot.  Both relation sets, Rel(B) and its
projection Rel-bar(B), are read off one list of sigma terms per
collection, formed by sigma_triples().  The main entry points are
collection(), the one record of a collection's facts (R_B, the images of
B under the reflections, the relation vectors, K_B, the A1 and A2 checks,
the verdict and the orbit), which refuses a collection that is not
transverse; classify(), which returns that record once its verdict passes
the consistency checks; and dim_from_rows(), which sums the block sizes
over an orbit table with a double-entry consistency check (it lives in
definitions, so a cache hit can run it without this module).
"""

from collections import namedtuple
from functools import cached_property
from itertools import combinations, groupby, permutations
from math import factorial

from .definitions import dim_from_rows, field_row
from .errors import InternalInconsistency, InvalidParameters
from .exact_arith import CycNumber, SpanBasis
from .reflection_groups import Group, Subgroup, subgroup_closure
from .transversality import OrbitRecord, collection_orbits, transv_table

__all__ = [
    "Collection",
    "SigmaTerm",
    "classify",
    "classify_orbits",
    "collection",
    "d0_ideal_dim",
    "dim_brauer",
    "dim_from_rows",
    "dim_g22n_formula",
    "dim_gmpn_formula",
    "orbit_records",
    "sigma_triples",
]


# ---------------------------------------------------------------------------
# relation vectors


SigmaTerm = namedtuple("SigmaTerm", "hyperplane h1 h2 plus minus")


def sigma_triples(G: Group, B):
    """Every difference element sigma^H_{H1,H2} = sum(mu_s s, s mapping H1
    to H) - sum(mu_s s, s mapping H2 to H), for H outside B by ascending id
    and ordered pairs H1 != H2 inside B transverse to neither, as
    SigmaTerms whose plus and minus hold reflection indices."""
    table = transv_table(G)
    members = sorted(B)
    for hout in range(table.size):
        if hout in members:
            continue
        bad = [h for h in members if not table.transverse(hout, h)]
        into = {h: table.mapped_by(h, hout) for h in bad}
        for h1, h2 in permutations(bad, 2):
            yield SigmaTerm(hout, h1, h2, into[h1], into[h2])


def signed_vector(size, plus, minus, avoid=frozenset()):
    """Integer vector with +1 at each index of plus and -1 at each index of
    minus.  Relation supports never meet the collection's reflections, so
    an index of plus or minus inside avoid raises InternalInconsistency."""
    vec = [0] * size
    for s in plus:
        vec[s] += 1
    for s in minus:
        vec[s] -= 1
    hit = [s for s in (*plus, *minus) if s in avoid]
    if hit:
        raise InternalInconsistency(
            f"relation support meets the collection's reflections {sorted(hit)}"
        )
    return tuple(vec)


def _relation_vectors(col, terms):
    """The r - 1 vectors for r in R_B, then the signed vector of every
    (plus, minus) pair in terms, zero vectors and duplicates dropped."""
    size = col.nrefl + 1
    vecs = [signed_vector(size, (i,), (col.nrefl,)) for i in col.rb]
    seen = set(vecs)
    for plus, minus in terms:
        vec = signed_vector(size, plus, minus, col.rb_set)
        if any(vec) and vec not in seen:
            seen.add(vec)
            vecs.append(vec)
    return vecs


# ---------------------------------------------------------------------------
# the record of one collection


class Collection:
    """Every fact of one transverse collection B that the layers above the
    group core read: R_B, the images of B under the reflections, the
    relation vectors and their span, K_B, the A1 and A2 checks, the
    admissibility verdict and the orbit of B.  collection() keeps one per
    group and collection; the cached properties are each built on their
    first read and kept.  Its row holds for both fields: a field picks
    only the quotient, through definitions.field_row.

    B must be transverse: an id out of range, a repeated id or a
    non-transverse pair raises InvalidParameters.
    """

    def __init__(self, G, B):
        self.G = G
        self.B = tuple(sorted(B))
        self.table = transv_table(G)
        for h in self.B:
            if not 0 <= h < self.table.size:
                raise InvalidParameters(f"hyperplane {h} out of range")
        # transverse() raises NotDistinct on equal ids, so they go first
        for h1, h2 in combinations(self.B, 2):
            if h1 == h2:
                raise InvalidParameters(f"hyperplane {h1} repeats in {self.B}")
            if not self.table.transverse(h1, h2):
                raise InvalidParameters(
                    f"hyperplanes {h1} and {h2} of {self.B} are not transverse"
                )
        self.nrefl = len(G.reflections)
        # R_B: positions in G.reflections of the reflections with
        # hyperplane in B, ascending
        self.rb = tuple(sorted(i for h in self.B for i in G.hyperplane_reflections[h]))
        self.rb_set = frozenset(self.rb)
        # the image of B under each reflection, in the order of G.reflections
        self.images = tuple(
            tuple(sorted(act[h] for h in self.B))
            for act in map(G.hyperplane_action, G.reflections)
        )
        # {image B' != B: positions of the reflections mapping B to B'}
        self.movers = {}
        for s, img in enumerate(self.images):
            if img != self.B:
                self.movers.setdefault(img, []).append(s)

    @cached_property
    def sigmas(self):
        """sigma_triples(G, B), formed once for both relation sets."""
        return list(sigma_triples(self.G, self.B))

    @cached_property
    def rel_vectors(self):
        """The relation vectors Rel(B): one per r-1 for r a reflection with
        hyperplane in B, plus every sigma difference over hyperplanes outside
        B.  Zero vectors are dropped and duplicates removed."""
        return _relation_vectors(self, ((t.plus, t.minus) for t in self.sigmas))

    @cached_property
    def rel_bar_vectors(self):
        """The projected relation vectors Rel-bar(B) used by the
        admissibility checks, read off the sigma terms of Rel(B).

        Keeps the r-1 vectors and, for every image collection B' != B of B
        under a single reflection, in sorted order, each sigma term whose
        outer hyperplane lies in B' and whose pair lies outside B', both
        sides cut to the reflections that also map B to B'.
        """
        outer = {h: list(ts) for h, ts in groupby(self.sigmas, lambda t: t.hyperplane)}
        terms = (
            [tuple(filter(fiber.__contains__, side)) for side in (t.plus, t.minus)]
            for bp, fiber in sorted(self.movers.items())
            for h in bp
            for t in outer.get(h, ())
            if t.h1 not in bp and t.h2 not in bp
        )
        return _relation_vectors(self, terms)

    @cached_property
    def span(self) -> SpanBasis:
        basis = SpanBasis(self.nrefl + 1)
        for vec in self.rel_bar_vectors:
            basis.add(vec)
        return basis

    @cached_property
    def classes(self):
        """The units 0..N grouped by their reduction against the span, as
        {residue: members} in order of first member.  Two units differ by
        a span element exactly when their residues agree."""
        classes = {}
        for i in range(self.nrefl + 1):
            unit = [0] * (self.nrefl + 1)
            unit[i] = 1
            classes.setdefault(tuple(self.span.reduce(unit)), []).append(i)
        return classes

    @cached_property
    def d_vectors(self):
        """D: the differences theta(i) - theta(j) of two units in one
        class, which are the difference vectors inside the span."""
        return [
            signed_vector(self.nrefl + 1, (i,), (j,))
            for members in self.classes.values()
            for i, j in permutations(members, 2)
        ]

    @cached_property
    def p_pairs(self):
        """Ordered pairs of reflections outside R_B that share a class."""
        return [
            pair
            for members in self.classes.values()
            for pair in permutations(
                [i for i in members if i < self.nrefl and i not in self.rb_set],
                2,
            )
        ]

    @cached_property
    def products(self):
        """The products s_j^-1 s_i over p_pairs, and whether all of them
        lie in Stab(B)."""
        G, refls, inverse = self.G, self.G.reflections, self.G.reflection_inverse
        products = [G.mul(refls[inverse[j]], refls[i]) for i, j in self.p_pairs]
        return products, G.stabilizer_of(self.B).elements.issuperset(products)

    @cached_property
    def kb(self) -> Subgroup:
        """The normal subgroup K_B of Stab(B): generated by the reflections
        with hyperplane in B together with all products s2^-1 s1 where s1,
        s2 map B to one common image != B while disagreeing on every
        hyperplane of B outside that image."""
        G, refls, inverse = self.G, self.G.reflections, self.G.reflection_inverse
        gens = [refls[i] for i in self.rb]
        # cross products s2^-1 s1 for reflections with a common image of B
        for img, fiber in self.movers.items():
            outside = [h for h in self.B if h not in img]
            acts = [(i, G.hyperplane_action(refls[i])) for i in fiber]
            for (i1, a1), (i2, a2) in permutations(acts, 2):
                if all(a1[h] != a2[h] for h in outside):
                    gens.append(G.mul(refls[inverse[i2]], refls[i1]))
        sub = subgroup_closure(G, list(dict.fromkeys(gens)))
        # normal in the setwise stabilizer: conjugates of the generators stay
        for w in G.stabilizer_of(self.B).generators:
            conjugates = G.right_coset([G.mul(w, g) for g in sub.generators], G.inv(w))
            if not sub.elements.issuperset(conjugates):
                raise InternalInconsistency("K_B must be normal in Stab(B)")
        return sub

    @cached_property
    def a1(self) -> bool:
        """A1: some rel_bar_vectors entry is a unit, so e_B dies."""
        return any(sum(1 for x in vec if x) == 1 for vec in self.rel_bar_vectors)

    @cached_property
    def a2(self):
        """(D spans the span of rel_bar_vectors, R_B and D0 generate K_B).

        D holds the differences of units inside one class.  They span
        |C| - 1 dimensions per class C, on disjoint supports, so D spans
        the span exactly when that span's rank plus the number
        of classes is N+1.
        """
        span, classes = self.span, self.classes
        for members in classes.values():
            for i in members[1:]:
                star = signed_vector(self.nrefl + 1, (i,), (members[0],))
                if not span.contains(star):
                    raise InternalInconsistency(
                        f"collection {self.B}: units {members[0]} and {i} "
                        "share a class but differ outside the span"
                    )
        span_eq = span.rank + len(classes) == self.nrefl + 1
        refls = self.G.reflections
        products, sub_eq = self.products
        if sub_eq:
            gens = [refls[i] for i in self.rb] + sorted(set(products))
            closure = subgroup_closure(self.G, gens)
            sub_eq = closure.elements == self.kb.elements
        return span_eq, sub_eq

    @cached_property
    def conditional(self) -> bool:
        """A2 holds and a pair of p_pairs crosses reflection classes, so B
        is admissible only with the cross-class ratio mu at a sixth root."""
        if not all(self.a2):
            return False
        cls = self.G.reflection_class_of
        return any(cls[i] != cls[j] for i, j in self.p_pairs)

    # the verdict; every check is field-independent, and a field only picks
    # the flag: admissible_generic for independent parameters,
    # admissible_mu6 with mu at a primitive sixth root of unity (mu6)

    @property
    def admissible_generic(self) -> bool:
        return not self.a1 and not self.conditional

    @property
    def admissible_mu6(self) -> bool:
        return not self.a1

    @property
    def kb_order(self) -> int:
        return self.kb.order

    @cached_property
    def orbit(self) -> OrbitRecord:
        """The orbit of B, read off the walk of its stabilizer, which
        collection_orbits leaves in G's memo for each representative."""
        stab = self.G.stabilizer_of(self.B)
        orb = stab.walk[0]
        return OrbitRecord(min(orb), len(orb), stab.order, len(self.B))

    @property
    def row(self):
        """B's orbit-table row for both fields, keyed in the order of
        cli.ROW_KEYS; definitions.field_row appends a field's quotient."""
        return {
            "representative": list(self.orbit.representative),
            "cardinality": self.orbit.cardinality,
            "orbit_size": self.orbit.orbit_size,
            "stab_order": self.orbit.stab_order,
            "kb_order": self.kb_order,
            "admissible_generic": self.admissible_generic,
            "admissible_mu6": self.admissible_mu6,
            "conditional": self.conditional,
        }

    def quotient(self, mu6=False) -> int:
        """|Stab(B)/K_B| when B is admissible over the field, else 0."""
        return field_row(self.row, mu6)["quotient_size"]


def collection(G: Group, B) -> Collection:
    """The record of the collection B, built on first use and kept in the
    group for every later call with the same ids in any order."""
    key = tuple(sorted(B))
    col = G._adm_cache.get(key)
    if col is None:
        col = G._adm_cache[key] = Collection(G, key)
    return col


# ---------------------------------------------------------------------------
# ideal closure for conditional collections


def d0_ideal_dim(G: Group, B, mu: CycNumber) -> int:
    """Dimension of the two-sided ideal of the stabilizer group algebra
    generated by D0, with the cross-class ratio specialized to mu.

    mu must be a sixth root of unity.  The computation runs over the
    cyclotomic field of order six, with left and right multiplication by
    stabilizer generators acting as basis permutations.
    """
    if mu**6 != CycNumber.rational(1):
        raise InvalidParameters(f"mu = {mu} is not a sixth root of unity")
    col = collection(G, B)
    if not all(col.a2):
        raise InvalidParameters(f"collection {col.B} lacks property A2")
    products, in_stab = col.products
    if not in_stab:
        raise InternalInconsistency("a D0 product leaves Stab(B) under A2")

    classes = G.reflection_classes
    dist = {G.reflection_index[H.dist_reflection] for H in G.hyperplanes}
    orb1 = next((set(c) for c in classes if dist <= set(c)), None)
    if len(classes) > 2 or orb1 is None:
        raise InternalInconsistency(
            "the distinguished reflections fill one of at most two classes"
        )

    stab = G.stabilizer_of(col.B)
    members = sorted(stab.elements)
    if members[0] != G.identity:
        raise InternalInconsistency("the identity sorts first in Stab(B)")
    pos = {g: k for k, g in enumerate(members)}
    size = len(members)

    zero = CycNumber.rational(0)
    one = CycNumber.rational(1)

    def ratio(i, j):
        if (i in orb1) == (j in orb1):
            return one
        return mu.inv() if i in orb1 else mu

    # (stabilizer position, ratio) pairs, first occurrences in order
    refls = G.reflections
    seeds = dict.fromkeys(
        [(pos[refls[i]], one) for i in col.rb]
        + [(pos[g], ratio(i, j)) for (i, j), g in zip(col.p_pairs, products)]
    )

    basis = SpanBasis(size)
    work = []
    for k, c in seeds:
        vec = [zero] * size
        vec[k] = vec[k] + one
        vec[0] = vec[0] - c
        if basis.add(vec):
            work.append(basis.rows[-1])

    left = G.left_mul(members)
    moves = []
    for g in stab.generators:
        moves.append([pos[x] for x in left(g)])
        moves.append([pos[x] for x in G.right_coset(members, g)])
    while work:
        vec = work.pop()
        for move in moves:
            img = [zero] * size
            for k, x in enumerate(vec):
                if x:
                    img[move[k]] = x
            if basis.add(img):
                work.append(basis.rows[-1])
    return basis.rank


# ---------------------------------------------------------------------------
# classification


def _imprimitive_closed_form(G: Group, B) -> bool:
    """Field-independent admissibility for the monomial family."""
    if not B:
        return True
    keys = [G.hyperplanes[h].key for h in B]
    if (G.m, G.p) != (2, 2):
        if len(B) == 1:
            return True
        return all(k[0] == "pair" for k in keys)
    labels = {}
    for k in keys:
        if k[0] != "pair":
            raise InternalInconsistency(f"hyperplane {k} in a (2,2,n) group")
        labels.setdefault((k[1], k[2]), set()).add(k[3])
    if any(len(v) == 2 for v in labels.values()):
        return all(len(v) == 2 for v in labels.values())
    return True


def classify(G: Group, B) -> Collection:
    """The record of B, collection(G, B), once its verdict has passed three
    checks: A1 and A2 never both hold, the monomial family's closed form
    agrees, and |K_B| divides |Stab(B)|."""
    col = collection(G, B)
    if col.a1 and all(col.a2):
        raise InternalInconsistency(f"collection {col.B}: A1 and A2 cannot both hold")
    if G.kind == "imprimitive" and not G.reducible:
        expected = _imprimitive_closed_form(G, col.B)
        if expected != col.admissible_generic or expected != col.admissible_mu6:
            raise InternalInconsistency(
                f"collection {col.B}: closed-form says admissible={expected}, "
                f"machinery says generic={col.admissible_generic} "
                f"mu6={col.admissible_mu6}"
            )
    if col.orbit.stab_order % col.kb_order:
        raise InternalInconsistency(
            f"|K_B| = {col.kb_order} does not divide |Stab(B)| = {col.orbit.stab_order}"
        )
    return col


def orbit_records(G: Group):
    """collection_orbits(G), computed once per group."""
    if G._orbit_records is None:
        G._orbit_records = collection_orbits(G)
    return G._orbit_records


def classify_orbits(G: Group):
    """The classified record of each orbit's representative, ordered by
    (cardinality, representative)."""
    return [classify(G, rec.representative) for rec in orbit_records(G)]


# ---------------------------------------------------------------------------
# dimensions


def dim_brauer(G: Group, mu6=False) -> int:
    """Dimension of the Brauer-Chen algebra with generic parameters, or
    with mu at a primitive sixth root of unity when mu6, by dim_from_rows
    over the field's rows of the orbit classification."""
    return dim_from_rows(G.order, [field_row(r.row, mu6) for r in classify_orbits(G)])


def _matchings_sum(n: int) -> int:
    """Sum over r >= 1 of (number of r-edge matchings on n points)^2 times
    (n - 2r)!, the part both closed forms share."""
    return sum(
        (factorial(n) // (factorial(r) * 2**r * factorial(n - 2 * r))) ** 2
        * factorial(n - 2 * r)
        for r in range(1, n // 2 + 1)
    )


def dim_gmpn_formula(m: int, p: int, n: int) -> int:
    """Closed form for the dimension over the monomial group with
    parameters (m, p, n), excluding the (2,2) family."""
    if m < 1 or n < 2 or p < 1 or m % p:
        raise InvalidParameters(f"bad parameters ({m},{p},{n})")
    if (m, p) == (2, 2):
        raise InvalidParameters("the (2,2) family has its own closed form")
    base = factorial(n) * m**n // p
    diag = 0 if p == m else factorial(n) * m ** (n - 1) * n
    if (m ** (n + 1)) % p:
        raise InternalInconsistency(f"{p} does not divide {m}^{n + 1}")
    return base + diag + (m ** (n + 1) // p) * _matchings_sum(n)


def dim_g22n_formula(n: int) -> int:
    """Closed form for the dimension over the (2,2,n) monomial group."""
    if n < 3:
        raise InvalidParameters("the (2,2,n) closed form needs n >= 3")
    return factorial(n) * 2 ** (n - 1) + (2**n + 1) * _matchings_sum(n)
