"""Freeness certificates for the collection basis.

Decides, per group, whether the diagram algebra is a free module over its
formal coefficient ring and reports the certificate used.  Four routes:

  * monomial groups carry the collection basis outright;
  * an exceptional group whose dimension grows when the parameters are
    specialized to a primitive sixth root cannot be free, and the two
    dimensions are the witness;
  * for the remaining exceptional groups the certificate is a dichotomy
    checked orbit by orbit: either some relation vector is literally a
    basis unit (F1), or every relation satisfies the bar condition and
    the difference vectors lie in the integer lattice spanned by the
    projected relations and the tau vectors (F2);
  * the 1296-element rank-three group with 21 hyperplanes escapes the
    dichotomy and instead gets a dedicated geometric suite that pins its
    transverse collections down to singletons, yielding a basis indexed
    by hyperplanes alone.

Integer-lattice membership is decided over the integers, through a
Hermite basis of the lattice; a rational-span check would accept strictly
more vectors and is exactly the wrong test here.
"""

from itertools import combinations

from .admissibility import classify_orbits, collection, dim_brauer, signed_vector
from .errors import InternalInconsistency
from .exact_arith import z_span_test
from .reflection_groups import Group
from .transversality import transv_table


# ---------------------------------------------------------------------------
# bar condition


def rel_supports(G: Group, B):
    """Group-element supports of the relation vectors, one frozenset of
    element indices per entry of collection(G, B).rel_vectors: the
    reflections at the nonzero positions below N, plus the identity when
    slot N is nonzero.

    Reading the support off the vector loses nothing: the plus and minus
    sets of a sigma term never overlap, since a reflection mapping both
    H1 != H2 onto H would not permute the hyperplanes, so no term cancels.
    """
    refls = G.reflections
    nrefl = len(refls)
    out = []
    for vec in collection(G, B).rel_vectors:
        support = {refls[s] for s in range(nrefl) if vec[s]}
        if vec[nrefl]:
            support.add(G.identity)
        out.append(frozenset(support))
    return out


def bar_condition(G: Group, support, B) -> bool:
    """Whether the union of the images wB, for w ranging over the support
    of a relation element, is itself a transverse collection."""
    table = transv_table(G)
    union = set()
    for w in support:
        act = G.hyperplane_action(w)
        union.update(act[h] for h in B)
    return all(table.transverse(a, b) for a, b in combinations(sorted(union), 2))


# ---------------------------------------------------------------------------
# acceptable pairs and tau vectors


def acceptable_hyperplanes(G: Group, B):
    """Hyperplanes H outside B, non-transverse with B, such that for every
    member of B non-transverse with H all reflections mapping that member
    to H move B to one and the same collection."""
    table = transv_table(G)
    images = collection(G, B).images
    bset = frozenset(B)
    out = []
    for hid in range(table.size):
        if hid in bset:
            continue
        clash = [h for h in bset if not table.transverse(h, hid)]
        if clash and all(
            len({images[s] for s in table.mapped_by(h, hid)}) == 1 for h in clash
        ):
            out.append(hid)
    return out


def acceptable_pairs(G: Group, B):
    """Pairs of distinct acceptable hyperplanes that appear together in
    some one-reflection image of B.  Sorted, each pair ascending."""
    acc = acceptable_hyperplanes(G, B)
    if len(acc) < 2:
        return []
    neighbors = [frozenset(bp) for bp in sorted(set(collection(G, B).images))]
    return [
        (i, j)
        for i, j in combinations(acc, 2)
        if any(i in bp and j in bp for bp in neighbors)
    ]


class TauVector:
    """Difference of the two mapped-reflection sums attached to an
    acceptable pair: the reflections carrying a member of B to the first
    hyperplane enter with +1, those carrying it to the second with -1.
    Entries live at reflection positions only.
    """

    __slots__ = ("vector", "h_plus", "h_minus", "source")

    def __init__(self, vector, h_plus, h_minus, source):
        vector = tuple(vector)
        if vector[-1] != 0:
            raise InternalInconsistency("tau touches the identity position")
        if any(x not in (-1, 0, 1) for x in vector):
            raise InternalInconsistency(f"tau entry outside -1, 0, 1: {vector}")
        self.vector = vector
        self.h_plus = h_plus
        self.h_minus = h_minus
        self.source = source

    @property
    def support(self):
        """Reflection indices carrying a nonzero entry."""
        return tuple(i for i, x in enumerate(self.vector[:-1]) if x)

    def __repr__(self):
        return (
            f"TauVector(H{self.source}->H{self.h_plus} minus "
            f"H{self.source}->H{self.h_minus})"
        )


def rel_tau(G: Group, B):
    """One TauVector per acceptable pair and per member of B
    non-transverse with both halves; zero differences are dropped."""
    table = transv_table(G)
    nrefl = len(G.reflections)
    rb = collection(G, B).rb_set
    out = []
    for i, j in acceptable_pairs(G, B):
        for k in sorted(set(B)):
            if table.transverse(k, i) or table.transverse(k, j):
                continue
            vec = signed_vector(
                nrefl + 1, table.mapped_by(k, i), table.mapped_by(k, j), rb
            )
            if any(vec):
                out.append(TauVector(vec, i, j, k))
    return out


# ---------------------------------------------------------------------------
# the F dichotomy


def check_F(G: Group, B):
    """The per-collection freeness conditions (F1, F2a, F2b).

    F1: some relation vector is literally a basis unit, so e_B dies.
    F2a: every relation element satisfies the bar condition.
    F2b: granted both halves of the second admissibility condition, every
    difference vector is an integer combination of the projected
    relations together with the tau vectors.  Without that condition the
    lattice test is vacuous and F2b reports true.
    """
    col = collection(G, B)
    f1 = any(sum(1 for x in vec if x) == 1 for vec in col.rel_vectors)
    f2a = all(bar_condition(G, sup, B) for sup in rel_supports(G, B))
    if all(col.a2):
        member = z_span_test(
            list(col.rel_bar_vectors) + [t.vector for t in rel_tau(G, B)],
            col.nrefl + 1,
        )
        f2b = all(map(member, col.d_vectors))
    else:
        f2b = True
    return f1, f2a, f2b


# ---------------------------------------------------------------------------
# the geometric route for the 21-hyperplane group


def g26_geometry_suite(G: Group):
    """Named geometric checks behind the singleton-basis route.

    The target shape: hyperplanes split into an order-3 orbit of size 12
    and an order-2 orbit of size 9; each order-3 hyperplane is transverse
    with exactly three hyperplanes, all order-2, and the triple determines
    it; the order-2 orbit is internally non-transverse; the transverse
    pairs number 36 and form a single orbit; and for each order-3
    hyperplane some reflection fixing it cycles its three partners.  On a
    group without this shape the first check fails and the rest are
    reported false without being attempted.
    """
    table = transv_table(G)
    hyps = G.hyperplanes
    report = {
        "orbit_split": False,
        "triple_partners": False,
        "partners_determine": False,
        "order_two_nontransverse": False,
        "max_cardinality_two": False,
        "pair_count": 0,
        "pair_orbit_count": 0,
        "single_pair_orbit": False,
        "partners_linked": False,
    }

    orbs = sorted(map(frozenset, G.hyperplane_orbits), key=len, reverse=True)
    if len(orbs) == 2:
        o1, o2 = orbs
        orders1 = {hyps[h].order_m for h in o1}
        orders2 = {hyps[h].order_m for h in o2}
        report["orbit_split"] = (
            len(o1) == 12 and len(o2) == 9 and orders1 == {3} and orders2 == {2}
        )
    if not report["orbit_split"]:
        return _with_all_pass(report)

    partners = {
        h: frozenset(k for k in range(table.size) if k != h and table.transverse(h, k))
        for h in o1
    }
    report["triple_partners"] = all(
        len(p) == 3 and p <= o2 for p in partners.values()
    )
    report["partners_determine"] = len(set(partners.values())) == len(o1)
    report["order_two_nontransverse"] = not any(
        table.transverse(a, b) for a, b in combinations(sorted(o2), 2)
    )

    recs = classify_orbits(G)
    by_card = {}
    for rec in recs:
        by_card.setdefault(rec.orbit.cardinality, []).append(rec)
    report["max_cardinality_two"] = max(by_card) == 2
    pair_recs = by_card.get(2, [])
    report["pair_count"] = sum(rec.orbit.orbit_size for rec in pair_recs)
    report["pair_orbit_count"] = len(pair_recs)
    report["single_pair_orbit"] = (
        report["pair_count"] == 36 and report["pair_orbit_count"] == 1
    )

    refls = G.reflections
    linked = True
    for h in sorted(o1):
        trip = sorted(partners[h])
        found = False
        for s in refls:
            act = G.hyperplane_action(s)
            if act[h] != h:
                continue
            p = trip[0]
            if act[p] != p and {p, act[p], act[act[p]]} == set(trip):
                found = True
                break
        if not found:
            linked = False
            break
    report["partners_linked"] = linked
    return _with_all_pass(report)


def _with_all_pass(report):
    """report with all_pass appended: whether its checks, the bool
    entries, all passed."""
    report["all_pass"] = all(v for v in report.values() if isinstance(v, bool))
    return report


# ---------------------------------------------------------------------------
# verdicts


class FreenessReport:
    """Outcome of the freeness decision for one group.

    verdict is one of "free", "not_free", "unverified"; route names the
    certificate that settled it; basis describes the module basis when
    free; witness carries the two dimensions when not free; orbit_checks
    holds one (F1, F2a, F2b) row per orbit of transverse collections; and
    geometry is the suite report when the geometric route ran.
    """

    __slots__ = ("group", "verdict", "route", "basis", "witness",
                 "orbit_checks", "geometry")

    def __init__(self, group, verdict, route, basis=None, witness=None,
                 orbit_checks=(), geometry=None):
        self.group = group
        self.verdict = verdict
        self.route = route
        self.basis = basis
        self.witness = witness
        self.orbit_checks = list(orbit_checks)
        self.geometry = geometry

    def as_dict(self):
        return {
            "group": self.group,
            "verdict": self.verdict,
            "route": self.route,
            "basis": self.basis,
            "witness": self.witness,
            "orbit_checks": [dict(row) for row in self.orbit_checks],
            "geometry": dict(self.geometry) if self.geometry else None,
        }

    def __repr__(self):
        return f"FreenessReport({self.group}, {self.verdict} via {self.route})"


COLLECTION_BASIS = "{w e_B : B admissible, w in W/K_B}"
SINGLETON_BASIS = "{w e_H : H a hyperplane, w in W/W_H}"


def _orbit_checks(G: Group, recs):
    rows = []
    for rec in recs:
        rep = rec.orbit.representative
        f1, f2a, f2b = check_F(G, rep)
        rows.append(
            {
                "representative": list(rep),
                "cardinality": rec.orbit.cardinality,
                "f1": f1,
                "f2a": f2a,
                "f2b": f2b,
                "dichotomy": f1 or (f2a and f2b),
            }
        )
    return rows


def freeness_verdict(G: Group) -> FreenessReport:
    """Decide freeness for one group and say which certificate did it.

    The dimension for generic parameters is compared with the dimension
    at a primitive sixth root, both from one classification.  Monomial
    groups are free with the collection basis; the orbit-by-orbit
    dichotomy and equal dimensions are their oracle, and a group failing
    it raises InternalInconsistency.  For the others a jump rules freeness
    out.  With equal dimensions, a group of the dedicated 21-hyperplane
    shape is free on the singleton basis; otherwise the dichotomy must
    hold everywhere, and a group failing both paths stays unverified.
    """
    recs = classify_orbits(G)
    rows = _orbit_checks(G, recs)
    dim_generic, dim_sixth = dim_brauer(G), dim_brauer(G, True)
    dichotomy = all(row["dichotomy"] for row in rows)
    if G.kind == "imprimitive":
        if not dichotomy or dim_generic != dim_sixth:
            raise InternalInconsistency(
                f"monomial group {G.name} fails the freeness dichotomy or its "
                f"dimensions differ: {dim_generic} generic, {dim_sixth} at mu6"
            )
        return FreenessReport(
            G.name, "free", "monomial-family", basis=COLLECTION_BASIS,
            orbit_checks=rows,
        )

    if dim_generic != dim_sixth:
        if dim_generic > dim_sixth:
            raise InternalInconsistency(
                f"specialization removed relations: {dim_generic} > {dim_sixth}"
            )
        return FreenessReport(
            G.name, "not_free", "dimension-jump",
            witness={"dim_generic": dim_generic, "dim_sixth_root": dim_sixth},
            orbit_checks=rows,
        )

    geometry = g26_geometry_suite(G)
    if geometry["all_pass"]:
        return FreenessReport(
            G.name, "free", "singleton-geometry", basis=SINGLETON_BASIS,
            orbit_checks=rows, geometry=geometry,
        )

    if dichotomy:
        return FreenessReport(
            G.name, "free", "collection-dichotomy", basis=COLLECTION_BASIS,
            orbit_checks=rows,
        )
    return FreenessReport(G.name, "unverified", "none", orbit_checks=rows)
