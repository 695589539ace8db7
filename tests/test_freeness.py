"""Freeness certificates: bar condition, tau vectors, the F dichotomy,
verdicts, and the geometric suite for the 21-hyperplane group."""

import json

import pytest

from bct.admissibility import classify_orbits, collection, sigma_triples
from bct.brauer_modules import induce, quotient_regular_rep
from bct import freeness
from bct.errors import InternalInconsistency
from bct.freeness import (
    COLLECTION_BASIS,
    SINGLETON_BASIS,
    acceptable_hyperplanes,
    acceptable_pairs,
    bar_condition,
    check_F,
    freeness_verdict,
    g26_geometry_suite,
    rel_supports,
    rel_tau,
)
from bct.reflection_groups import packaged_group, stabilizer
from bct.transversality import transv_table


def apply_to_block0(G, M, terms):
    """Operator of sum(scale * g) restricted to the columns of block 0."""
    deg = M.degree
    acc = {}
    for scale, g in terms:
        if g is None:
            items = [((j, j), scale) for j in range(deg)]
        else:
            items = [
                (key, v * scale) for key, v in M.op_of(g).items() if key[1] < deg
            ]
        for key, val in items:
            cur = acc.get(key)
            val = val if cur is None else cur + val
            if val:
                acc[key] = val
            else:
                acc.pop(key, None)
    return acc


def tau_terms(M, tau):
    refls = M.group.reflections
    out = []
    for k in tau.support:
        scale = M.mu[k]
        if tau.vector[k] == -1:
            scale = -scale
        out.append((scale, refls[k]))
    return out


# ---------------------------------------------------------------------------
# bar condition


def test_bar_condition_fixing_supports(gmpn):
    G = gmpn(3, 1, 3)
    B = (0,)
    sups = rel_supports(G, B)
    vecs = collection(G, B).rel_vectors
    assert len(sups) == len(vecs) == 2
    for sup in sups:
        assert G.identity in sup and len(sup) == 2
        assert bar_condition(G, sup, B)


def test_bar_condition_false_case(gmpn):
    # two reflections found by direct search whose images of B unite to a
    # non-transverse set
    G = gmpn(3, 1, 3)
    refls = G.reflections
    assert bar_condition(G, (refls[0],), (0,))
    assert not bar_condition(G, (refls[0], refls[6]), (0,))


def test_bar_condition_empty_collection(gmpn):
    G = gmpn(1, 1, 3)
    assert bar_condition(G, list(G.elements), ())


def test_mixed_triple_witness(gmpn):
    # the non-admissible triple {H_1,2^0, H_1,2^1, H_3,4^0}: a two-term
    # difference of reflections moving disjoint members onto one outside
    # hyperplane satisfies the bar condition
    G = gmpn(2, 2, 4)
    B = (0, 1, 10)
    labs = {h.id: h.label for h in G.hyperplanes}
    assert sorted(labs[h] for h in B) == ["H_1,2^0", "H_1,2^1", "H_3,4^0"]
    recs = {r.orbit.representative: r for r in classify_orbits(G)}
    assert recs[B].quotient() == 0

    refls = G.reflections
    hits = []
    for term in sigma_triples(G, B):
        if len(term.plus) == 1 and len(term.minus) == 1:
            sup = frozenset(refls[s] for s in term.plus + term.minus)
            if bar_condition(G, sup, B):
                hits.append(term)
    assert len(hits) == 48
    shaped = [
        t
        for t in hits
        if labs[t.hyperplane] == "H_1,3^0"
        and labs[t.h1] == "H_1,2^0"
        and labs[t.h2] == "H_3,4^0"
    ]
    assert len(shaped) == 1
    t = shaped[0]
    assert labs[G.reflection_hyperplane[t.plus[0]]] == "H_2,3^0"
    assert labs[G.reflection_hyperplane[t.minus[0]]] == "H_1,4^0"


def test_rel_supports_align(gmpn):
    G = gmpn(2, 2, 4)
    for B in [(0,), (0, 1), (0, 1, 10)]:
        sups = rel_supports(G, B)
        vecs = collection(G, B).rel_vectors
        assert len(sups) == len(vecs)
        rb = {i for h in B for i in G.hyperplane_reflections[h]}
        for sup, vec in zip(sups, vecs):
            if vec[-1]:
                assert G.identity in sup
            else:
                assert G.identity not in sup
            nonzero = sum(1 for x in vec if x)
            assert len(sup) == nonzero


# ---------------------------------------------------------------------------
# acceptable pairs and tau vectors


def test_acceptable_empty_collection(gmpn):
    G = gmpn(3, 1, 3)
    assert acceptable_hyperplanes(G, ()) == []
    assert acceptable_pairs(G, ()) == []
    assert rel_tau(G, ()) == []


def test_acceptable_singletons_enumerated(gmpn):
    # singletons admit acceptable hyperplanes but never pairs: a
    # one-reflection image of a singleton is again a singleton
    G = gmpn(3, 1, 3)
    assert acceptable_hyperplanes(G, (0,)) == [1, 2]
    assert acceptable_hyperplanes(G, (3,)) == [4, 5, 6, 7, 8, 9, 10, 11]
    for B in [(0,), (3,), (0, 9)]:
        assert acceptable_pairs(G, B) == []
        assert rel_tau(G, B) == []


def test_g25_acceptability_by_cardinality(g25):
    # the pair has no acceptable hyperplanes at all: every outside
    # hyperplane clashing with it is reached from a member by two
    # reflections with two different image collections
    assert acceptable_hyperplanes(g25, (0, 1)) == []
    assert rel_tau(g25, (0, 1)) == []

    # the triple carries the tau supply
    acc = acceptable_hyperplanes(g25, (0, 1, 2))
    assert acc == [3, 4, 5, 6, 7, 8, 9, 10, 11]
    pairs = acceptable_pairs(g25, (0, 1, 2))
    assert pairs == [(3, 10), (3, 11), (4, 6), (4, 8), (5, 7), (5, 9),
                     (6, 8), (7, 9), (10, 11)]
    taus = rel_tau(g25, (0, 1, 2))
    assert len(taus) == 27
    rb = {i for h in (0, 1, 2) for i in g25.hyperplane_reflections[h]}
    for t in taus:
        assert t.vector[-1] == 0
        assert set(t.vector) <= {-1, 0, 1}
        assert not (set(t.support) & rb)
        assert t.h_plus != t.h_minus
        assert t.source in (0, 1, 2)


def test_tau_touching_the_identity_position_is_caught():
    with pytest.raises(InternalInconsistency, match="tau touches the identity position"):
        freeness.TauVector((1, 0, 1), 0, 1, 2)


def test_tau_entry_outside_the_signs_is_caught():
    with pytest.raises(InternalInconsistency, match="tau entry outside -1, 0, 1"):
        freeness.TauVector((2, 0, 0), 0, 1, 2)


def test_tau_operators_annihilate_block0(gmpn):
    G = gmpn(2, 2, 4)
    checked = 0
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        if rec.quotient() == 0 or not B:
            continue
        taus = rel_tau(G, B)
        if not taus:
            continue
        M = induce(G, B, quotient_regular_rep(G, B))
        for t in taus:
            assert apply_to_block0(G, M, tau_terms(M, t)) == {}
            checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# coset projections of relations


def split_by_stab_coset(G, B, vec):
    """Left-coset pieces of a relation vector over Stab(B)."""
    refls = G.reflections
    stab_el = stabilizer(G, B).elements
    reps = []
    pieces = []
    for k in range(len(vec)):
        if not vec[k]:
            continue
        w = G.identity if k == len(vec) - 1 else refls[k]
        for idx, r in enumerate(reps):
            if G.mul(G.inv(r), w) in stab_el:
                pieces[idx].append((k, vec[k]))
                break
        else:
            reps.append(w)
            pieces.append([(k, vec[k])])
    return pieces


def test_relation_coset_pieces_kill_block0(gmpn):
    # each coset piece of a relation must annihilate the base block on its
    # own; on these collections every relation happens to sit inside a
    # single coset, which the test also pins down
    G = gmpn(2, 2, 4)
    seen_relations = 0
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        if rec.quotient() == 0 or not B:
            continue
        f1, f2a, f2b = check_F(G, B)
        assert f2a
        M = induce(G, B, quotient_regular_rep(G, B))
        rb = {i for h in B for i in G.hyperplane_reflections[h]}
        for vec in collection(G, B).rel_vectors:
            pieces = split_by_stab_coset(G, B, vec)
            assert len(pieces) == 1
            for plist in pieces:
                terms = []
                for k, coeff in plist:
                    if k == len(vec) - 1:
                        base, g = M.one, None
                    else:
                        base = M.one if k in rb else M.mu[k]
                        g = G.reflections[k]
                    scale = base if coeff == 1 else base * coeff
                    terms.append((scale, g))
                assert apply_to_block0(G, M, terms) == {}
            seen_relations += 1
    assert seen_relations >= 10


# ---------------------------------------------------------------------------
# the F dichotomy


def test_check_f_empty_collection(gmpn):
    G = gmpn(1, 1, 3)
    assert check_F(G, ()) == (False, True, True)


def test_check_f_unit_vector_case(gmpn):
    # {H_1, H_2,3^0}: a relation vector is literally a basis unit, the bar
    # condition fails elsewhere, and the dichotomy holds through F1
    G = gmpn(3, 1, 3)
    assert check_F(G, (0, 9)) == (True, False, True)


def test_g25_conditional_pair_passes_f2(g25):
    f1, f2a, f2b = check_F(g25, (0, 1))
    assert (f1, f2a, f2b) == (False, True, True)
    # the lattice test is live here, not vacuous: both halves of the
    # second admissibility condition hold on the conditional pair
    span_eq, sub_eq = collection(g25, (0, 1)).a2
    assert span_eq and sub_eq


def test_dichotomy_on_shipped_exceptionals(g25):
    for G in [packaged_group("g4"), packaged_group("g23"), g25]:
        for rec in classify_orbits(G):
            f1, f2a, f2b = check_F(G, rec.orbit.representative)
            assert f1 or (f2a and f2b), (G.name, rec.orbit.representative)


def test_g26_pair_fails_dichotomy(g26):
    # the 21-hyperplane group is the one exceptional whose pair orbit
    # escapes both F1 and F2, which is why it needs the geometric route
    f1, f2a, f2b = check_F(g26, (0, 16))
    assert not f1 and not f2a


# ---------------------------------------------------------------------------
# verdicts


# (representative, cardinality, f1, f2a, f2b) of every orbit row, in order
ORBIT_CHECKS = {
    "g4": [((), 0, False, True, True), ((0,), 1, False, True, True)],
    "g23": [
        ((), 0, False, True, True),
        ((0,), 1, False, True, True),
        ((0, 1), 2, False, True, True),
        ((0, 1, 14), 3, False, True, True),
    ],
    "g25": [
        ((), 0, False, True, True),
        ((0,), 1, False, True, True),
        ((0, 1), 2, False, True, True),
        ((0, 1, 2), 3, False, True, True),
    ],
    "g26": [
        ((), 0, False, True, True),
        ((0,), 1, False, True, True),
        ((4,), 1, False, True, True),
        ((0, 16), 2, False, False, True),
    ],
}


@pytest.mark.parametrize("name", sorted(ORBIT_CHECKS))
def test_orbit_check_rows_of_shipped_exceptionals(request, name):
    G = request.getfixturevalue(name) if name in ("g25", "g26") else packaged_group(name)
    rows = freeness_verdict(G).orbit_checks
    assert [
        (tuple(r["representative"]), r["cardinality"], r["f1"], r["f2a"], r["f2b"])
        for r in rows
    ] == ORBIT_CHECKS[name]


def test_verdict_monomial(gmpn):
    rep = freeness_verdict(gmpn(3, 1, 3))
    assert rep.verdict == "free"
    assert rep.route == "monomial-family"
    assert rep.basis == COLLECTION_BASIS
    assert rep.witness is None
    assert len(rep.orbit_checks) == 4
    assert all(row["dichotomy"] for row in rep.orbit_checks)


def test_monomial_route_reads_its_rows(gmpn, monkeypatch):
    """A monomial group with an orbit row outside the dichotomy is an
    internal error, not a monomial-family verdict."""
    real = freeness.check_F

    def tampered(G, B):
        return (False, False, True) if tuple(B) == () else real(G, B)

    monkeypatch.setattr(freeness, "check_F", tampered)
    with pytest.raises(InternalInconsistency, match="freeness dichotomy"):
        freeness_verdict(gmpn(3, 1, 3))


def test_verdict_dimension_jump(g25):
    rep = freeness_verdict(g25)
    assert rep.verdict == "not_free"
    assert rep.route == "dimension-jump"
    assert rep.witness == {"dim_generic": 3272, "dim_sixth_root": 3416}
    assert rep.basis is None


def test_specialization_removing_relations_is_caught(monkeypatch):
    # the generic dimension is tampered one past the sixth-root one
    dim_brauer = freeness.dim_brauer
    monkeypatch.setattr(
        freeness, "dim_brauer", lambda G, mu6=False: dim_brauer(G, mu6) + (not mu6)
    )
    with pytest.raises(InternalInconsistency, match="specialization removed relations"):
        freeness_verdict(packaged_group("g4"))


def test_verdict_exceptional_dichotomy():
    for name in ["g4", "g23"]:
        rep = freeness_verdict(packaged_group(name))
        assert rep.verdict == "free"
        assert rep.route == "collection-dichotomy"
        assert rep.basis == COLLECTION_BASIS
        assert rep.geometry is None


def test_verdict_g26_geometric(g26):
    rep = freeness_verdict(g26)
    assert rep.verdict == "free"
    assert rep.route == "singleton-geometry"
    assert rep.basis == SINGLETON_BASIS
    assert rep.geometry["all_pass"]
    # the pair orbit fails the dichotomy yet the verdict stands on the
    # geometric certificate
    rows = {tuple(r["representative"]): r for r in rep.orbit_checks}
    assert not rows[(0, 16)]["dichotomy"]


def test_report_serializable(gmpn):
    rep = freeness_verdict(gmpn(2, 1, 2))
    d = rep.as_dict()
    assert set(d) == {"group", "verdict", "route", "basis", "witness",
                      "orbit_checks", "geometry"}
    assert json.dumps(d)
    assert d["orbit_checks"][0]["representative"] == []


# ---------------------------------------------------------------------------
# the geometric suite


def test_g26_suite_passes(g26):
    report = g26_geometry_suite(g26)
    assert report["all_pass"]
    assert report["pair_count"] == 36
    assert report["pair_orbit_count"] == 1
    for key in ("orbit_split", "triple_partners", "partners_determine",
                "order_two_nontransverse", "max_cardinality_two",
                "single_pair_orbit", "partners_linked"):
        assert report[key], key


def test_g26_partner_triples_explicit(g26):
    # each order-3 hyperplane is transverse with exactly three
    # hyperplanes, all of order 2
    table = transv_table(g26)
    hyps = g26.hyperplanes
    o1 = [h.id for h in hyps if h.order_m == 3]
    o2 = {h.id for h in hyps if h.order_m == 2}
    assert len(o1) == 12 and len(o2) == 9
    for h in o1:
        partners = [k for k in range(table.size) if k != h and table.transverse(h, k)]
        assert len(partners) == 3
        assert set(partners) <= o2


def test_suite_rejects_other_shapes(gmpn, g25):
    for G in [gmpn(3, 1, 3), g25]:
        report = g26_geometry_suite(G)
        assert not report["orbit_split"]
        assert not report["all_pass"]
