"""Collection classification: relation vectors, K_B, A1/A2, dimensions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from bct import admissibility
from bct.admissibility import (
    Collection,
    _relation_vectors,
    classify,
    classify_orbits,
    collection,
    d0_ideal_dim,
    dim_brauer,
    dim_from_rows,
    dim_g22n_formula,
    dim_gmpn_formula,
    signed_vector,
)
from bct.brauer_modules import induce, quotient_regular_rep, trivial_rep
from bct.cli import CSV_COLUMNS, ROW_KEYS
from bct.definitions import field_row
from bct.errors import InternalInconsistency, InvalidParameters
from bct.exact_arith import SpanBasis, euler_phi, zeta
from bct.freeness import check_F
from bct.reflection_groups import (
    Subgroup,
    build_imprimitive,
    packaged_group,
    subgroup_closure,
)
from bct.transversality import (
    collection_orbits,
    enumerate_collections,
    transv_table,
)
from conftest import SMALL_GMPN
from group_reference import (
    element_order,
    kb_membership_gmpn,
    monomial,
    projected_sigma_pairs,
    sigma_pairs,
)


def by_label(G):
    return {h.label: h.id for h in G.hyperplanes}


# -- relation vectors --------------------------------------------------------


def test_rel_set_singleton_s3(gmpn):
    G = gmpn(1, 1, 3)
    lab = by_label(G)
    B = (lab["H_1,2"],)
    nrefl = len(G.reflections)
    s = G.reflection_index[G.hyperplanes[B[0]].dist_reflection]
    expect = tuple(
        1 if k == s else (-1 if k == nrefl else 0) for k in range(nrefl + 1)
    )
    # single hyperplane: only the r - 1 vector, no sigma terms
    assert collection(G, B).rel_vectors == [expect]
    assert collection(G, B).rel_bar_vectors == [expect]


def test_signed_vector_rejects_support_in_collection():
    assert signed_vector(4, (0,), (2,)) == (1, 0, -1, 0)
    assert signed_vector(4, (1,), (1,), frozenset({0})) == (0, 0, 0, 0)
    with pytest.raises(InternalInconsistency):
        signed_vector(4, (0,), (2,), frozenset({2}))


def test_relation_sets_equal_the_walk_per_image(sweep_group, g25, g26):
    # Rel(B) against the walk of every outer hyperplane, and Rel-bar(B)
    # against the walk per image B' with its own table of cut cells, list
    # for list, on the monomial groups of the all-pairs sweep (phi(m) <= 10)
    # and the four packaged groups
    sweep = [sweep_group(*key) for key in SMALL_GMPN if euler_phi(key[0]) <= 10]
    packaged = [packaged_group("g4"), packaged_group("g23"), g25, g26]
    checked = 0
    for G in sweep + packaged:
        for B in enumerate_collections(G):
            col = collection(G, B)
            assert col.rel_vectors == _relation_vectors(col, sigma_pairs(G, B)), B
            assert col.rel_bar_vectors == _relation_vectors(
                col, projected_sigma_pairs(col)
            ), (G.name, B)
            checked += 1
    assert (len(sweep), checked) == (69, 1204)


def test_empty_collection(gmpn):
    G = gmpn(3, 1, 3)
    assert collection(G, ()).rel_vectors == []
    assert collection(G, ()).rel_bar_vectors == []
    col = collection(G, ())
    d, p = col.d_vectors, col.p_pairs
    products, _ = col.products
    assert d == [] and p == [] and products == []
    assert collection(G, ()).a2 == (True, True)
    rec = classify(G, ())
    assert not rec.a1
    assert rec.kb_order == 1
    assert rec.admissible_generic and rec.admissible_mu6
    assert rec.quotient() == rec.quotient(True) == G.order


def bad_collection(G, kind):
    """(0, 0), the first pair that is not transverse, or an id one past
    the last hyperplane."""
    if kind == "repeated":
        return (0, 0)
    if kind == "out of range":
        return (len(G.hyperplanes),)
    table = transv_table(G)
    pairs = combinations(range(table.size), 2)
    return next(p for p in pairs if not table.transverse(*p))


CALLS = {
    "classify": classify,
    "check_F": check_F,
    "quotient_regular_rep": quotient_regular_rep,
    "induce": lambda G, B: induce(G, B, trivial_rep(G, B)),
}


@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("kind", ["repeated", "non-transverse", "out of range"])
@pytest.mark.parametrize("name", ["gmpn:3,1,3", "g4"])
def test_collection_refuses_what_is_not_transverse(gmpn, name, kind, call):
    G = gmpn(3, 1, 3) if name == "gmpn:3,1,3" else packaged_group("g4")
    B = bad_collection(G, kind)
    with pytest.raises(InvalidParameters):
        CALLS[call](G, B)


# -- K_B ---------------------------------------------------------------------


def test_k_subgroup_small_orders(gmpn):
    G = gmpn(3, 1, 3)
    lab = by_label(G)
    assert collection(G, ()).kb.order == 1
    assert collection(G, (lab["H_1"],)).kb.order == 3
    assert collection(G, (lab["H_1,2^0"],)).kb.order == 2


def test_k_subgroup_singleton_is_pointwise_stabilizer(g26):
    # one hyperplane admits no image-fiber pairs, so K_B = W_H
    for rec in collection_orbits(g26):
        if rec.cardinality != 1:
            continue
        h = rec.representative[0]
        assert collection(g26, rec.representative).kb.order == g26.hyperplanes[h].order_m


def test_k_subgroup_pair_g314(gmpn):
    G = gmpn(3, 1, 4)
    lab = by_label(G)
    B = (lab["H_1,2^0"], lab["H_3,4^0"])
    assert collection(G, B).kb.order == 24


def test_k_subgroup_conjugation_equivariant(gmpn):
    rng = random.Random(7)
    for m, p, n in [(3, 1, 3), (2, 2, 4)]:
        G = gmpn(m, p, n)
        elems = list(G.elements)
        colls = [B for B in enumerate_collections(G) if B]
        for B in rng.sample(colls, 6):
            w = rng.choice(elems)
            wB = tuple(
                sorted(G.hyperplanes[G.hyperplane_action(w)[h]].id for h in B)
            )
            left = collection(G, wB).kb.elements
            right = frozenset(G.conj(w, g) for g in collection(G, B).kb.elements)
            assert left == right


# -- A1 / A2 -----------------------------------------------------------------


def test_unit_vector_collection_not_admissible(gmpn):
    G = gmpn(3, 1, 3)
    lab = by_label(G)
    B = tuple(sorted((lab["H_1"], lab["H_2,3^0"])))
    rec = classify(G, B)
    assert rec.a1
    assert not rec.admissible_generic and not rec.admissible_mu6
    assert rec.quotient() == rec.quotient(True) == 0


def test_mixed_doubling_not_admissible(gmpn):
    G = gmpn(2, 2, 4)
    lab = by_label(G)
    B = tuple(sorted((lab["H_1,2^0"], lab["H_1,2^1"], lab["H_3,4^0"])))
    rec = classify(G, B)
    assert rec.a1
    assert not rec.admissible_generic and not rec.admissible_mu6


def test_flags_exclusive_and_no_divergence(g25, g26):
    for G in (g25, g26):
        for rec in classify_orbits(G):
            assert not (rec.a1 and all(rec.a2))
            assert rec.a1 == any(not any(r) for r in rec.classes)


# every G(m,p,n) of order at most 200 with m <= 40: every one of rank three
# or more, and the rank-two ones through G(40,40,2).  The sweep stops there
# because its cost is the transversality table, one span test over
# Q(zeta_m) per pair orbit: 1.4 s for these 99 groups on a 2-vCPU host,
# 1.7 s more through m = 50 and 54 s more through m = 100
SMALL_MONOMIAL = [(m, p, n) for m, p, n in SMALL_GMPN if m <= 40]


def assert_a2_count_matches_difference_span(G):
    """A2's span half, counted from the residue classes, against the
    span of the difference vectors themselves."""
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        span = collection(G, B).span
        d_vecs = collection(G, B).d_vectors
        d_span = SpanBasis(len(G.reflections) + 1)
        for vec in d_vecs:
            fv = [Fraction(x) for x in vec]
            assert span.contains(fv)
            d_span.add(fv)
        assert collection(G, B).a2[0] is (d_span.rank == span.rank), (G.name, B)


@pytest.mark.parametrize("name", ["g4", "g23", "g25", "g26"])
def test_a2_count_matches_difference_span_on_matrix_groups(name, request):
    shared = name in ("g25", "g26")
    G = request.getfixturevalue(name) if shared else packaged_group(name)
    assert_a2_count_matches_difference_span(G)


def test_a2_count_matches_difference_span_on_small_monomial_groups(sweep_group):
    assert len(SMALL_MONOMIAL) == 99
    for m, p, n in SMALL_MONOMIAL:
        assert_a2_count_matches_difference_span(sweep_group(m, p, n))


def test_merged_residue_classes_are_caught(gmpn):
    # a private record, so the one shared through the group stays clean
    G = gmpn(3, 1, 3)
    B = classify_orbits(G)[2].orbit.representative
    ws = Collection(G, B)
    classes = list(ws.classes.items())
    assert len(classes) >= 2
    (r0, c0), (_, c1) = classes[:2]
    ws.classes = {r0: sorted(c0 + c1), **dict(classes[2:])}
    with pytest.raises(InternalInconsistency):
        ws.a2


def test_classify_returns_the_collection_record(gmpn):
    G = gmpn(2, 1, 3)
    for B in enumerate_collections(G):
        assert classify(G, B) is collection(G, B)


def test_a1_together_with_a2_is_caught(g26, monkeypatch):
    col = next(rec for rec in classify_orbits(g26) if rec.a1)
    # monkeypatch restores the shared record's cached A2 checks
    monkeypatch.setitem(col.__dict__, "a2", (True, True))
    with pytest.raises(InternalInconsistency, match="A1 and A2 cannot both hold"):
        classify(g26, col.B)


def test_closed_form_disagreement_is_caught(monkeypatch):
    closed_form = admissibility._imprimitive_closed_form
    monkeypatch.setattr(
        admissibility, "_imprimitive_closed_form", lambda G, B: not closed_form(G, B)
    )
    with pytest.raises(InternalInconsistency, match="closed-form says admissible="):
        classify(build_imprimitive(2, 1, 3), (0,))


def test_non_pair_hyperplane_in_a_22n_group_is_caught():
    # a private group, so the tampered key reaches no other test
    G = build_imprimitive(2, 2, 3)
    col = classify_orbits(G)[1]
    G.hyperplanes[col.B[0]].key = ("diag", 0)
    with pytest.raises(InternalInconsistency, match=r"in a \(2,2,n\) group"):
        classify(G, col.B)


def test_kb_order_not_dividing_the_stabilizer_is_caught():
    G = build_imprimitive(2, 1, 3)
    col = collection(G, classify_orbits(G)[1].orbit.representative)
    col.kb = Subgroup(col.kb.generators, range(5))
    with pytest.raises(InternalInconsistency, match=r"\|K_B\| = 5 does not divide"):
        classify(G, col.B)


def test_kb_not_normal_in_the_stabilizer_is_caught(gmpn, monkeypatch):
    G = gmpn(3, 1, 3)
    stab = G.stabilizer_of((0,))

    def normalized(sub):
        return all(G.conj(w, g) in sub for w in stab.generators for g in sub.generators)

    closures = (subgroup_closure(G, [g]) for g in sorted(stab.elements))
    skew = next(sub for sub in closures if not normalized(sub))
    monkeypatch.setattr(admissibility, "subgroup_closure", lambda G, gens: skew)
    # a private record, so the one shared through the group stays clean
    with pytest.raises(InternalInconsistency, match="K_B must be normal in Stab"):
        Collection(G, (0,)).kb


# -- classification tables ---------------------------------------------------


def test_classification_table_g25(g25):
    recs = classify_orbits(g25)
    rows = [
        (
            r.orbit.cardinality,
            r.orbit.orbit_size,
            r.orbit.stab_order,
            r.kb_order,
            r.admissible_generic,
            r.conditional,
            r.quotient(),
        )
        for r in recs
    ]
    assert rows == [
        (0, 1, 648, 1, True, False, 648),
        (1, 12, 54, 3, True, False, 18),
        (2, 12, 54, 54, False, True, 0),
        (3, 4, 162, 81, True, False, 2),
    ]
    pair = recs[2]
    assert pair.admissible_mu6 and not pair.a1
    assert all(pair.a2)

    # at a sixth root the pair orbit survives; its twisting character is
    # non-trivial exactly because it is conditional
    assert [r.quotient(True) for r in recs] == [648, 18, 1, 2]
    assert pair.conditional and not recs[1].conditional


def test_classification_table_g26(g26):
    recs = classify_orbits(g26)
    rows = [
        (
            r.orbit.cardinality,
            r.orbit.orbit_size,
            r.orbit.stab_order,
            r.kb_order,
            r.quotient(),
        )
        for r in recs
    ]
    assert rows == [
        (0, 1, 1296, 1, 1296),
        (1, 12, 108, 3, 36),
        (1, 9, 144, 2, 72),
        (2, 36, 36, 6, 0),
    ]
    assert not any(r.conditional for r in recs)
    assert recs[3].a1


def test_monomial_orbits_classify_cleanly(gmpn):
    for m, p, n in [(2, 1, 3), (3, 3, 3), (2, 2, 4), (4, 2, 3)]:
        recs = classify_orbits(gmpn(m, p, n))
        assert recs[0].orbit.cardinality == 0
        for rec in recs:
            assert rec.admissible_generic == rec.admissible_mu6
            assert not rec.conditional


def test_record_row_projection(gmpn):
    rec = classify(gmpn(1, 1, 3), ())
    # the field is an argument of quotient(), never a stored slot
    with pytest.raises(AttributeError):
        rec.quotient_size
    # the cache accepts exactly these keys, in this order, for both fields
    assert list(rec.row) == ROW_KEYS == [
        "representative",
        "cardinality",
        "orbit_size",
        "stab_order",
        "kb_order",
        "admissible_generic",
        "admissible_mu6",
        "conditional",
    ]
    # a field appends its quotient, and the CSV projection drops the
    # representative
    for mu6 in (False, True):
        row = field_row(rec.row, mu6)
        assert list(row) == ROW_KEYS + ["quotient_size"]
        assert list(row)[1:] == CSV_COLUMNS
        assert row["quotient_size"] == rec.quotient(mu6) == 6


# -- conditional pair of the 648-element group -------------------------------


def test_conditional_pair_difference_structure(g25):
    rep = classify_orbits(g25)[2].orbit.representative
    col = collection(g25, rep)
    d, p = col.d_vectors, col.p_pairs
    products, in_stab = col.products
    assert len(d) == 38
    assert len(p) == 18
    assert in_stab
    classes = [g25.reflection_class_of[i] for i in range(len(g25.reflections))]
    assert all(classes[i] != classes[j] for i, j in p)
    assert all(element_order(g25.element(g)) == 6 for g in products)


def test_conditional_pair_ideal_dimension(g25):
    rec = classify_orbits(g25)[2]
    rep = rec.orbit.representative
    stab, kb = rec.orbit.stab_order, rec.kb_order
    want = stab - stab // kb
    for mu in (zeta(6, 1), zeta(6, 0)):
        assert d0_ideal_dim(g25, rep, mu) == want == 53


def test_d0_ideal_dim_rejects_bad_arguments(g25, g26):
    rep = classify_orbits(g25)[2].orbit.representative
    with pytest.raises(InvalidParameters):
        d0_ideal_dim(g25, rep, zeta(5, 1))
    # the pair orbit of the 1296-element group satisfies A1, so not A2
    pair = classify_orbits(g26)[3]
    assert pair.a1 and not all(pair.a2)
    with pytest.raises(InvalidParameters):
        d0_ideal_dim(g26, pair.orbit.representative, zeta(6, 1))


# -- dimensions --------------------------------------------------------------


def test_dimension_g25(g25):
    assert dim_brauer(g25) == 3272
    assert dim_brauer(g25, mu6=True) == 3416


def test_dimension_g26(g26):
    assert dim_brauer(g26) == 12312
    assert dim_brauer(g26, mu6=True) == 12312


def test_dimension_formulas_match_enumeration(gmpn):
    cases = [(1, 1, 3, 15), (1, 1, 4, 105), (2, 1, 2, 24), (3, 1, 3, 1053)]
    for m, p, n, want in cases:
        assert dim_gmpn_formula(m, p, n) == want
        G = gmpn(m, p, n)
        assert dim_brauer(G) == want
        assert dim_brauer(G, mu6=True) == want
    assert dim_gmpn_formula(1, 1, 2) == 3
    assert dim_gmpn_formula(1, 1, 5) == 945


def test_dimension_doubled_family(gmpn):
    assert dim_g22n_formula(3) == 105
    assert dim_g22n_formula(4) == 1569
    assert dim_g22n_formula(5) == 29145
    assert dim_brauer(gmpn(2, 2, 3)) == 105
    assert dim_brauer(gmpn(2, 2, 4)) == 1569


def test_dim_from_rows_rejects_tampered_table(gmpn):
    G = gmpn(2, 2, 3)
    rows = [field_row(rec.row, False) for rec in classify_orbits(G)]
    assert dim_from_rows(G.order, rows) == 105
    k = next(i for i, r in enumerate(rows) if r["cardinality"] and r["quotient_size"])
    tampered = [
        (0, "quotient_size", G.order // 2, "empty collection"),
        (k, "orbit_size", 2 * rows[k]["orbit_size"], "double-entry"),
        (k, "kb_order", 5, "does not divide"),
        # divides |W| = 24 but not |Stab(B)|
        (k, "kb_order", 3, "Stab"),
        (k, "quotient_size", 2 * rows[k]["quotient_size"], "Stab"),
    ]
    for i, field, value, message in tampered:
        bad = [dict(r) for r in rows]
        bad[i][field] = value
        with pytest.raises(InternalInconsistency, match=message):
            dim_from_rows(G.order, bad)


def test_formula_rejects_bad_parameters():
    with pytest.raises(InvalidParameters):
        dim_gmpn_formula(2, 2, 4)
    with pytest.raises(InvalidParameters):
        dim_gmpn_formula(4, 3, 3)
    with pytest.raises(InvalidParameters):
        dim_gmpn_formula(3, 1, 1)
    with pytest.raises(InvalidParameters):
        dim_g22n_formula(2)


# -- closed-form membership (the reference in group_reference.py) ----------


def test_kb_membership_pair_shape(gmpn):
    G = gmpn(3, 1, 4)
    lab = by_label(G)
    B = (lab["H_1,2^0"], lab["H_3,4^0"])
    kb = collection(G, B).kb.elements
    assert kb_membership_gmpn(G, G.identity, B)
    assert kb_membership_gmpn(G, G.hyperplanes[B[0]].dist_reflection, B)
    assert not kb_membership_gmpn(G, G.hyperplanes[lab["H_1"]].dist_reflection, B)
    rng = random.Random(3)
    for g in rng.sample(list(G.elements), 150):
        assert kb_membership_gmpn(G, g, B) == (g in kb)


def test_kb_membership_even_m_excludes_minus_identity(gmpn):
    G = gmpn(2, 1, 2)
    lab = by_label(G)
    B = (lab["H_1,2^0"],)
    # -I fixes B and its exponents sum to 0 mod 2, but the block
    # exponent is 1, so it lies outside K_B
    minus = G.index_of(monomial(2, (0, 1), (1, 1)))
    assert not kb_membership_gmpn(G, minus, B)
    assert collection(G, B).kb.order == 2


def test_kb_membership_doubled_shape(gmpn):
    G = gmpn(2, 2, 4)
    lab = by_label(G)
    B = tuple(sorted((lab["H_1,2^0"], lab["H_1,2^1"])))
    kb = collection(G, B).kb.elements
    assert len(kb) == 16
    for g in G.elements:
        assert kb_membership_gmpn(G, g, B) == (g in kb)


def test_kb_membership_rejects_unsupported(g25, gmpn):
    with pytest.raises(InvalidParameters):
        kb_membership_gmpn(g25, g25.identity, ())
    G = gmpn(3, 1, 3)
    lab = by_label(G)
    with pytest.raises(InvalidParameters):
        kb_membership_gmpn(G, G.identity, (lab["H_1"],))
