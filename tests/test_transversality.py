"""Transversality tables, collection enumeration, and orbits."""

import random

import pytest

from bct import transversality
from bct.admissibility import collection
from bct.errors import InternalInconsistency, NotDistinct
from bct.exact_arith import euler_phi
from bct.reflection_groups import build_imprimitive, packaged_group
from bct.transversality import (
    check_all_pairs,
    collection_orbits,
    enumerate_collections,
    is_transverse,
    transv_table,
)
from conftest import SMALL_GMPN
from group_reference import monomial


def by_label(G):
    return {h.label: h for h in G.hyperplanes}


# -- is_transverse -----------------------------------------------------------


def test_same_pair_kappas_not_transverse_in_g313():
    G = build_imprimitive(3, 1, 3)
    lab = by_label(G)
    assert is_transverse(G, lab["H_1,2^0"], lab["H_1,2^1"]) is False


def test_same_pair_kappas_transverse_in_g223():
    G = build_imprimitive(2, 2, 3)
    lab = by_label(G)
    assert is_transverse(G, lab["H_1,2^0"], lab["H_1,2^1"]) is True


def test_disjoint_pairs_transverse_in_g314():
    G = build_imprimitive(3, 1, 4)
    lab = by_label(G)
    assert is_transverse(G, lab["H_1,2^0"], lab["H_3,4^2"]) is True


def test_same_hyperplane_rejected():
    G = build_imprimitive(3, 1, 3)
    H = G.hyperplanes[0]
    with pytest.raises(NotDistinct):
        is_transverse(G, H, H)


def test_deciders_agree_on_all_monomial_groups_up_to_rank_four():
    # the combinatorial shortcut is asserted against the root-span method
    # inside is_transverse; sweep every pair of every small G(m,p,n)
    for m in range(1, 5):
        for p in range(1, m + 1):
            if m % p:
                continue
            for n in (2, 3, 4):
                G = build_imprimitive(m, p, n)
                hyps = G.hyperplanes
                for a in range(len(hyps)):
                    for b in range(a + 1, len(hyps)):
                        is_transverse(G, hyps[a], hyps[b])


# -- transv_table ------------------------------------------------------------


def test_coordinate_hyperplanes_mapped_by_all_kappa_reflections():
    G = build_imprimitive(3, 1, 3)
    lab = by_label(G)
    tbl = transv_table(G)
    i, j = lab["H_1"].id, lab["H_2"].id
    assert not tbl.transverse(i, j)
    mapped = tbl.mapped_by(i, j)
    assert len(mapped) == G.m
    for ridx in mapped:
        s = G.reflections[ridx]
        hid = G.reflection_hyperplane[ridx]
        assert G.hyperplanes[hid].key[:3] == ("pair", 0, 1)
        assert G.mul(s, s) == G.identity


def test_sym3_single_mapping_transposition():
    G = build_imprimitive(1, 1, 3)
    lab = by_label(G)
    tbl = transv_table(G)
    mapped = tbl.mapped_by(lab["H_1,2"].id, lab["H_1,3"].id)
    assert len(mapped) == 1
    s = G.reflections[mapped[0]]
    # the transposition swapping columns 2 and 3
    assert G.element(s) == monomial(1, (0, 2, 1), (0, 0, 0))


def test_nontransverse_cell_with_empty_mapping_list():
    # coordinate hyperplane against a pair hyperplane on a shared index
    G = build_imprimitive(3, 1, 3)
    lab = by_label(G)
    tbl = transv_table(G)
    i, j = lab["H_1"].id, lab["H_1,2^0"].id
    assert not tbl.transverse(i, j)
    assert tbl.mapped_by(i, j) == ()
    assert tbl.mapped_by(j, i) == ()


def test_g26_order3_rows_have_exactly_three_transverse_cells(g26):
    hyps = g26.hyperplanes
    tbl = transv_table(g26)
    order3 = [h for h in hyps if h.order_m == 3]
    assert len(order3) == 12
    for h in order3:
        row = tbl.row(h.id)
        assert len(row) == 3
        assert all(hyps[k].order_m == 2 for k in row)


def test_table_diagonal_rejected(g25):
    tbl = transv_table(g25)
    with pytest.raises(NotDistinct):
        tbl.transverse(0, 0)
    with pytest.raises(NotDistinct):
        tbl.mapped_by(3, 3)


# every G(m,p,n) of order at most 200 with phi(m) <= 10: every one of rank
# three or more, and the rank-two ones with m <= 12 or m in 14, 15, 16, 18,
# 20, 22, 24, 30.  The sweep stops there because its cost is the span test
# of every root against every pair, over Q(zeta_m): about 2 s for these 69
# groups on a 2-vCPU host, where G(23,23,2) (phi 22) alone takes 0.8 s and
# G(37,37,2) 9 s
SMALL_MONOMIAL = [(m, p, n) for m, p, n in SMALL_GMPN if euler_phi(m) <= 10]


def assert_table_is_all_pairs_oracle(G):
    hyps = G.hyperplanes
    tbl = transv_table(G)
    for i in range(len(hyps)):
        for j in range(i + 1, len(hyps)):
            want = is_transverse(G, hyps[i], hyps[j])
            assert tbl.transverse(i, j) is want
            assert tbl.transverse(j, i) is want
    pairs = len(hyps) * (len(hyps) - 1) // 2
    assert min(1, pairs) <= len(G.pair_orbits) <= pairs


@pytest.mark.parametrize("name", ["g4", "g23", "g25", "g26"])
def test_per_orbit_table_equals_all_pairs_oracle_on_matrix_groups(
    name, request
):
    shared = name in ("g25", "g26")
    G = request.getfixturevalue(name) if shared else packaged_group(name)
    assert_table_is_all_pairs_oracle(G)


def test_per_orbit_table_equals_all_pairs_oracle_on_small_monomial_groups(
    sweep_group,
):
    assert len(SMALL_MONOMIAL) == 69
    for m, p, n in SMALL_MONOMIAL:
        assert_table_is_all_pairs_oracle(sweep_group(m, p, n))


def test_pair_orbits_counted():
    # G(2,2,3) = type A3: all 15 pairs of its 6 hyperplanes fall into two
    # orbits, the commuting pairs and the pairs meeting at angle pi/3
    G = build_imprimitive(2, 2, 3)
    assert len(G.pair_orbits) == 2
    assert len(packaged_group("g4").pair_orbits) == 1


def test_tampered_pair_orbit_flag_is_caught(monkeypatch):
    # flipping the span verdict of one pair orbit leaves the type shortcut
    # disagreeing on every pair of that orbit, under python -O too
    G = build_imprimitive(3, 1, 3)
    span = transversality._root_span_transverse
    flipped = []

    def tampered(G, H1, H2):
        got = span(G, H1, H2)
        if not flipped:
            flipped.append((H1.id, H2.id))
            return not got
        return got

    monkeypatch.setattr(transversality, "_root_span_transverse", tampered)
    with pytest.raises(InternalInconsistency, match="type shortcut"):
        transv_table(G)
    assert flipped == [(0, 1)]


def test_all_pairs_check_catches_a_wrong_cell():
    G = build_imprimitive(2, 1, 3)
    tbl = transv_table(G)
    check_all_pairs(G)
    i = next(i for i in range(tbl.size) if tbl.row(i))
    j = tbl.row(i)[0]
    tbl._transverse[i] = tbl._transverse[i] - {j}
    with pytest.raises(InternalInconsistency, match="all-pairs"):
        check_all_pairs(G)


def test_table_equivariance_under_relabeling():
    rng = random.Random(7)
    for G in (build_imprimitive(3, 1, 3), packaged_group("g25")):
        tbl = transv_table(G)
        for w in rng.sample(G.elements, 5):
            act = G.hyperplane_action(w)
            for i in range(tbl.size):
                for j in range(tbl.size):
                    if i == j:
                        continue
                    assert tbl.transverse(i, j) == tbl.transverse(act[i], act[j])
                    got = {
                        G.reflection_index[G.conj(w, G.reflections[r])]
                        for r in tbl.mapped_by(i, j)
                    }
                    assert got == set(tbl.mapped_by(act[i], act[j]))


# -- enumeration and orbits --------------------------------------------------


def test_sym3_collections_are_empty_plus_singletons():
    G = build_imprimitive(1, 1, 3)
    cols = enumerate_collections(G)
    assert cols == [(), (0,), (1,), (2,)]


def test_enumeration_starts_empty_and_is_sorted_lex(g25):
    cols = enumerate_collections(g25)
    assert cols[0] == ()
    assert cols == sorted(cols, key=lambda c: (c == (), c)) or cols[1:] == sorted(
        cols[1:]
    )
    for B in cols:
        assert list(B) == sorted(set(B))


def test_g26_collection_and_orbit_counts(g26):
    cols = enumerate_collections(g26)
    by_card = {}
    for B in cols:
        by_card[len(B)] = by_card.get(len(B), 0) + 1
    assert len(cols) == 58
    assert by_card == {0: 1, 1: 21, 2: 36}
    recs = collection_orbits(g26)
    assert len(recs) == 4


def test_g25_orbit_sizes_by_cardinality(g25):
    recs = collection_orbits(g25)
    sizes = {}
    for r in recs:
        sizes.setdefault(r.cardinality, []).append(r.orbit_size)
    assert sizes[1] == [12]
    assert sizes[2] == [12]
    assert sizes[3] == [4]
    for r in recs:
        assert r.orbit_size * r.stab_order == g25.order


def test_orbits_partition_collections():
    for G in (build_imprimitive(2, 1, 3), build_imprimitive(2, 2, 4)):
        cols = enumerate_collections(G)
        recs = collection_orbits(G)
        assert sum(r.orbit_size for r in recs) == len(cols)
        for r in recs:
            assert r.orbit_size * r.stab_order == G.order
            assert r.representative in cols


# -- the small orbit: one-reflection images of a collection ------------------


def test_small_orbit_of_empty_is_empty():
    G = build_imprimitive(1, 1, 3)
    assert sorted(set(collection(G, ()).images)) == [()]


def test_small_orbit_sym3_singleton():
    G = build_imprimitive(1, 1, 3)
    lab = by_label(G)
    got = sorted(set(collection(G, (lab["H_1,2"].id,)).images))
    assert got == [(0,), (1,), (2,)]


def test_small_orbit_contains_fixed_collection():
    G = build_imprimitive(2, 2, 4)
    lab = by_label(G)
    B = tuple(
        sorted(
            lab[x].id for x in ("H_1,2^0", "H_1,2^1", "H_3,4^0", "H_3,4^1")
        )
    )
    assert B in sorted(set(collection(G, B).images))


def test_collection_images_are_the_reflection_images(g26):
    for G in (g26, build_imprimitive(4, 2, 3)):
        for rec in collection_orbits(G):
            B = rec.representative
            images = collection(G, B).images
            assert len(images) == len(G.reflections)
            for img, s in zip(images, G.reflections):
                assert img == tuple(sorted(G.hyperplane_action(s)[h] for h in B))


def test_tampered_action_row_is_caught():
    # a permutation whose row claims it fixes every hyperplane: each element
    # over it then maps a collection as its diagonal does, so those that fix
    # it join the stabilizer and the orbit-stabilizer identity fails, under
    # python -O too
    G = build_imprimitive(2, 2, 3)
    prow, drow = G.action_rows
    assert collection_orbits(G)
    ident = tuple(range(len(G.hyperplanes)))
    skip = {g // len(drow) for g in (*G.generators, *G.reflections)}
    r = next(r for r, row in enumerate(prow) if r not in skip and row != ident)
    prow[r] = ident
    with pytest.raises(InternalInconsistency, match="orbit-stabilizer"):
        collection_orbits(G)


def _descending(cols):
    # each cardinality in descending order, so an orbit is met first at a
    # member larger than its smallest
    return sorted(cols, key=lambda B: (len(B), [-h for h in B]))


def _last_singleton_dropped(cols):
    last = max(i for i, B in enumerate(cols) if len(B) == 1)
    return cols[:last] + cols[last + 1:]


def _one_duplicated(cols):
    return cols + [cols[1]]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_descending, "has the smaller member .* met later"),
        (_last_singleton_dropped, "leaves the set of transverse collections"),
        (_one_duplicated, "the orbits do not cover the collections"),
    ],
    ids=["descending", "dropped", "duplicated"],
)
def test_tampered_enumeration_is_caught(monkeypatch, tamper, message):
    # collection_orbits checks that its orbits partition the enumeration
    G = build_imprimitive(2, 2, 3)
    enumerate_all = transversality.enumerate_collections
    monkeypatch.setattr(
        transversality, "enumerate_collections", lambda G: tamper(enumerate_all(G))
    )
    with pytest.raises(InternalInconsistency, match=message):
        collection_orbits(G)
