"""Induced modules, defining relations, and the census identity."""

import pytest

from bct import reflection_groups, transversality
from bct.admissibility import classify_orbits, mu_sixth
from bct.brauer_modules import (
    b5_rhs,
    delta_scalar,
    induce,
    mu_scalar,
    op_add,
    op_compose,
    op_permute,
    op_shift,
    perm_inverse,
    quotient_regular_rep,
    semisimplicity_census,
    trivial_rep,
    verify_defining_relations,
)
from bct.errors import NotAdmissible, NotAdmissiblePair
from bct.reflection_groups import build_imprimitive, hyperplanes, packaged_group
from bct.transversality import transv_table


def by_label(G):
    return {h.label: h.id for h in hyperplanes(G)}


# -- construction ------------------------------------------------------------


def test_quotient_regular_rep_s3_singleton(gmpn):
    G = gmpn(1, 1, 3)
    B = (by_label(G)["H_1,2"],)
    v0 = quotient_regular_rep(G, B)
    # Stab = K_B here, so the quotient is trivial
    assert v0.degree == 1
    M = induce(G, B, v0)
    assert M.dim == 3 and len(M.blocks) == 3
    assert M.blocks[0] == B
    assert M.eps[B[0]][(0, 0)] == delta_scalar(G)


def test_trivial_rep_low_rank_diagonal(gmpn):
    G = gmpn(2, 1, 2)
    B = (by_label(G)["H_1"],)
    M = induce(G, B, trivial_rep(G, B))
    assert M.dim == G.order // 4 * 1 == 2
    assert verify_defining_relations(M).all_pass


def test_empty_collection_module(gmpn):
    G = gmpn(1, 1, 3)
    v0 = quotient_regular_rep(G, ())
    assert v0.degree == G.order
    M = induce(G, (), v0)
    assert M.dim == G.order
    assert all(not op for op in M.eps.values())
    assert verify_defining_relations(M).all_pass


def test_stab_rep_images_are_permutation_matrices(gmpn):
    G = gmpn(1, 1, 4)
    B = (by_label(G)["H_1,2"],)
    v0 = quotient_regular_rep(G, B)
    for mat in v0.images.values():
        cols = [c for _, c in mat]
        assert sorted(cols) == list(range(v0.degree))
        assert all(val == val * 1 and bool(val) for val in mat.values())


# -- defining relations ------------------------------------------------------


@pytest.mark.parametrize("params", [(1, 1, 3), (1, 1, 4), (2, 1, 2), (3, 1, 2), (2, 2, 4)])
def test_relations_on_all_admissible_orbits(gmpn, params):
    G = gmpn(*params)
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        if rec.quotient_size == 0:
            with pytest.raises(NotAdmissible):
                quotient_regular_rep(G, B)
            continue
        v0 = quotient_regular_rep(G, B)
        assert v0.degree == rec.quotient_size
        M = induce(G, B, v0)
        assert M.dim == (G.order // rec.orbit.stab_order) * v0.degree
        report = verify_defining_relations(M)
        assert report.all_pass, report.first_counterexample
        # image of eps(H) is exactly the blocks whose collection contains H
        for hid, op in M.eps.items():
            rows = {i // M.degree for i, _ in op}
            want = {t for t, b in enumerate(M.blocks) if hid in b}
            assert rows == want


def test_perturbed_module_fails_first_relation(gmpn):
    G = gmpn(1, 1, 3)
    B = (by_label(G)["H_1,2"],)
    M = induce(G, B, quotient_regular_rep(G, B))
    key = next(iter(M.eps[B[0]]))
    M.eps[B[0]] = dict(M.eps[B[0]])
    M.eps[B[0]][key] = -M.eps[B[0]][key]
    report = verify_defining_relations(M)
    assert not report.results["B1"]
    assert report.first_counterexample.startswith("B1")
    assert not report.all_pass


def test_swapped_eps_fails_conjugation_not_first_relation(gmpn):
    # eps of two hyperplanes of one orbit exchanged: each operator still
    # squares to delta times itself, but w*eps(H)*w^-1 = eps(wH) breaks
    G = gmpn(1, 1, 3)
    lab = by_label(G)
    B = (lab["H_1,2"],)
    M = induce(G, B, quotient_regular_rep(G, B))
    a, b = lab["H_1,2"], lab["H_1,3"]
    M.eps[a], M.eps[b] = M.eps[b], M.eps[a]
    report = verify_defining_relations(M)
    assert report.results["B1"] is True
    assert report.results["B2"] is False
    assert report.first_counterexample.startswith("B2")


def _modules(G):
    for rec in classify_orbits(G):
        if rec.quotient_size:
            B = rec.orbit.representative
            yield induce(G, B, quotient_regular_rep(G, B))


@pytest.mark.parametrize("spec", [(1, 1, 3), (2, 2, 3), "g4"])
def test_reindexing_matches_sparse_products(gmpn, spec):
    """B2, B3 and the right-hand side of B5 are checked by re-indexing
    eps through basis permutations; each must equal the sparse product
    with the permutation matrices of op_of, kept here as the reference."""
    G = packaged_group(spec) if isinstance(spec, str) else gmpn(*spec)
    table = transv_table(G)
    nh = len(hyperplanes(G))
    delta = delta_scalar(G)
    modules = 0
    for M in _modules(G):
        for hid in range(nh):
            e = M.eps[hid]
            assert op_shift(e, 0) == {k: v * delta for k, v in e.items()}
        for w in G.elements:
            w_inv = G.inv(w)
            rows, cols = M.perm_of(w), perm_inverse(M.perm_of(w_inv))
            wop, winv = M.op_of(w), M.op_of(w_inv)
            for hid in range(nh):
                e = M.eps[hid]
                want = op_compose(op_compose(wop, e), winv)
                assert op_permute(e, rows, cols) == want
        for ridx, s in enumerate(G.reflections):
            e = M.eps[G.reflection_hyperplane(ridx)]
            assert op_permute(e, M.perm_of(s)) == op_compose(M.op_of(s), e)
        for h1 in range(nh):
            for h2 in range(nh):
                if h1 == h2 or table.transverse(h1, h2):
                    continue
                want = {}
                for ridx in table.mapped_by(h2, h1):
                    prod = op_compose(M.op_of(G.reflections[ridx]), M.eps[h2])
                    mu = mu_scalar(G, ridx)
                    want = op_add(want, {k: v * mu for k, v in prod.items()})
                assert b5_rhs(M, h1, h2) == want
        modules += 1
    assert modules >= 2


def test_stabilizer_scanned_once_per_collection(monkeypatch):
    """Orbit records, admissibility, Stab(B) representations and induction
    share one stabilizer per collection."""
    calls = []
    scan = reflection_groups.stabilizer

    def counted(G, B):
        calls.append(tuple(B))
        return scan(G, B)

    monkeypatch.setattr(reflection_groups, "stabilizer", counted)
    monkeypatch.setattr(transversality, "stabilizer", counted)
    G = build_imprimitive(2, 1, 3)
    recs = classify_orbits(G)
    for M in _modules(G):
        assert verify_defining_relations(M).all_pass
    assert sorted(calls) == sorted(r.orbit.representative for r in recs)


def test_report_serialization_shape(gmpn):
    G = gmpn(1, 1, 3)
    B = (by_label(G)["H_1,2"],)
    report = verify_defining_relations(induce(G, B, quotient_regular_rep(G, B)))
    d = report.as_dict()
    assert set(d) == {"relations", "all_pass", "first_counterexample"}
    assert set(d["relations"]) == {"B1", "B2", "B3", "B4", "B5"}
    assert d["all_pass"] is True and d["first_counterexample"] is None


# -- admissibility gates -----------------------------------------------------


def test_pair_orbit_of_1296_group_refused(g26):
    rep = [r for r in classify_orbits(g26) if r.orbit.cardinality == 2][0]
    with pytest.raises(NotAdmissible):
        quotient_regular_rep(g26, rep.orbit.representative)


def test_conditional_collection_gates(g25):
    cond = [r for r in classify_orbits(g25) if r.conditional][0]
    B = cond.orbit.representative
    with pytest.raises(NotAdmissible):
        quotient_regular_rep(g25, B)
    with pytest.raises(NotAdmissible):
        quotient_regular_rep(g25, B, mu_sixth(1))
    # with the trivial character the representation exists, but the
    # formal scalar ring never specializes, so induction still refuses
    v0 = quotient_regular_rep(g25, B, mu_sixth(0))
    assert v0.degree == 1
    with pytest.raises(NotAdmissiblePair):
        induce(g25, B, v0)


def test_relation_annihilation_gate(gmpn):
    G = gmpn(3, 1, 3)
    lab = by_label(G)
    bad = tuple(sorted((lab["H_1"], lab["H_2,3^0"])))
    with pytest.raises(NotAdmissiblePair):
        induce(G, bad, trivial_rep(G, bad))


# -- census ------------------------------------------------------------------


def test_census_small_groups(gmpn):
    assert semisimplicity_census(gmpn(1, 1, 3)) == (15, 15)
    assert semisimplicity_census(gmpn(2, 1, 2)) == (24, 24)


def test_census_packaged_groups(g25, g26):
    assert semisimplicity_census(g25) == (3272, 3272)
    assert semisimplicity_census(g25, mu_sixth()) == (3416, 3416)
    assert semisimplicity_census(g26) == (12312, 12312)
