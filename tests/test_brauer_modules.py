"""Induced modules, defining relations, and the census identity."""

import sys

import pytest

from bct import reflection_groups, transversality
from bct.admissibility import classify_orbits, collection
from bct.brauer_modules import (
    StabRep,
    b5_rhs,
    delta_scalar,
    induce,
    mu_scalar,
    op_add,
    op_compose,
    op_permute,
    op_shift,
    quotient_regular_rep,
    semisimplicity_census,
    trivial_rep,
    verify_defining_relations,
)
from bct.errors import NotAdmissible, NotAdmissiblePair
from bct.reflection_groups import build_imprimitive, packaged_group
from bct.transversality import transv_table


def by_label(G):
    return {h.label: h.id for h in G.hyperplanes}


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
    # V0 is block 0 of the induced module, which Stab(B) maps to itself
    G = gmpn(1, 1, 4)
    B = (by_label(G)["H_1,2"],)
    v0 = quotient_regular_rep(G, B)
    M = induce(G, B, v0)
    block0 = range(v0.degree)
    for g in v0.stab.generators:
        mat = {(r, c): v for (r, c), v in M.op_of(g).items() if c in block0}
        assert sorted(r for r, _ in mat) == list(block0)
        assert sorted(c for _, c in mat) == list(block0)
        assert all(val == val * 1 and bool(val) for val in mat.values())


# -- defining relations ------------------------------------------------------


@pytest.mark.parametrize("params", [(1, 1, 3), (1, 1, 4), (2, 1, 2), (3, 1, 2), (2, 2, 4)])
def test_relations_on_all_admissible_orbits(gmpn, params):
    G = gmpn(*params)
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        if rec.quotient() == 0:
            with pytest.raises(NotAdmissible):
                quotient_regular_rep(G, B)
            continue
        v0 = quotient_regular_rep(G, B)
        assert v0.degree == rec.quotient()
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


def test_noncommuting_transverse_eps_fails_b4(gmpn):
    # eps(H) replaced by eps(H) times the element 2: it no longer commutes
    # with eps of a hyperplane transverse to H
    G = gmpn(1, 1, 4)
    B = (0,)
    M = induce(G, B, quotient_regular_rep(G, B))
    M.eps[0] = op_permute(M.eps[0], M.perm_of(2))
    report = verify_defining_relations(M)
    assert report.results["B4"] is False
    assert not report.all_pass


@pytest.mark.parametrize(
    "spec, swap, text",
    [
        ((1, 1, 3), ("H_1,2", "H_1,3"), "B2: w*eps(H_1,2)*w^-1 != eps(w H) for w=1"),
        ("g4", ("H0", "H2"), "B2: w*eps(H0)*w^-1 != eps(w H) for w=1"),
    ],
    ids=["gmpn:1,1,3", "g4"],
)
def test_swapped_eps_fails_conjugation_not_first_relation(gmpn, spec, swap, text):
    # eps of two hyperplanes of one orbit exchanged: each operator still
    # squares to delta times itself, but w*eps(H)*w^-1 = eps(wH) breaks;
    # the counterexample names w by its element index
    G = packaged_group(spec) if isinstance(spec, str) else gmpn(*spec)
    lab = by_label(G)
    a, b = lab[swap[0]], lab[swap[1]]
    B = (a,)
    M = induce(G, B, quotient_regular_rep(G, B))
    M.eps[a], M.eps[b] = M.eps[b], M.eps[a]
    report = verify_defining_relations(M)
    assert report.results["B1"] is True
    assert report.results["B2"] is False
    assert report.first_counterexample == text


def _modules(G):
    for rec in classify_orbits(G):
        if rec.quotient():
            B = rec.orbit.representative
            yield induce(G, B, quotient_regular_rep(G, B))


@pytest.mark.parametrize("spec", [(1, 1, 3), (2, 2, 3), "g4"])
def test_reindexing_matches_sparse_products(gmpn, spec):
    """B2, B3 and the right-hand side of B5 are checked by re-indexing
    eps through basis permutations; each must equal the sparse product
    with the permutation matrices of op_of, kept here as the reference.
    B2 moves entry (i, j) of eps to (p[i], p[j]) for p = perm_of(w): one
    permutation for both sides of w*eps*w^-1."""
    G = packaged_group(spec) if isinstance(spec, str) else gmpn(*spec)
    table = transv_table(G)
    nh = len(G.hyperplanes)
    delta = delta_scalar(G)
    modules = 0
    for M in _modules(G):
        for hid in range(nh):
            e = M.eps[hid]
            assert op_shift(e, 0) == {k: v * delta for k, v in e.items()}
        for w in G.elements:
            p = M.perm_of(w)
            wop, winv = M.op_of(w), M.op_of(G.inv(w))
            for hid in range(nh):
                e = M.eps[hid]
                want = op_compose(op_compose(wop, e), winv)
                assert {(p[i], p[j]): v for (i, j), v in e.items()} == want
        for ridx, s in enumerate(G.reflections):
            e = M.eps[G.reflection_hyperplane[ridx]]
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


@pytest.mark.parametrize("spec", [(3, 1, 3), "g4"], ids=str)
def test_each_collection_is_walked_once(monkeypatch, spec):
    """Orbit records, admissibility and induction read the orbit walk that
    Stab(B) was sifted from: one walk per collection.  The counting wrapper
    replaces orbit in every bct module that binds it."""
    walks = {}
    walk = reflection_groups.orbit

    def counted(G, B):
        key = tuple(sorted(B))
        walks[key] = walks.get(key, 0) + 1
        return walk(G, B)

    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name.startswith("bct") and getattr(mod, "orbit", None) is walk:
            monkeypatch.setattr(mod, "orbit", counted)
    G = packaged_group(spec) if isinstance(spec, str) else build_imprimitive(*spec)
    modules = 0
    for M in _modules(G):
        assert verify_defining_relations(M).all_pass
        modules += 1
    assert modules >= 2
    assert walks and max(walks.values()) == 1, walks


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
    # refused for both fields: not admissible for generic parameters, and
    # at a sixth root the twisting character is non-trivial
    with pytest.raises(NotAdmissible, match="twisting character is non-trivial"):
        quotient_regular_rep(g25, B)
    # with the trivial character the representation exists, but the
    # formal scalar ring never specializes, so induction still refuses
    v0 = StabRep(g25, g25.stabilizer_of(B), collection(g25, B).kb)
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
    assert semisimplicity_census(g25, mu6=True) == (3416, 3416)
    assert semisimplicity_census(g26) == (12312, 12312)
