"""Acceptance suite: one test per acceptance criterion.

Each test prints a single summary line (bypassing capture) so a test run
shows one pass line per criterion; a failed criterion shows up as the
pytest failure instead.  All comparisons are exact.
"""

import json
import time
from math import factorial

import pytest

from bct.admissibility import (
    classify_orbits,
    collection,
    d0_ideal_dim,
    dim_brauer,
    dim_g22n_formula,
    dim_gmpn_formula,
)
from bct.brauer_modules import (
    induce,
    quotient_regular_rep,
    semisimplicity_census,
    verify_defining_relations,
)
from bct.cli import main
from bct.exact_arith import zeta
from bct.freeness import freeness_verdict
from bct.reflection_groups import (
    build_imprimitive,
    packaged_group,
    stabilizer,
)
from bct.transversality import enumerate_collections

TEN_MINUTES = 600.0

SWEEP = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(2, 5)
    if (m, p) != (2, 2)
]
DOUBLED = [(2, 2, n) for n in (3, 4, 5)]


def announce(num, text):
    print(f"criterion {num}: PASS  {text}", flush=True)


@pytest.fixture(scope="session")
def sweep_groups():
    keys = SWEEP + DOUBLED + [(1, 1, 5)]
    return {key: build_imprimitive(*key) for key in keys}


@pytest.fixture(scope="session")
def g4():
    return packaged_group("g4")


@pytest.fixture(scope="session")
def g23():
    return packaged_group("g23")


def timed_dim(G, mu6=False):
    t0 = time.perf_counter()
    dim = dim_brauer(G, mu6)
    return dim, time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_1_dimension_table(g25, g26):
    checks = [
        (g25, False, 3272),
        (g25, True, 3416),
        (g26, False, 12312),
        (g26, True, 12312),
    ]
    worst = 0.0
    for G, mu6, expect in checks:
        dim, elapsed = timed_dim(G, mu6)
        assert dim == expect, (G.name, mu6, dim)
        assert elapsed < TEN_MINUTES, (G.name, elapsed)
        worst = max(worst, elapsed)
    announce(1, f"dims 3272/3416 and 12312/12312, slowest {worst:.1f}s")


def test_criterion_2_orbit_tables(g25, g26):
    def shape(recs, mu6=False):
        return [
            (r.orbit.cardinality, r.orbit.orbit_size, r.quotient(mu6))
            for r in recs
        ]

    recs = classify_orbits(g25)
    assert shape(recs) == [(0, 1, 648), (1, 12, 18), (2, 12, 0), (3, 4, 2)]
    assert [r.conditional for r in recs] == [False, False, True, False]
    assert shape(recs, True) == [(0, 1, 648), (1, 12, 18), (2, 12, 1), (3, 4, 2)]

    recs = classify_orbits(g26)
    assert shape(recs) == [(0, 1, 1296), (1, 12, 36), (1, 9, 72), (2, 36, 0)]
    pair = recs[3]
    assert pair.a1, "the size-2 orbit dies at the e_B level"
    assert not pair.admissible_generic and not pair.admissible_mu6
    assert shape(recs, True)[3] == (2, 36, 0)
    announce(2, "orbit tables (card, orbit, quotient) match exactly")


def test_criterion_3_formula_agreement(sweep_groups):
    for key in SWEEP:
        m, p, n = key
        enumerated = dim_brauer(sweep_groups[key])
        assert enumerated == dim_gmpn_formula(m, p, n), key
    for key in DOUBLED:
        enumerated = dim_brauer(sweep_groups[key])
        assert enumerated == dim_g22n_formula(key[2]), key
    anchors = {2: 3, 3: 15, 4: 105, 5: 945}
    for n, expect in anchors.items():
        assert dim_brauer(sweep_groups[(1, 1, n)]) == expect, n
    announce(3, f"{len(SWEEP)} closed forms, 3 doubled forms, 4 anchors")


def test_criterion_4_kb_order_formulas(sweep_groups):
    checked = 0
    for key in SWEEP:
        m, p, n = key
        G = sweep_groups[key]
        hyps = G.hyperplanes
        for B in enumerate_collections(G):
            if not B or any(hyps[h].key[0] != "pair" for h in B):
                continue
            r = len(B)
            expect = 2**r * m ** (r - 1) * factorial(r)
            assert collection(G, B).kb.order == expect, (key, B)
            checked += 1
    doubled_checked = 0
    for key in DOUBLED:
        n = key[2]
        G = sweep_groups[key]
        hyps = G.hyperplanes
        for B in enumerate_collections(G):
            if not B:
                continue
            labels = {}
            for h in B:
                k = hyps[h].key
                assert k[0] == "pair"
                labels.setdefault((k[1], k[2]), set()).add(k[3])
            if not all(v == {0, 1} for v in labels.values()):
                continue
            r = len(labels)
            assert len(B) == 2 * r
            expect = 2 ** (r + n - 1) * factorial(r)
            assert collection(G, B).kb.order == expect, (key, B)
            doubled_checked += 1
    assert checked > 100 and doubled_checked > 10
    announce(
        4, f"|K_B| formulas on {checked} pair-type + {doubled_checked} doubled"
    )


def test_criterion_5_defining_relations(sweep_groups, g26):
    keys = [(1, 1, 3), (1, 1, 4), (2, 1, 2), (3, 1, 2), (2, 2, 4)]
    modules = 0
    for key in keys:
        G = sweep_groups[key]
        for rec in classify_orbits(G):
            if rec.quotient() == 0:
                continue
            B = rec.orbit.representative
            M = induce(G, B, quotient_regular_rep(G, B))
            report = verify_defining_relations(M)
            assert report.all_pass, (key, B, report.first_counterexample)
            modules += 1
    for rec in classify_orbits(g26):
        if rec.orbit.cardinality != 1:
            continue
        B = rec.orbit.representative
        M = induce(g26, B, quotient_regular_rep(g26, B))
        report = verify_defining_relations(M)
        assert report.all_pass, (B, report.first_counterexample)
        modules += 1

    # negative control: perturb one eps entry, B1 must break
    G = sweep_groups[(1, 1, 3)]
    M = induce(G, (0,), quotient_regular_rep(G, (0,)))
    broken = dict(M.eps[0])
    key0 = next(iter(broken))
    broken[key0] = broken[key0] + broken[key0]
    M.eps[0] = broken
    control = verify_defining_relations(M)
    assert control.results["B1"] is False
    announce(5, f"B1-B5 on {modules} modules; perturbed control fails B1")


def test_criterion_6_semisimplicity_census(sweep_groups, g25, g26):
    groups = 0
    for key in SWEEP + DOUBLED:
        ss, dim = semisimplicity_census(sweep_groups[key])
        assert ss == dim, key
        groups += 1
    for mu6 in (False, True):
        ss, dim = semisimplicity_census(g25, mu6)
        assert ss == dim == (3416 if mu6 else 3272)
        groups += 1
    ss, dim = semisimplicity_census(g26)
    assert ss == dim == 12312
    groups += 1
    announce(6, f"sum of squares equals dimension for {groups} group/field pairs")


def test_criterion_7_computational_results(g4, g23, g25, g26):
    orbits = 0
    for G in (g4, g23, g25, g26):
        for rec in classify_orbits(G):
            a2 = all(rec.a2)
            assert rec.a1 != a2, (G.name, rec.orbit.representative)
            orbits += 1
        if G is g26:
            assert not any(r.conditional for r in classify_orbits(G))

    cond = [r for r in classify_orbits(g25) if r.conditional]
    assert len(cond) == 1 and cond[0].orbit.cardinality == 2
    B = cond[0].orbit.representative
    col = collection(g25, B)
    p_pairs = col.p_pairs
    products, in_stab = col.products
    assert in_stab and p_pairs
    for (i, j), g in zip(p_pairs, products):
        assert g25.reflection_class_of[i] != g25.reflection_class_of[j]
        power, order = g, 1
        while power != g25.identity:
            power = g25.mul(power, g)
            order += 1
        assert order == 6, (i, j)

    stab = stabilizer(g25, B)
    kb = col.kb
    expect = stab.order - stab.order // kb.order
    assert d0_ideal_dim(g25, B, zeta(6, 1)) == expect == 53
    announce(
        7,
        f"A1 xor A2 on {orbits} orbits; conditional products order 6; "
        f"ideal dim {expect}",
    )


def test_criterion_8_freeness_verdicts(sweep_groups, g25, g26):
    for key in SWEEP + DOUBLED:
        report = freeness_verdict(sweep_groups[key])
        assert report.verdict == "free", key
        assert report.route == "monomial-family", key

    report = freeness_verdict(g26)
    assert report.verdict == "free"
    assert report.route == "singleton-geometry"
    geo = report.geometry
    assert geo["triple_partners"] and geo["partners_determine"]
    assert geo["pair_count"] == 36 and geo["pair_orbit_count"] == 1

    report = freeness_verdict(g25)
    assert report.verdict == "not_free"
    assert report.witness == {"dim_generic": 3272, "dim_sixth_root": 3416}
    assert report.witness["dim_generic"] < report.witness["dim_sixth_root"]
    announce(
        8,
        f"{len(SWEEP) + len(DOUBLED)} monomial groups free; "
        "geometry certifies the 21-hyperplane group; 3272 < 3416 witness",
    )


def test_criterion_9_reproduce_table(capsys, tmp_path):
    code = main(["--cache-dir", str(tmp_path / "cache"), "reproduce-table"])
    out = capsys.readouterr().out
    assert code == 0
    table = json.loads(out)
    rows = {r["name"]: r for r in table["rows"]}
    assert len(rows) == 34

    absent = sorted(
        n for n, r in rows.items()
        if r["status"] == "unverified (external data absent)"
    )
    expect_absent = sorted(
        f"G{i}" for i in range(4, 38) if i not in (4, 23, 25, 26)
    )
    assert absent == expect_absent

    assert rows["G4"]["status"] == "verified"
    assert rows["G4"]["dim_generic"] == 56
    assert rows["G23"]["status"] == "verified"
    assert rows["G23"]["dim_generic"] == 1045
    assert rows["G25"]["status"] == "verified"
    assert rows["G26"]["status"] == "verified"
    announce(9, "30 rows unverified without data; G4=56, G23=1045 exact")
