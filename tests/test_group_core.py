"""The integer-indexed group core against independent references.

Two oracles: a breadth-first closure over matrix products (the value
arithmetic of tests/group_reference.py) with a rank-1 hyperplane scan,
kept here as the reference for element order, hyperplane order, roots and
distinguished reflections; and a differential check that builds each small
monomial group twice, from parameters and as a matrix group from its
generators' matrices.
"""

import hashlib
import json
from collections import Counter
from functools import cached_property
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bct import reflection_groups
from bct.admissibility import classify_orbits, dim_from_rows
from bct.definitions import field_row
from bct.brauer_modules import induce, quotient_regular_rep, verify_defining_relations
from bct.errors import TooLarge
from bct.exact_arith import CycNumber, SpanBasis, zeta
from bct.freeness import freeness_verdict
from bct.reflection_groups import (
    Group,
    bfs,
    build_imprimitive,
    build_matrix_group,
    orbit,
    packaged_definition,
    packaged_group,
    reflection_from_root,
)
from bct.transversality import transv_table
from group_reference import (
    identity_matrix,
    inv,
    is_identity,
    monomial_matrix,
    mul,
    trace,
)

# ---------------------------------------------------------------------------
# reference: closure over matrix products


def reference_closure(gens):
    """Elements in the breadth-first order of right multiplication."""
    ident = identity_matrix(len(gens[0]))
    elements, seen, queue = [ident], {ident}, [ident]
    while queue:
        g = queue.pop(0)
        for s in gens:
            h = mul(g, s)
            if h not in seen:
                seen.add(h)
                elements.append(h)
                queue.append(h)
    return elements


def reference_hyperplanes(elements):
    """(root, distinguished reflection, member positions) per hyperplane:
    the rank-1 scan of g - I over the elements in order, roots from the
    first nonzero column scaled by its leading entry."""
    one = CycNumber.rational(1)
    n = len(elements[0])
    by_root, order = {}, []
    for pos, g in enumerate(elements):
        if is_identity(g):
            continue
        rows = [
            [g[i][j] - (one if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        span = SpanBasis(n)
        for row in rows:
            span.add(row)
        if span.rank != 1:
            continue
        col = next(
            c for c in ([rows[i][j] for i in range(n)] for j in range(n)) if any(c)
        )
        lead = next(x for x in col if x)
        root = tuple(x / lead for x in col)
        if root not in by_root:
            by_root[root] = []
            order.append(root)
        by_root[root].append(pos)
    out = []
    for root in order:
        members = by_root[root]
        want = zeta(len(members) + 1) + (n - 1)
        (dist,) = [p for p in members if trace(elements[p]) == want]
        out.append((root, dist, members))
    return out


def test_packaged_groups_pinned_to_matrix_closure():
    for name in ("g4", "g23"):
        G = packaged_group(name)
        gens = [
            tuple(tuple(CycNumber.from_json(x) for x in row) for row in g)
            for g in packaged_definition(name)["generators"]
        ]
        ref = reference_closure(gens)
        assert G.order == len(ref)
        assert [G.element(i) for i in G.elements] == ref
        assert [G.index_of(g) for g in ref] == list(G.elements)
        assert [G.element(s) for s in G.generators] == gens
        ref_hyps = reference_hyperplanes(ref)
        hyps = G.hyperplanes
        assert [h.root for h in hyps] == [root for root, _, _ in ref_hyps]
        assert [h.dist_reflection for h in hyps] == [d for _, d, _ in ref_hyps]
        assert list(G.reflections) == [p for _, _, ms in ref_hyps for p in ms]
        # products and inverses agree with the matrices
        for a in range(0, G.order, 7):
            for b in range(0, G.order, 11):
                assert G.element(G.mul(a, b)) == mul(ref[a], ref[b])
            assert G.element(G.inv(a)) == inv(ref[a])


# sha256 of the point list and of the hyperplane data, as built by the
# CycNumber closure and rank-1 scan: (name, cap, points, hyperplanes)
BUILD_PINS = [
    ("g4", 24,
     "19fdd4fd060ece21ff5ddbd37327820f040fe00877129dd44a3bd3cf8d4ef720",
     "b7aa20a83efa32a748b1cd02e6fb1bd930ccbac87131de4d2ea6c9e1d6d15030"),
    ("g23", 120,
     "0ca634ef1d29f696a5ec9d7713f7282b9cf22372716270e929968ded3229ccbe",
     "278e07b04db7f77d4582aa73449490719e74cdc050331fa51de131016432780b"),
    ("g25", 648,
     "ed96136b7f7ef0ed3b5cf6caace5e1862876205e2a867ebdca0272a20aaf9716",
     "4ad2dfb498f49bc6a33f712217e69a080ffe1e2532c96c49c91fb32c5947dcd5"),
    ("g26", 1296,
     "ed96136b7f7ef0ed3b5cf6caace5e1862876205e2a867ebdca0272a20aaf9716",
     "b34471bfa2aea421207f616de743e747b7b9e4145d73ed22c5ab89e2ee215a63"),
]


def sha256_json(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


@pytest.mark.parametrize(
    "name, cap, points_sha, hyps_sha", BUILD_PINS, ids=[p[0] for p in BUILD_PINS]
)
def test_build_exposes_pinned_points_and_hyperplanes(name, cap, points_sha, hyps_sha):
    """Points in order as canonical CycNumber JSON, and per hyperplane its
    root, distinguished reflection and reflections; the cap is the group
    order, which the closure reaches without refusing."""
    G = packaged_group(name, cap=cap)
    points = [[G._field.cyc(x).to_json() for x in v] for v in G._points]
    hyps = [
        [
            [x.to_json() for x in h.root],
            h.dist_reflection,
            list(G.hyperplane_reflections[h.id]),
        ]
        for h in G.hyperplanes
    ]
    assert (sha256_json(points), sha256_json(hyps)) == (points_sha, hyps_sha)


@pytest.mark.parametrize("name", ["g25", "g26"])
def test_closure_refused_under_cap(name):
    with pytest.raises(TooLarge) as exc:
        packaged_group(name, cap=130)
    assert str(exc.value) == "group closure exceeds cap 130"


def closure_site(name, cap, monkeypatch):
    """The closure build_matrix_group stops in under cap, read off the
    limit of the last bfs it started: "points" for dim * cap, "elements"
    for cap; None when the group builds."""
    limits = []

    def spy(seeds, labels, step, limit=None, refuse=None):
        limits.append(limit)
        return bfs(seeds, labels, step, limit, refuse)

    monkeypatch.setattr(reflection_groups, "bfs", spy)
    try:
        packaged_group(name, cap=cap)
    except TooLarge as exc:
        assert str(exc) == f"group closure exceeds cap {cap}"
        return "elements" if limits[-1] == cap else "points"
    return None


@pytest.mark.parametrize(
    "name, cap, site",
    [
        ("g4", 24, None),
        ("g4", 23, "elements"),
        ("g23", 120, None),
        ("g23", 119, "elements"),
        # 72 points in dimension 3: dim * cap = 69 refuses them
        ("g25", 23, "points"),
        ("g25", 24, "elements"),
    ],
)
def test_closure_builds_at_its_order_and_is_refused_below(name, cap, site, monkeypatch):
    assert closure_site(name, cap, monkeypatch) == site


# ---------------------------------------------------------------------------
# differential oracle: monomial build against matrix build

SMALL = [
    (m, p, n)
    for m in range(1, 9)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(2, 6)
    if factorial(n) * m**n // p <= 200
]


def table_rows(G):
    """(row shapes, dimension) of both fields, from one classification.
    The fields differ only on conditional orbits, which a sixth root
    admits and generic parameters do not."""
    recs = classify_orbits(G)
    for rec in recs:
        q = rec.orbit.stab_order // rec.kb_order
        if rec.conditional:
            assert (rec.quotient(False), rec.quotient(True)) == (0, q)
        else:
            assert rec.quotient(True) == rec.quotient(False)
    out = []
    for mu6 in (False, True):
        rows = [field_row(rec.row, mu6) for rec in recs]
        shape = Counter(
            tuple(sorted((k, v) for k, v in row.items() if k != "representative"))
            for row in rows
        )
        out.append((shape, dim_from_rows(G.order, rows)))
    return out


def freeness_rows(report):
    return Counter(
        tuple(sorted((k, v) for k, v in row.items() if k != "representative"))
        for row in report.orbit_checks
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL))
# odd m, whose field Q(zeta_m) holds the roots of unity of order 2m
@example((3, 1, 2))
@example((5, 5, 2))
def test_monomial_and_matrix_builds_agree(params):
    mono = build_imprimitive(*params)
    mat = build_matrix_group(
        [monomial_matrix(mono, s) for s in mono.generators], name="matrix"
    )
    assert mat.order == mono.order
    assert len(mat.hyperplanes) == len(mono.hyperplanes)
    assert table_rows(mat) == table_rows(mono)
    got, want = freeness_verdict(mat), freeness_verdict(mono)
    assert got.verdict == want.verdict == "free"
    # the monomial build is routed by its kind; the matrix build has to
    # earn the verdict orbit by orbit
    assert (want.route, got.route) == ("monomial-family", "collection-dichotomy")
    assert freeness_rows(got) == freeness_rows(want)


def test_g42_4_and_one_reflection_close_to_g31():
    """G(4,2,4) and the reflection of order 2 in (1,1,1,1) generate G31,
    degrees 8, 12, 20, 24: |G| is their product and the reflection count
    (one per hyperplane) the sum of the degrees minus one each."""
    mono = build_imprimitive(4, 2, 4)
    gens = [monomial_matrix(mono, s) for s in mono.generators]
    G = build_matrix_group(gens + [reflection_from_root((1, 1, 1, 1), -1)])
    assert (G.order, G.npoints) == (8 * 12 * 20 * 24, 240)
    assert len(G.reflections) == len(G.hyperplanes) == 7 + 11 + 19 + 23


@pytest.mark.parametrize("name", ["g4", "g23", "g25", "g26"])
def test_packaged_fields_differ_only_on_conditional_orbits(name):
    (_, generic), (_, sixth) = table_rows(packaged_group(name))
    assert (generic == sixth) == (name != "g25")


@pytest.mark.parametrize("build", ["gmpn:2,1,3", "gmpn:2,2,2", "g4", "rank 1"])
def test_batched_products_match_mul(build):
    """left_mul(xs)(g) and right_coset(xs, g) list g*x and x*g for every x
    of a fixed list, as mul does one at a time, also for rank 1, where a
    frame is an int, and for lists of no and of one element."""
    if build == "rank 1":
        G = build_matrix_group([[[zeta(3)]]])
        assert G.dim == 1
    elif build == "g4":
        G = packaged_group("g4")
    else:
        G = build_imprimitive(*map(int, build[5:].split(",")))
    last = G.order - 1
    for xs in ([], [last], [last, 0, 1, 1], list(G.elements)):
        left = G.left_mul(xs)
        for g in G.elements:
            assert list(left(g)) == [G.mul(g, x) for x in xs]
            assert list(G.right_coset(xs, g)) == [G.mul(x, g) for x in xs]


@pytest.mark.parametrize("spec", ["gmpn:2,1,3", "g4"])
def test_hyperplanes_and_action_rows_are_built_once(spec, monkeypatch):
    """Every reader of the group's derived data, down to the relation
    checks on an induced module, shares one hyperplane build and one
    action-row build."""
    calls = Counter()
    build = Group._build_hyperplanes

    def counted_build(self):
        calls["hyperplanes"] += 1
        return build(self)

    rows = Group.__dict__["action_rows"].func

    def counted_rows(self):
        calls["action_rows"] += 1
        return rows(self)

    counted = cached_property(counted_rows)
    counted.__set_name__(Group, "action_rows")
    monkeypatch.setattr(Group, "_build_hyperplanes", counted_build)
    monkeypatch.setattr(Group, "action_rows", counted)
    G = packaged_group(spec) if spec == "g4" else build_imprimitive(2, 1, 3)
    assert not calls
    for _ in range(2):
        hyps = G.hyperplanes
        for ridx, g in enumerate(G.reflections):
            assert G.reflection_index[g] == ridx
            hid = G.reflection_hyperplane[ridx]
            assert ridx in G.hyperplane_reflections[hid]
            assert G.reflection_class_of[ridx] < len(G.reflection_classes)
        assert all(h.dist_reflection in h.reflections for h in hyps)
        assert G.generator_rows == [G.hyperplane_action(s) for s in G.generators]
        assert len(G.action_rows[0]) * len(G.action_rows[1]) <= G.order
        assert G.index_of(G.element(G.order - 1)) == G.order - 1
        B = (0,)
        assert G.stabilizer_of(B).order * len(orbit(G, B)[0]) == G.order
        transv_table(G)
        classify_orbits(G)
        report = verify_defining_relations(induce(G, (), quotient_regular_rep(G, ())))
        assert report.all_pass
    assert calls == {"hyperplanes": 1, "action_rows": 1}
