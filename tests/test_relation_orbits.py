"""The defining relations checked once per W-orbit.

verify_defining_relations checks B1, B3, B4 and B5 on one member per
orbit once the conjugation relation B2 holds.  The reference below runs
the same checks over every hyperplane, reflection and pair; the two
reports must agree on intact modules and on modules with a tampered eps.
The equivariance tests pin the facts the orbit argument rests on.
"""

import random
from functools import lru_cache

import pytest

from bct.admissibility import classify_orbits
from bct.brauer_modules import (
    b5_rhs,
    induce,
    op_add,
    op_compose,
    op_permute,
    op_shift,
    quotient_regular_rep,
    verify_defining_relations,
)
from bct.reflection_groups import Subgroup, build_imprimitive, packaged_group
from bct.transversality import transv_table


def conjugate(M, w, e):
    """w*e*w^-1 by two-sided re-indexing: entry (i, j) moves to
    (perm_of(w)[i], c[j]), with c the inverse of perm_of(w^-1)."""
    rows = M.perm_of(w)
    cols = {x: i for i, x in enumerate(M.perm_of(M.group.inv(w)))}
    return {(rows[i], cols[j]): v for (i, j), v in e.items()}


def reference_conjugation_failure(M, seed=0):
    """(w, hid) for the first w, among W's generators and then a seeded
    sample of W, and its first hyperplane with w*eps(H)*w^-1 != eps(wH)
    over the whole of eps; None when B2 holds on all of them.  B2 on the
    generators proves it for every element, as both sides are
    multiplicative in w."""
    G = M.group
    rng = random.Random(seed)
    pool = G.elements
    elems = list(G.generators) + rng.sample(pool, min(10, len(pool)))
    for w in elems:
        act = G.hyperplane_action(w)
        for hid in range(len(G.hyperplanes)):
            if conjugate(M, w, M.eps[hid]) != M.eps[act[hid]]:
                return w, hid
    return None


def reference_relations(M, seed=0):
    """(flags, first counterexample) of the five relations, each checked
    on every hyperplane, reflection and pair in ascending order."""
    G = M.group
    table = transv_table(G)
    labels = [h.label for h in G.hyperplanes]
    nh = len(labels)
    results = {name: True for name in ("B1", "B2", "B3", "B4", "B5")}
    first = None

    def fail(name, message):
        nonlocal first
        results[name] = False
        if first is None:
            first = f"{name}: {message}"

    for hid in range(nh):
        e = M.eps[hid]
        if op_compose(e, e) != op_shift(e, 0):
            fail("B1", f"eps({labels[hid]})^2 != delta*eps({labels[hid]})")
            break

    bad = reference_conjugation_failure(M, seed)
    if bad is not None:
        w, hid = bad
        fail("B2", f"w*eps({labels[hid]})*w^-1 != eps(w H) for w={w}")

    for ridx, s in enumerate(G.reflections):
        hid = G.reflection_hyperplane[ridx]
        e = M.eps[hid]
        if op_permute(e, M.perm_of(s)) != e:
            fail("B3", f"r*eps({labels[hid]}) != eps({labels[hid]}) for r#{ridx}")
            break

    transverse = [
        (h1, h2)
        for h1 in range(nh)
        for h2 in range(h1 + 1, nh)
        if table.transverse(h1, h2)
    ]
    for h1, h2 in transverse:
        e1, e2 = M.eps[h1], M.eps[h2]
        if op_compose(e1, e2) != op_compose(e2, e1):
            fail("B4", f"eps({labels[h1]}) and eps({labels[h2]}) do not commute")
            break

    nontransverse = [
        (h1, h2)
        for h1 in range(nh)
        for h2 in range(nh)
        if h1 != h2 and not table.transverse(h1, h2)
    ]
    for h1, h2 in nontransverse:
        if op_compose(M.eps[h1], M.eps[h2]) != b5_rhs(M, h1, h2):
            fail(
                "B5",
                f"eps({labels[h1]})*eps({labels[h2]}) != "
                f"sum over mapping reflections",
            )
            break

    return results, first


def assert_matches_reference(M):
    report = verify_defining_relations(M)
    assert (report.results, report.first_counterexample) == reference_relations(M)
    return report


@lru_cache(maxsize=None)
def group(spec):
    return packaged_group(spec) if isinstance(spec, str) else build_imprimitive(*spec)


def admissible_modules(G):
    for rec in classify_orbits(G):
        if rec.quotient():
            B = rec.orbit.representative
            yield induce(G, B, quotient_regular_rep(G, B))


# -- the per-orbit checks against the reference --------------------------------


@pytest.mark.parametrize(
    "spec",
    ["g4", "g23", (1, 1, 3), (1, 1, 4), (2, 1, 2), (3, 1, 2), (2, 2, 4), (3, 1, 3)],
    ids=str,
)
def test_orbit_checks_match_reference(spec):
    modules = 0
    for M in admissible_modules(group(spec)):
        assert assert_matches_reference(M).all_pass
        modules += 1
    assert modules >= 1


# the admissible orbits of at most one hyperplane on G25 and G26 (criterion 5
# builds G26's singletons); one module per test, since the reference on
# G26's singletons takes seconds
SMALL_ORBITS = {"g25": [(), (0,)], "g26": [(), (0,), (4,)]}


@pytest.mark.parametrize(
    "name, B",
    [(name, B) for name, reps in SMALL_ORBITS.items() for B in reps],
    ids=[f"{name}-{list(B)}" for name, reps in SMALL_ORBITS.items() for B in reps],
)
def test_orbit_checks_match_reference_on_g25_g26(request, name, B):
    G = request.getfixturevalue(name)
    assert SMALL_ORBITS[name] == [
        r.orbit.representative
        for r in classify_orbits(G)
        if r.quotient() and r.orbit.cardinality <= 1
    ]
    assert assert_matches_reference(induce(G, B, quotient_regular_rep(G, B))).all_pass


# -- tampered modules ------------------------------------------------------------


def _s3_module():
    G = group((1, 1, 3))
    B = (0,)
    return G, induce(G, B, quotient_regular_rep(G, B))


def test_tampered_eps_off_the_orbit_minimum_falls_back_to_every_hyperplane():
    """Negating the diagonal entry of eps on a hyperplane that is not its
    orbit's smallest member breaks B1 there alone and B2 on a generator,
    so every hyperplane is checked and the report is the reference one."""
    G, M = _s3_module()
    (orbit,) = G.hyperplane_orbits
    hid = orbit[-1]
    assert hid != orbit[0]
    e = dict(M.eps[hid])
    key = next(k for k in e if k[0] == k[1])
    e[key] = -e[key]
    M.eps[hid] = e
    report = assert_matches_reference(M)
    assert report.results["B1"] is False and report.results["B2"] is False
    label = G.hyperplanes[hid].label
    assert report.first_counterexample == f"B1: eps({label})^2 != delta*eps({label})"


def test_tampered_eps_off_the_class_minimum_breaks_b2_with_b3():
    """No tamper breaks B3 at one reflection alone while B2 holds: B2 for
    every w carries B3 at r to B3 at each conjugate of r, its class's
    smallest member included.  So a tamper that breaks B3 at a reflection
    other than its class's smallest member, and not at that member, breaks
    B2 too, and the report falls back to the reference one."""
    G, M = _s3_module()
    (cls,) = G.reflection_classes
    r0, r = cls[0], cls[-1]
    h0, hid = G.reflection_hyperplane[r0], G.reflection_hyperplane[r]
    assert r != r0 and hid != h0
    p = M.perm_of(G.reflections[r])
    row = next(i for i in range(M.dim) if p[i] != i)
    # an entry in a row that r moves, so r*eps(H_r) moves it as well
    M.eps[hid] = op_add(M.eps[hid], {(row, 0): M.delta})

    def b3_holds(ridx, h):
        return op_permute(M.eps[h], M.perm_of(G.reflections[ridx])) == M.eps[h]

    assert b3_holds(r0, h0) and not b3_holds(r, hid)
    report = assert_matches_reference(M)
    assert report.results["B2"] is False and report.results["B3"] is False


@pytest.mark.parametrize("spec", [(3, 1, 3), (2, 1, 2)], ids=str)
def test_scaled_orbit_keeps_b2_and_fails_on_the_orbit_representatives(spec):
    """Doubling eps on one whole hyperplane orbit keeps B2 and B3, which are
    linear in eps, but breaks B1 on that orbit and B5 on its non-transverse
    pairs.  So the per-orbit checks run, and must flag and name what the
    reference finds by checking every member."""
    G = group(spec)
    hyperplane_orbits = G.hyperplane_orbits
    assert len(hyperplane_orbits) == 2
    failing = 0
    for M in admissible_modules(G):
        intact = dict(M.eps)
        for orbit in hyperplane_orbits:
            M.eps = dict(intact)
            for hid in orbit:
                M.eps[hid] = {k: v * 2 for k, v in intact[hid].items()}
            report = assert_matches_reference(M)
            assert report.results["B2"] and report.results["B3"]
            if any(intact[hid] for hid in orbit):
                assert not report.results["B1"] and not report.results["B5"]
                failing += 1
    assert failing >= 2


# -- the equivariance the orbit argument rests on ------------------------------


@pytest.mark.parametrize(
    "spec", ["g4", "g23", "g25", (3, 1, 3), (2, 2, 4), (4, 2, 3)], ids=str
)
def test_table_and_classes_are_equivariant(spec):
    """For each generator s: transversality of (sH, sH') is that of (H, H');
    conjugation by s carries the reflections mapping H' to H onto those
    mapping sH' to sH; and it keeps every reflection in its class."""
    G = group(spec)
    table = transv_table(G)
    nh = len(G.hyperplanes)
    refls = G.reflections
    for s in G.generators:
        act = G.hyperplane_action(s)
        conj = [G.reflection_index[G.conj(s, r)] for r in refls]
        for h in range(nh):
            for hp in range(nh):
                if h == hp:
                    continue
                assert table.transverse(act[h], act[hp]) == table.transverse(h, hp)
                assert {conj[r] for r in table.mapped_by(hp, h)} == set(
                    table.mapped_by(act[hp], act[h])
                )
        for r in range(len(refls)):
            assert G.reflection_class_of[conj[r]] == G.reflection_class_of[r]


# -- B2 by transport from block 0 -------------------------------------------------
#
# verify_defining_relations checks B2 by carrying the block-0 columns of each
# eps to the other blocks through the orbit walk's witnesses, and around
# block 0 through the generators `stabilizer` kept for Stab(B).  Each tamper
# below breaks B2; reference_conjugation_failure checks the whole of eps on
# W's generators and a seeded sample, and the two flags must agree.

TRANSPORT_GROUPS = ["g4", (3, 1, 3), (2, 2, 4), "g25"]
# the admissible modules with eps entries, which all have a block t > 0
MODULES_WITH_ENTRIES = {"g4": 1, (3, 1, 3): 2, (2, 2, 4): 5, "g25": 2}


def _replace_entry(M, hid, key, value):
    """eps(hid) with the entry at key set to value, or dropped for None."""
    e = dict(M.eps[hid])
    if value is None:
        del e[key]
    else:
        e[key] = value
    M.eps[hid] = e


def _last_block_entry(M):
    """(hid, key) of the first eps entry in a column of the last block."""
    t = len(M.blocks) - 1
    return next(
        (hid, key) for hid, e in M.eps.items() for key in e if key[1] // M.degree == t
    )


def _changed_entry(M):
    hid, key = _last_block_entry(M)
    _replace_entry(M, hid, key, -M.eps[hid][key])


def _dropped_entry(M):
    hid, key = _last_block_entry(M)
    _replace_entry(M, hid, key, None)


def _extra_entry(M):
    # a new entry in the column of an existing one, in a row empty there
    hid, (_, j) = _last_block_entry(M)
    row = next(r for r in range(M.dim) if (r, j) not in M.eps[hid])
    _replace_entry(M, hid, (row, j), M.delta)


def _stab_only_entry(M):
    """Negate one block-0 entry that a kept generator of Stab(B) moves, and
    its copy under every witness of the orbit walk, so that the transport
    to the blocks t > 0 still holds and only the Stab(B) check fails."""
    G = M.group
    stab = G.stabilizer_of(M.B)
    moves = [(G.hyperplane_action(k), M.perm_of(k)) for k in stab.generators]
    hid, (i, j) = next(
        (hid, (i, j))
        for hid, e in M.eps.items()
        for i, j in e
        if j < M.degree
        and any((act[hid], p[i], p[j]) != (hid, i, j) for act, p in moves)
    )
    value = -M.eps[hid][(i, j)]
    for w in stab.walk[1]:
        p = M.perm_of(w)
        _replace_entry(M, G.hyperplane_action(w)[hid], (p[i], p[j]), value)


BLOCK_TAMPERS = [_changed_entry, _dropped_entry, _extra_entry]


def _tampered_modules(spec):
    """(tamper name, module) for each admissible module of the group, intact
    and under each tamper that applies: the block tampers need a block
    t > 0, the Stab(B) one an eps entry."""
    for M in admissible_modules(group(spec)):
        intact = dict(M.eps)
        yield "intact", M
        tampers = BLOCK_TAMPERS if len(M.blocks) > 1 else []
        if any(intact.values()):
            tampers = tampers + [_stab_only_entry]
        for tamper in tampers:
            M.eps = dict(intact)
            tamper(M)
            yield tamper.__name__, M
        M.eps = intact


@pytest.mark.parametrize("spec", TRANSPORT_GROUPS, ids=str)
def test_transport_b2_flag_matches_the_whole_module_reference(spec):
    seen = set()
    for name, M in _tampered_modules(spec):
        holds = reference_conjugation_failure(M) is None
        assert verify_defining_relations(M).results["B2"] is holds, (name, M.B)
        assert holds is (name == "intact"), (name, M.B)
        seen.add(name)
    assert len(seen) == 5


@pytest.mark.parametrize("tamper", BLOCK_TAMPERS, ids=lambda f: f.__name__)
def test_block_entry_tamper_breaks_b2_at_a_witness(tamper):
    """An entry of the last block changed, dropped or added breaks B2, and
    the counterexample names the witness that maps B onto that block."""
    G = group((3, 1, 3))
    B = (3,)
    M = induce(G, B, quotient_regular_rep(G, B))
    assert len(M.blocks) == 9
    tamper(M)
    report = verify_defining_relations(M)
    assert report.results["B2"] is False
    witnesses = G.stabilizer_of(B).walk[1]
    w = int(report.first_counterexample.rsplit("w=", 1)[1])
    assert w in witnesses[1:]


@pytest.mark.parametrize("spec", TRANSPORT_GROUPS, ids=str)
def test_stab_only_tamper_needs_the_stabilizer_generators(spec, monkeypatch):
    """The Stab(B)-only tamper keeps every witness's transport, so only the
    check on the kept generators of Stab(B) finds it: with those generators
    dropped, B2 passes on the tampered module."""
    G = group(spec)
    caught = 0
    for M in admissible_modules(G):
        if not any(M.eps.values()):
            continue
        _stab_only_entry(M)
        assert verify_defining_relations(M).results["B2"] is False
        stab = G.stabilizer_of(M.B)
        with monkeypatch.context() as m:
            m.setitem(G._stabilizers, M.B, Subgroup((), stab.elements, stab.walk))
            assert verify_defining_relations(M).results["B2"] is True
        caught += 1
    assert caught == MODULES_WITH_ENTRIES[spec]
