"""Stabilizer generators from the orbit walk: Schreier elements, sifted."""

import pytest

from bct.brauer_modules import induce, quotient_regular_rep
from bct.errors import InternalInconsistency, InvalidParameters
from bct.reflection_groups import (
    Group,
    _sift,
    bfs,
    build_imprimitive,
    orbit,
    packaged_group,
    stabilizer,
    subgroup_closure,
)
from bct.transversality import collection_orbits
from conftest import SMALL_GMPN
from module_reference import _stab_sample, reference_stab_action

# the G(m,p,n) of the A2 sweep, whose transversality tables this one
# reuses: order at most 200, m <= 40
SMALL_MONOMIAL = [(m, p, n) for m, p, n in SMALL_GMPN if m <= 40]


def reference_orbit(G, B):
    """The orbit as the walk without witnesses found it: a bfs over the
    generators' action rows from sorted B."""
    out, _ = bfs(
        [tuple(sorted(B))],
        [G.hyperplane_action(s) for s in G.generators],
        lambda cur, act: tuple(sorted(act[h] for h in cur)),
    )
    return out


def assert_stabilizer_invariants(G):
    for rec in collection_orbits(G):
        B = rec.representative
        stab = G.stabilizer_of(B)
        gens = stab.generators
        assert set(gens) <= stab.elements
        assert subgroup_closure(G, gens).elements == stab.elements
        # each kept generator at least doubles the closure
        sizes = [subgroup_closure(G, gens[:k]).order for k in range(len(gens) + 1)]
        assert all(2 * a <= b for a, b in zip(sizes, sizes[1:]))
        assert len(gens) <= stab.order.bit_length() - 1
        blocks, witnesses = orbit(G, B)
        assert witnesses[0] == G.identity
        for block, u in zip(blocks, witnesses):
            assert tuple(sorted(G.hyperplane_action(u)[h] for h in B)) == block
        assert orbit(G, B)[0] == reference_orbit(G, B)
        assert len(blocks) == rec.orbit_size


@pytest.mark.parametrize("name", ["g4", "g23", "g25", "g26"])
def test_stabilizer_generators_on_matrix_groups(name, request):
    shared = name in ("g25", "g26")
    G = request.getfixturevalue(name) if shared else packaged_group(name)
    assert_stabilizer_invariants(G)


def test_stabilizer_generators_on_small_monomial_groups(sweep_group):
    assert len(SMALL_MONOMIAL) == 99
    for m, p, n in SMALL_MONOMIAL:
        assert_stabilizer_invariants(sweep_group(m, p, n))


def assert_invariant_collection_keeps_the_sift(G):
    # the empty collection is G-invariant: its one block has the identity
    # as witness, and the Schreier elements that a sift would read
    blocks, witnesses = orbit(G, ())
    assert blocks == [()] and witnesses == [G.identity]
    schreier = [G.mul(G.inv(u), G.mul(s, u)) for u in witnesses for s in G.generators]
    stab = stabilizer(G, ())
    assert stab.generators == tuple(_sift(G, schreier, G.order)[0])
    assert stab.elements == frozenset(G.elements)


@pytest.mark.parametrize("name", ["g4", "g23", "g25", "g26"])
def test_invariant_collection_keeps_the_sift_on_matrix_groups(name, request):
    shared = name in ("g25", "g26")
    G = request.getfixturevalue(name) if shared else packaged_group(name)
    assert_invariant_collection_keeps_the_sift(G)


def test_invariant_collection_keeps_the_sift_on_small_monomial_groups(
    sweep_group,
):
    assert len(SMALL_GMPN) == 164
    for m, p, n in SMALL_GMPN:
        if m <= 40:
            assert_invariant_collection_keeps_the_sift(sweep_group(m, p, n))
        else:
            # beyond the sweep, without action tables: the sift of the
            # generators, which are the Schreier elements, keeps them all
            G = build_imprimitive(m, p, n)
            assert tuple(_sift(G, G.generators, G.order)[0]) == G.generators


def test_stab_rep_twisted_on_a_generator_is_not_multiplicative(gmpn):
    # the regular representation of Stab(()) = G(2,1,4), induced to the
    # module on the cosets of the trivial K_(), with one Schreier generator
    # made to act as the identity; the reference's seeded sample alone does
    # not meet it
    G = gmpn(2, 1, 4)
    M = induce(G, (), quotient_regular_rep(G, ()))
    assert M.degree == M.dim == G.order
    stab = M.v0.stab
    twisted = stab.generators[-1]
    assert twisted not in _stab_sample(stab)[len(stab.generators):]
    M._perm_memo[twisted] = tuple(range(M.dim))
    with pytest.raises(InternalInconsistency, match="not multiplicative"):
        reference_stab_action(M)


@pytest.mark.parametrize("spec", [(2, 2, 6), (3, 1, 3), "g26"], ids=str)
def test_stabilizer_inverts_each_witness_once(spec, monkeypatch):
    # Group.inv is counted while every collection's stabilizer is built
    # anew, after the transversality table and the orbits, which invert too
    G = packaged_group(spec) if isinstance(spec, str) else build_imprimitive(*spec)
    reps = [rec.representative for rec in collection_orbits(G)]
    calls = []
    inv = Group.inv
    monkeypatch.setattr(Group, "inv", lambda self, a: calls.append(a) or inv(self, a))
    for B in reps:
        calls.clear()
        blocks, witnesses = stabilizer(G, B).walk
        assert len(calls) <= len(blocks)
        assert set(calls) <= set(witnesses)


def test_swapped_action_rows_break_the_schreier_closure():
    # a diagonal fixing B and one moving it trade rows, so over every
    # permutation a stabilizing element and a moving one trade rows: the
    # scan keeps its order, so orbit-stabilizer holds, but it no longer
    # equals the closure of the Schreier generators, which never read
    # those rows
    G = build_imprimitive(2, 1, 3)
    _, drow = G.action_rows
    B = (next(h.id for h in G.hyperplanes if h.key[0] == "pair"),)
    stabilizer(G, B)
    skip = {s % len(drow) for s in G.generators}
    diags = [d for d in range(len(drow)) if d not in skip]
    a = next(d for d in diags if drow[d][B[0]] == B[0])
    b = next(d for d in diags if drow[d][B[0]] != B[0])
    drow[a], drow[b] = drow[b], drow[a]
    with pytest.raises(InternalInconsistency, match="do not close to its scan"):
        stabilizer(G, B)


@pytest.mark.parametrize("B", [(99,), (-1,), (0, 0)], ids=["99", "-1", "0,0"])
@pytest.mark.parametrize(
    "build",
    [lambda: build_imprimitive(3, 1, 3), lambda: packaged_group("g4")],
    ids=["G(3,1,3)", "g4"],
)
def test_stabilizer_refuses_bad_ids(build, B):
    # an id out of range or repeated names no collection
    G = build()
    with pytest.raises(InvalidParameters):
        stabilizer(G, B)
    with pytest.raises(InvalidParameters):
        G.stabilizer_of(B)
