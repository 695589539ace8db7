"""The factored hyperplane action against the unfactored one.

Element r*D + d of a monomial group is permutation r after diagonal d, and
its row of hyperplane images is the permutation's row read at the
diagonal's (Group.action_rows).  The reference in tests/group_reference.py
fills the whole |G| x #H table along a breadth-first search over the
generators, and scans every row of it for a stabilizer.
"""

from math import factorial

import pytest

from bct.errors import InternalInconsistency
from bct.reflection_groups import (
    build_imprimitive,
    build_matrix_group,
    orbit,
    packaged_group,
    stabilizer,
)
from bct.transversality import _imprimitive_transverse
from conftest import SMALL_GMPN
from group_reference import bfs_action_table, monomial_matrix, scan_stabilizer


def orbit_representatives(G):
    """The smallest member of each orbit of transverse collections, found
    by the type shortcut, which transv_table checks against the span
    criterion on every pair (and which costs no span test here)."""
    hyps = G.hyperplanes
    cols = [()]
    for B in cols:
        for h in range(B[-1] + 1 if B else 0, len(hyps)):
            if all(_imprimitive_transverse(G, hyps[h], hyps[b]) for b in B):
                cols.append(B + (h,))
    seen, reps = set(), []
    for B in cols:
        if B not in seen:
            orb, _ = orbit(G, B)
            seen.update(orb)
            reps.append(min(orb))
    return reps


def all_rows(G):
    return [G.hyperplane_action(w) for w in G.elements]


def test_factored_rows_equal_the_bfs_rows(sweep_group):
    assert len(SMALL_GMPN) == 164
    for m, p, n in SMALL_GMPN:
        G = sweep_group(m, p, n)
        prow, drow = G.action_rows
        assert (len(prow), len(drow)) == (factorial(n), m ** n // p)
        assert all_rows(G) == bfs_action_table(G), (m, p, n)


def test_permutations_past_256_points_stay_tuples(g25, g26):
    # one byte holds a point of G(2,1,3) (6 points) and of each packaged
    # group, not of G(129,129,2) (258 points), which keeps tuples and the
    # same products and rows
    assert isinstance(build_imprimitive(2, 1, 3)._perms[0], bytes)
    for P in (packaged_group("g4"), packaged_group("g23"), g25, g26):
        assert P.npoints <= 256 and all(type(p) is bytes for p in P._perms)
    G = build_imprimitive(129, 129, 2)
    assert G.npoints == 258 and isinstance(G._perms[0], tuple)
    assert all(G.mul(g, G.inv(g)) == G.identity for g in G.elements)
    assert all_rows(G) == bfs_action_table(G)
    # so does its matrix build, with the same products through the
    # matrices of its elements
    M = build_matrix_group([monomial_matrix(G, s) for s in G.generators])
    assert M.npoints == 258 and isinstance(M._perms[0], tuple)
    assert M.order == G.order
    iso = [G.index_of(M.element(g)) for g in M.elements]
    assert sorted(iso) == list(G.elements)
    for a in M.elements:
        assert iso[M.inv(a)] == G.inv(iso[a])
        assert [iso[M.mul(a, b)] for b in M.elements] == [
            G.mul(iso[a], iso[b]) for b in M.elements
        ]
    assert len(M.hyperplanes) == len(G.hyperplanes)


@pytest.mark.parametrize("name", ["g4", "g23", "g25", "g26"])
def test_matrix_group_rows_are_the_bfs_rows(name, request):
    shared = name in ("g25", "g26")
    G = request.getfixturevalue(name) if shared else packaged_group(name)
    prow, drow = G.action_rows
    assert drow == [tuple(range(len(G.hyperplanes)))]
    assert prow == bfs_action_table(G)


def test_grouped_scan_equals_the_brute_force_scan(sweep_group):
    for m, p, n in SMALL_GMPN:
        G = sweep_group(m, p, n)
        table = bfs_action_table(G)
        for B in orbit_representatives(G):
            assert stabilizer(G, B).elements == scan_stabilizer(table, B), (m, p, n, B)


def test_tampered_generator_diagonal_is_refused():
    # the last generator with a diagonal part loses it: every permutation
    # is still reached, but the diagonals of the Schreier elements close to
    # a proper subgroup of the D diagonals
    tampered = 0
    for m, p, n in SMALL_GMPN:
        # the build leaves action_rows unread, so the tamper comes first
        G = build_imprimitive(m, p, n)
        D = G._ndiag
        moved = [k for k, s in enumerate(G.generators) if s % D]
        if not moved:
            assert m == 1
            continue
        gens = list(G.generators)
        gens[moved[-1]] -= gens[moved[-1]] % D
        G.generators = tuple(gens)
        with pytest.raises(InternalInconsistency, match="generators reach"):
            G.action_rows
        tampered += 1
    assert tampered == 160


def test_generator_disagreeing_with_its_permutation_row_is_caught():
    # the m > 1 generator of G(3,1,3) shares its permutation part with the
    # first generator, which fills that permutation's row along the tree;
    # a permuted row of its own then disagrees with that row
    G = build_imprimitive(3, 1, 3)
    D = G._ndiag
    first, s = G.generators[0], G.generators[2]
    assert (first // D, first % D) == (s // D, 0) and s % D
    row_of = G._generator_action

    def tampered(g):
        row = row_of(g)
        return (row[1], row[0], *row[2:]) if g == s else row

    G._generator_action = tampered
    with pytest.raises(
        InternalInconsistency,
        match=f"generator {s} disagrees with the row of its permutation",
    ):
        G.action_rows


def test_hyperplane_keys_out_of_order_are_caught():
    # the diagonal rows are read off the keys, so two pair hyperplanes with
    # swapped keys make the identity diagonal's row a transposition
    G = build_imprimitive(3, 1, 3)
    a, b = [h for h in G.hyperplanes if h.key[0] == "pair"][:2]
    a.key, b.key = b.key, a.key
    with pytest.raises(InternalInconsistency, match="hyperplane ids are not in key order"):
        G.action_rows
