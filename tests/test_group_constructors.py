"""Group reads its facts from its definition, and the constructors refuse
an inconsistent build.

Both constructors hand Group the canonical definition that keys the cache;
kind, name, parameters, dimension, cyclotomic order and provenance are read
from it, so rebuilding from the definition gives the same group.
"""

import pytest

from bct import reflection_groups
from bct.cli import group_summary
from bct.errors import InternalInconsistency
from bct.exact_arith import zeta
from bct.reflection_groups import (
    Group,
    build_imprimitive,
    build_matrix_group,
    group_from_json,
    packaged_group,
)

FACTS = ("kind", "name", "m", "p", "n", "dim", "cyclotomic_order", "provenance")


@pytest.mark.parametrize(
    "build, facts",
    [
        (lambda: packaged_group("g4"),
         ("matrix", "G4", None, None, None, 2, 12, "external")),
        (lambda: packaged_group("g23"),
         ("matrix", "G23", None, None, None, 3, 5, "external")),
        (lambda: packaged_group("g25"),
         ("matrix", "G25", None, None, None, 3, 3, "paper")),
        (lambda: packaged_group("g26"),
         ("matrix", "G26", None, None, None, 3, 3, "paper")),
        (lambda: build_imprimitive(2, 1, 3),
         ("imprimitive", "G(2,1,3)", 2, 1, 3, 3, 2, "paper")),
        (lambda: build_imprimitive(2, 2, 2),
         ("imprimitive", "G(2,2,2)", 2, 2, 2, 2, 2, "paper")),
        (lambda: build_imprimitive(1, 1, 2),
         ("imprimitive", "G(1,1,2)", 1, 1, 2, 2, 1, "paper")),
        (lambda: build_matrix_group([[[zeta(3)]]]),
         ("matrix", "matrix-group", None, None, None, 1, 3, "paper")),
    ],
    ids=["g4", "g23", "g25", "g26", "G(2,1,3)", "G(2,2,2)", "G(1,1,2)", "rank-1"],
)
def test_group_reads_its_facts_from_its_definition(build, facts):
    G = build()
    assert tuple(getattr(G, f) for f in FACTS) == facts
    assert group_summary(group_from_json(G.definition)) == group_summary(G)


def test_repeated_permutation_is_refused():
    # two elements with one permutation would share one frame, so their
    # products could not be told apart
    G = build_imprimitive(2, 1, 3)
    perms = [*G._perms, G._perms[-1]]
    gens = [G._perms[g] for g in G.generators]
    with pytest.raises(InternalInconsistency, match="two group elements share one frame"):
        Group(G.definition, perms, gens, G._tree)


def test_short_diagonal_enumeration_is_refused(monkeypatch):
    # one diagonal fewer leaves 7 * 3! = 42 elements of the 48 that
    # imprimitive_order gives G(2,1,3)
    exps = reflection_groups._diagonal_exps
    monkeypatch.setattr(
        reflection_groups, "_diagonal_exps", lambda m, p, n: exps(m, p, n)[:-1]
    )
    with pytest.raises(
        InternalInconsistency, match="enumerated 42 elements, closed form says 48"
    ):
        build_imprimitive(2, 1, 3)
