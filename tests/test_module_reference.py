"""The induced module as the permutation module of W on the cosets of V0's
kernel, against the construction it replaced (module_reference: a Stab(B)
representation from a callable, carried between blocks by transport).
Every element's basis permutation and every eps operator must agree on
every admissible module of a few small groups.  A tampered coset table,
Stab(B) action or kernel must be refused, also under ``python -O``."""

import os
import subprocess
import sys

import pytest

from bct.admissibility import classify_orbits
from bct.brauer_modules import (
    _check_stab_action,
    induce,
    quotient_regular_rep,
    trivial_rep,
)
from bct.errors import InternalInconsistency, NotAdmissible, NotAdmissiblePair
from bct.reflection_groups import Subgroup, build_imprimitive, packaged_group
from module_reference import RefModule, ref_quotient_regular_rep, ref_trivial_rep


def _module_pairs(G):
    """(module, reference, kind) for every collection whose module induce
    builds, from the quotient regular and from the trivial representation."""
    kinds = [
        ("quotient", quotient_regular_rep, ref_quotient_regular_rep),
        ("trivial", trivial_rep, ref_trivial_rep),
    ]
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        for kind, make, ref in kinds:
            try:
                M = induce(G, B, make(G, B))
            except (NotAdmissible, NotAdmissiblePair):
                continue
            yield M, RefModule(G, B, ref(G, B)), kind


@pytest.mark.parametrize("spec", [(2, 1, 4), (3, 1, 3), (2, 2, 4), "g4", "g25"], ids=str)
def test_coset_module_matches_transport_reference(request, gmpn, spec):
    if spec == "g25":
        G = request.getfixturevalue("g25")
    else:
        G = packaged_group(spec) if isinstance(spec, str) else gmpn(*spec)
    kinds = []
    for M, R, kind in _module_pairs(G):
        assert (M.dim, M.degree, M.blocks) == (R.dim, R.degree, R.blocks)
        for g in G.elements:
            assert M.perm_of(g) == R.perm_of(g)
        assert M.eps == R.eps
        kinds.append(kind)
    assert {"quotient", "trivial"} <= set(kinds) and len(kinds) >= 3


# -- tampered data -----------------------------------------------------------

# B = (H_1) on G(3,1,3): three blocks, each of degree 18 over |K_B| = 3
B = (0,)


def _coset_named_twice():
    # the second coset representative replaced by the first: that coset's
    # elements are labelled twice, and those of the one it named by none
    G = build_imprimitive(3, 1, 3)
    v0 = quotient_regular_rep(G, B)
    v0.reps = v0.reps[:1] * 2 + v0.reps[2:]
    induce(G, B, v0)


def _coset_left_out():
    G = build_imprimitive(3, 1, 3)
    v0 = quotient_regular_rep(G, B)
    v0.reps, v0.degree = v0.reps[:-1], v0.degree - 1
    induce(G, B, v0)


def _generator_acts_as_identity():
    G = build_imprimitive(3, 1, 3)
    M = induce(G, B, quotient_regular_rep(G, B))
    M._perm_memo = {M.v0.stab.generators[0]: tuple(range(M.dim))}
    _check_stab_action(M)


def _kernel_moves_block_0():
    # a kernel whose generators include an element of Stab(B) outside K_B
    G = build_imprimitive(3, 1, 3)
    v0 = quotient_regular_rep(G, B)
    moving = v0.reps[1]
    v0.kernel = Subgroup((*v0.kernel.generators, moving), v0.kernel.elements)
    induce(G, B, v0)


def _table_not_injective():
    G = build_imprimitive(3, 1, 3)
    M = induce(G, B, quotient_regular_rep(G, B))
    M._table[M._table.index(1)] = 0
    M._perm_memo = {}
    M.perm_of(G.identity)


TAMPERS = {
    "coset named twice": (_coset_named_twice, "do not partition"),
    "coset left out": (_coset_left_out, "do not partition"),
    "generator acts as identity": (_generator_acts_as_identity, "not multiplicative"),
    "kernel moves block 0": (_kernel_moves_block_0, "does not fix block 0"),
    "table not injective": (_table_not_injective, "does not permute the basis"),
}


@pytest.mark.parametrize("name", TAMPERS)
def test_tampered_module_is_refused(name):
    fn, match = TAMPERS[name]
    with pytest.raises(InternalInconsistency, match=match):
        fn()


def test_tampered_module_is_refused_under_optimize(cli_env):
    """The checks are plain raises, so ``python -O`` keeps every one."""
    env = dict(cli_env)
    here = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = here + os.pathsep + env["PYTHONPATH"]
    script = (
        "from bct.errors import InternalInconsistency\n"
        "from test_module_reference import TAMPERS\n"
        "for name, (fn, match) in TAMPERS.items():\n"
        "    try:\n"
        "        fn()\n"
        "    except InternalInconsistency as e:\n"
        "        print(name, match in str(e))\n"
        "    else:\n"
        "        print(name, 'passed')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{name} True" for name in TAMPERS]

