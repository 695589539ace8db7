#!/usr/bin/env python3
"""Regenerate the packaged group-definition files.

The two rank-3 groups ship with provenance "paper" (their generators come
from the reference description via reflection_from_root).  The other two are
marked "external": their generator data was sourced independently and every
result computed from them is reported as externally checked.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fractions import Fraction

from bct.exact_arith import zeta
from bct.reflection_groups import (
    build_matrix_group,
    reflection_from_root,
)

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "bct" / "data"


def write(path, group, expect_order, expect_hyps):
    assert group.order == expect_order, (group.name, group.order)
    assert len(group.hyperplanes) == expect_hyps, group.name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(group.definition, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{path.name}: order {group.order}, {expect_hyps} hyperplanes")


def main():
    z3 = zeta(3)
    t1 = reflection_from_root([1, 0, 0], z3)
    t2 = reflection_from_root([0, 1, 0], z3)
    t3 = reflection_from_root([0, 0, 1], z3)
    t00 = reflection_from_root([1, 1, 1], z3)
    s12 = reflection_from_root([1, -1, 0], -1)

    g25 = build_matrix_group([t1, t2, t3, t00], name="G25")
    write(DATA / "g25.json", g25, 648, 12)

    g26 = build_matrix_group([t1, t2, t3, t00, s12], name="G26")
    write(DATA / "g26.json", g26, 1296, 21)

    # rank-2 group of order 24: two order-3 reflections with braid relation
    s = reflection_from_root([0, 1], z3)
    t = reflection_from_root([1 + zeta(4), 1], z3)
    g4 = build_matrix_group([s, t], name="G4", provenance="external")
    a, b = g4.generators
    assert g4.mul(g4.mul(a, b), a) == g4.mul(g4.mul(b, a), b)
    write(DATA / "external" / "g04.json", g4, 24, 4)

    # icosahedral Coxeter group over Q(zeta5); tau is the golden ratio
    tau = -(zeta(5, 2) + zeta(5, 3))
    half = Fraction(1, 2)
    roots = [
        [1, 0, 0],
        [0, 1, 0],
        [half * 1, half * tau, half * (tau - 1)],
    ]
    g23 = build_matrix_group(
        [reflection_from_root(u, -1) for u in roots],
        name="G23",
        provenance="external",
    )
    write(DATA / "external" / "g23.json", g23, 120, 15)


if __name__ == "__main__":
    main()
