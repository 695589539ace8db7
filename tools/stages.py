#!/usr/bin/env python3
"""Wall time and counters of each stage of the group pipeline, as JSON.

    python tools/stages.py SPEC [SPEC ...]

A SPEC is anything the CLI accepts: gmpn:m,p,n, a packaged name (g4, g23,
g25, g26) or a group-definition file.  Each group runs through the stages
in order, in this process, so every stage reuses what the earlier ones
built:

    build         closure of the generators
    hyperplanes   reflections, hyperplanes, distinguished reflections
    actions       the factored hyperplane-action rows: one per diagonal
                  (closed rule) and one per permutation (breadth-first
                  search over the generators' permutation parts), with the
                  check that the generators reach the whole group
    table         the transversality table, one span test per pair orbit
    all_pairs     check_all_pairs, as verify runs it: every cell of the
                  table against the root-line classes modulo each root
                  (and the type shortcut on monomial groups)
    orbits        orbits of transverse collections, with stabilizers:
                  the action-row scan and the Schreier generators
                  sifted from the orbit walk
    classify      admissibility of every orbit, for both fields at once

Counters: the group order, the size of the point set the elements
permute, the hyperplane count, the number of orbits of hyperplane pairs
(each decided by one span test), the number of transverse collections
and of their orbits, and both dimensions, read off the one classification.
Standard library only.
"""

import json
import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from bct.admissibility import (  # noqa: E402
    classify_orbits,
    dim_from_rows,
    orbit_records,
)
from bct.cli import parse_spec  # noqa: E402
from bct.reflection_groups import DEFAULT_CAP  # noqa: E402
from bct.transversality import check_all_pairs, transv_table  # noqa: E402


def stages(spec: str) -> dict:
    times = {}

    def timed(name, fn):
        start = time.perf_counter()
        out = fn()
        times[name] = round(time.perf_counter() - start, 4)
        return out

    G = timed("build", lambda: parse_spec(spec)[1](DEFAULT_CAP))
    hyps = timed("hyperplanes", lambda: G.hyperplanes)
    timed("actions", lambda: G.action_rows)
    timed("table", lambda: transv_table(G))
    timed("all_pairs", lambda: check_all_pairs(G))
    records = timed("orbits", lambda: orbit_records(G))
    recs = timed("classify", lambda: classify_orbits(G))
    times["total"] = round(sum(times.values()), 4)
    return {
        "spec": spec,
        "group": G.name,
        "stages_s": times,
        "counters": {
            "order": G.order,
            "points": G.npoints,
            "hyperplanes": len(hyps),
            "pair_orbits": len(G.pair_orbits),
            "collections": sum(r.orbit_size for r in records),
            "orbits": len(records),
            "dim_generic": dim_from_rows(G.order, [r.as_row() for r in recs]),
            "dim_sixth_root": dim_from_rows(G.order, [r.as_row(True) for r in recs]),
        },
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def main(argv) -> int:
    if not argv:
        sys.exit(__doc__)
    print(json.dumps([stages(spec) for spec in argv], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
