"""Group definitions: the canonical JSON that names a group and keys the
cache, the packaged definitions, the order cap with its refusals, a
field's orbit-table rows and the dimension double count over them.

This module loads only the standard library and bct.errors, so the command
line can hash a definition, refuse a group over the cap and serve a cache
hit without loading the group core or the exact arithmetic.  Only
group_definition on a matrix group needs them: its generator entries are
written in canonical cyclotomic form.  The packaged definitions ship in
that form, so the command line hashes them as they are.
"""

import json
import os
from math import factorial, gcd

from .errors import InternalInconsistency, InvalidParameters, TooLarge

DEFAULT_CAP = 200_000

# the name and provenance of a matrix definition that gives none; a
# monomial definition holds no provenance and reads DEFAULT_PROVENANCE
DEFAULT_NAME = "matrix-group"
DEFAULT_PROVENANCE = "paper"

# the shipped matrix groups: short name -> definition file in the package;
# the command line's table names them G4, G23, ... by these short names
PACKAGED = {
    "g25": "data/g25.json",
    "g26": "data/g26.json",
    "g4": "data/external/g04.json",
    "g23": "data/external/g23.json",
}

_EXTERNAL_NOTE = (
    "generator data sourced outside the primary reference; "
    "results derived from it are reported as externally checked"
)


def imprimitive_order(m: int, p: int, n: int) -> int:
    """Order of the monomial group (m, p, n), after validating the
    parameters."""
    if m < 1 or p < 1 or m % p != 0:
        raise InvalidParameters(
            f"need m >= 1 and p >= 1 with p dividing m, got (m, p) = ({m}, {p})"
        )
    if n < 2:
        raise InvalidParameters("rank parameter n must be at least 2")
    return factorial(n) * m ** n // p


def _closure_refusal(cap: int) -> TooLarge:
    return TooLarge(f"group closure exceeds cap {cap}")


def refuse_over_cap(definition: dict, order: int, cap: int):
    """Raise the TooLarge error that building the defined group under cap
    raises, when its known order exceeds cap."""
    if order <= cap:
        return
    if definition["kind"] == "imprimitive":
        raise TooLarge(f"|{definition['name']}| = {order} exceeds cap {cap}")
    raise _closure_refusal(cap)


def _matrix_definition(name, provenance, gens) -> dict:
    """The definition of the matrix group generated by gens, matrices of
    CycNumbers as tuples of row tuples."""
    amb = 1
    for o in {e.order for g in gens for row in g for e in row}:
        amb = amb * o // gcd(amb, o)
    out = {
        "name": name,
        "kind": "matrix",
        "cyclotomic_order": amb,
        "provenance": provenance,
        "generators": [
            [[x.to_json() for x in row] for row in g] for g in gens
        ],
    }
    if provenance == "external":
        out["note"] = _EXTERNAL_NOTE
    return out


def group_definition(data: dict) -> dict:
    """The canonical definition JSON of the group that data describes,
    equal to the built group's G.definition, without building it."""
    if data["kind"] == "imprimitive":
        m, p, n = data["m"], data["p"], data["n"]
        name = f"G({m},{p},{n})"
        return {"name": name, "kind": "imprimitive", "m": m, "p": p, "n": n}
    from .reflection_groups import _generators_from_json

    return _matrix_definition(
        data.get("name", DEFAULT_NAME),
        data.get("provenance", DEFAULT_PROVENANCE),
        _generators_from_json(data),
    )


def packaged_definition(name: str) -> dict:
    """The definition JSON of one of the shipped matrix groups."""
    key = name.lower()
    if key not in PACKAGED:
        raise InvalidParameters(
            f"unknown packaged group {name!r}; have {sorted(PACKAGED)}"
        )
    # beside this module, where pyproject.toml's package-data installs it
    with open(os.path.join(os.path.dirname(__file__), PACKAGED[key]), "rb") as fh:
        return json.load(fh)


def field_row(row: dict, mu6: bool) -> dict:
    """row, an admissibility.Collection.row, with the field's quotient_size
    appended: |Stab(B)/K_B| where B is admissible over the field, else 0."""
    admissible = row["admissible_mu6" if mu6 else "admissible_generic"]
    quotient = row["stab_order"] // row["kb_order"] if admissible else 0
    return dict(row, quotient_size=quotient)


def dim_from_rows(order: int, rows) -> int:
    """Dimension of the Brauer-Chen algebra from an orbit table.

    rows are field_row dicts of one field, the empty collection first,
    for a group of the given order.  The dimension is counted
    twice: as the sum over admissible collections of |W| / |K_B|, and as
    |W| plus the per-orbit block counts orbit_size^2 * quotient_size.
    Every consistency check, the agreement of the two counts included,
    raises InternalInconsistency.
    """
    first = rows[0]
    if first["cardinality"] != 0 or first["quotient_size"] != order:
        raise InternalInconsistency(
            f"first orbit row is not the empty collection with quotient {order}"
        )
    total = 0
    blocks = order
    for row in rows:
        quotient, kb_order = row["quotient_size"], row["kb_order"]
        stab = row["stab_order"]
        if order % kb_order:
            raise InternalInconsistency(
                f"|K_B| = {kb_order} does not divide |W| = {order}"
            )
        if stab % kb_order or quotient not in (0, stab // kb_order):
            raise InternalInconsistency(
                f"quotient {quotient} * |K_B| {kb_order} != |Stab| {stab}"
            )
        if quotient == 0:
            continue
        total += row["orbit_size"] * (order // kb_order)
        if row["cardinality"] > 0:
            blocks += row["orbit_size"] ** 2 * quotient
    if total != blocks:
        raise InternalInconsistency(
            f"dimension double-entry mismatch: {total} != {blocks}"
        )
    return total
