"""Command-line front end.

Subcommands:
    group            summary of one reflection group
    dims             dimension of the diagram algebra over the chosen field
    classify         orbit table of transverse collections
    verify           named verification suites (relations, freeness,
                     formulas, g26)
    reproduce-table  consolidated dimension table over the shipped groups

Group specs are either "gmpn:m,p,n" for the monomial series, a packaged
name (g4, g23, g25, g26) or a path to a group-definition JSON file.
Reports are deterministic JSON on stdout; the classify table can also be
projected to CSV.  Expensive per-group artifacts (the group order, the
largest cap under which the closure was refused, and the orbit table,
which holds for both fields) are cached on disk as one
JSON file per group, named by the CRC-32 of the canonical group
definition, which is computed without building the group: a packaged
definition is keyed as shipped, and only a spec file is put into
canonical form.  The file also holds the definition, and a file whose
definition is not the requested one is a miss, so two groups that share
a key cost a rebuild and never each other's rows.  A dimension is the
double count over the rows, re-run on every hit.  A cache hit, a
recorded refusal included, builds nothing and imports no compute
module: this module imports the group core, admissibility, the module
and freeness layers only where a command uses them.  The key needs only
zlib, which the interpreter loads at start-up, so no command loads
OpenSSL.
"""

import argparse
import io
import json
import os
import sys
import zlib

from .definitions import (
    DEFAULT_CAP,
    DEFAULT_PROVENANCE,
    PACKAGED,
    _closure_refusal,
    dim_from_rows,
    field_row,
    group_definition,
    imprimitive_order,
    packaged_definition,
    refuse_over_cap,
)
from .errors import BctError, InvalidParameters, TooLarge

CACHE_VERSION = 8

# the keys of admissibility.Collection.row, in order, and its bool columns
ROW_KEYS = [
    "representative",
    "cardinality",
    "orbit_size",
    "stab_order",
    "kb_order",
    "admissible_generic",
    "admissible_mu6",
    "conditional",
]
CSV_COLUMNS = [*ROW_KEYS[1:], "quotient_size"]
FLAG_COLUMNS = frozenset({"admissible_generic", "admissible_mu6", "conditional"})

# dimension table for the shipped exceptional groups; other table rows
# need generator data that is not packaged
EXPECTED_DIMS = {
    "G4": (56, 56),
    "G23": (1045, 1045),
    "G25": (3272, 3416),
    "G26": (12312, 12312),
}
TABLE_NAMES = [f"G{i}" for i in range(4, 38)]
SHIPPED = {short.upper(): short for short in PACKAGED}
ABSENT = "unverified (external data absent)"


def _is_list_of(v, test) -> bool:
    return isinstance(v, list) and all(map(test, v))


def _is_coeff(c) -> bool:
    # an int (a bool is none here) or a string Fraction reads
    from fractions import Fraction

    try:
        return type(c) is int or isinstance(c, str) and Fraction(c) is not None
    except (ValueError, ZeroDivisionError):
        return False


def _is_entry(v) -> bool:
    # a CycNumber.to_json dict; a matrix is a list of rows of entries
    return isinstance(v, dict) and type(v.get("order")) is int and _is_list_of(
        v.get("coeffs"), _is_coeff
    )


# the fields a spec file of each kind must hold, each with its type test
SPEC_FIELDS = {
    "imprimitive": dict.fromkeys("mpn", lambda v: type(v) is int),
    "matrix": {"generators": lambda v: _is_list_of(
        v, lambda g: _is_list_of(g, lambda row: _is_list_of(row, _is_entry)))},
}


class SpecError(Exception):
    """Unparseable group spec; reported as a usage error."""


def parse_spec(spec: str):
    """(canonical definition, build) for a group spec, where build(cap)
    constructs the group; parsing builds nothing.  A packaged definition
    ships in canonical form and is used as it is."""
    if spec.startswith("gmpn:"):
        body = spec[len("gmpn:"):]
        parts = body.split(",")
        if len(parts) != 3:
            raise SpecError(f"expected gmpn:m,p,n, got {spec!r}")
        try:
            m, p, n = (int(x) for x in parts)
        except ValueError:
            raise SpecError(f"non-integer parameters in {spec!r}")
        data = {"kind": "imprimitive", "m": m, "p": p, "n": n}
        return group_definition(data), _builder("build_imprimitive", m, p, n)
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SpecError(f"cannot read a group definition from {spec!r}: {exc}")
        kind = data.get("kind") if isinstance(data, dict) else None
        if kind not in ("imprimitive", "matrix"):
            raise SpecError(
                f"{spec!r} is no group definition: it needs a JSON object whose "
                '"kind" is "imprimitive" or "matrix"'
            )
        bad = [f for f, test in SPEC_FIELDS[kind].items() if not test(data.get(f))]
        if bad:
            raise SpecError(
                f"{spec!r} is no {kind} group definition: it lacks the field(s) "
                f"{', '.join(map(repr, bad))} or holds them with the wrong type"
            )
        # built from the data read here, which the definition's digest keys
        return group_definition(data), _builder("group_from_json", data)
    if spec.lower() in PACKAGED:
        return packaged_source(spec)
    raise SpecError(
        f"spec {spec!r} is neither gmpn:m,p,n, an existing file, "
        f"nor a packaged name {sorted(PACKAGED)}"
    )


def packaged_source(name: str):
    """(definition, build) for a packaged group; the shipped definition is
    canonical, so neither hashing nor refusing it loads the group core."""
    return packaged_definition(name), _builder("packaged_group", name)


def _builder(constructor: str, *args):
    """build(cap) calling the named reflection_groups constructor, which
    imports the group core only when a group is built."""

    def build(cap):
        from . import reflection_groups

        return getattr(reflection_groups, constructor)(*args, cap=cap)

    return build


# ---------------------------------------------------------------------------
# cache


def group_digest(definition: dict) -> str:
    """Cache key of a canonical group definition (see
    definitions.group_definition), which needs no built group: the CRC-32
    of its canonical JSON text, as 8 hex digits.  Two definitions may share
    a key; the file stores its definition, which cache_load checks."""
    blob = json.dumps(definition, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode()):08x}"


def fresh_bundle() -> dict:
    return {
        "version": CACHE_VERSION,
        "order": None,
        # the largest cap under which building the group was refused
        "refused_cap": None,
        "rows": None,
    }


def _is_row(row) -> bool:
    """row holds exactly ROW_KEYS, in order: the representative as a list
    of cardinality ints, the FLAG_COLUMNS as bools and the other columns
    as ints (a bool is none here), the orders positive."""
    return (
        isinstance(row, dict)
        and list(row) == ROW_KEYS
        and all(
            type(row[c]) is (bool if c in FLAG_COLUMNS else int) for c in ROW_KEYS[1:]
        )
        and min(row["orbit_size"], row["stab_order"], row["kb_order"]) > 0
        and _is_list_of(row["representative"], lambda h: type(h) is int)
        and len(row["representative"]) == row["cardinality"]
    )


def _is_rows(rows) -> bool:
    """rows is a non-empty list of _is_row dicts."""
    return isinstance(rows, list) and len(rows) > 0 and all(map(_is_row, rows))


def cache_load(cache_dir: str, digest: str, definition: dict) -> dict:
    """The bundle stored for definition under its digest; a missing or
    malformed file (an order or refusal record that is no int or null,
    rows that are neither null nor _is_rows, or rows without an order,
    which GroupStore._save always writes with them), one of another
    version, or one that stores another definition gives a fresh bundle (a miss).
    Bundles are plain JSON, so loading one never runs code."""
    path = os.path.join(cache_dir, digest + ".json")
    try:
        with open(path, "rb") as fh:
            bundle = json.load(fh)
    except (OSError, ValueError):
        return fresh_bundle()
    fresh = fresh_bundle()
    if (
        not isinstance(bundle, dict)
        # the key names the definition only up to a CRC-32 collision
        or bundle.pop("definition", None) != definition
        or bundle.keys() != fresh.keys()
        or bundle["version"] != CACHE_VERSION
        or not all(
            v is None or type(v) is int
            for v in (bundle["order"], bundle["refused_cap"])
        )
        or not (bundle["rows"] is None or _is_rows(bundle["rows"]))
        or (bundle["rows"] is not None and bundle["order"] is None)
    ):
        return fresh
    return bundle


def cache_store(cache_dir: str, digest: str, definition: dict, bundle: dict):
    """Write the bundle, with the definition it belongs to, under digest
    through a temporary file.  The cache only saves work, so a store that
    fails (cache_dir is a file, is read-only, or the disk is full) is one
    line on stderr and the command goes on."""
    import tempfile

    tmp = None
    try:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            # one-shot dumps: a streaming json.dump skips the C encoder
            fh.write(
                json.dumps(dict(bundle, definition=definition), separators=(",", ":"))
            )
        os.replace(tmp, os.path.join(cache_dir, digest + ".json"))
    except OSError as exc:
        print(f"bct: cache not written: {exc}", file=sys.stderr)
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


class GroupStore:
    """Read-through cache around one group's derived artifacts.

    The group is built only when something is missing from the cache, and
    one orbit table serves both fields through field_row.  An order above
    cap is refused as building the group would refuse it: monomial groups
    have a closed-form order, and the bundle records the order of a matrix
    group, or else the largest cap its closure was refused under, which
    proves |G| above every cap up to it.
    """

    def __init__(self, source, cache_dir: str, cap: int):
        self.definition, self._build = source
        self.cap = cap
        self.cache_dir = cache_dir
        self.digest = group_digest(self.definition)
        self.bundle = cache_load(cache_dir, self.digest, self.definition)
        if self.definition["kind"] == "imprimitive":
            d = self.definition
            order = imprimitive_order(d["m"], d["p"], d["n"])
        else:
            order = self.bundle["order"]
        refused = self.bundle["refused_cap"]
        if order is not None:
            refuse_over_cap(self.definition, order, cap)
        elif refused is not None and cap <= refused:
            raise _closure_refusal(cap)
        self._group = None

    @property
    def name(self) -> str:
        return self.definition["name"]

    @property
    def provenance(self) -> str:
        return self.definition.get("provenance", DEFAULT_PROVENANCE)

    @property
    def G(self):
        if self._group is None:
            try:
                self._group = self._build(self.cap)
            except TooLarge:
                # the closed form refuses a monomial group before this, so
                # a matrix group's closure passed the cap
                self.bundle["refused_cap"] = self.cap
                cache_store(self.cache_dir, self.digest, self.definition, self.bundle)
                raise
        return self._group

    def _save(self):
        self.bundle["order"] = self.G.order
        cache_store(self.cache_dir, self.digest, self.definition, self.bundle)

    def rows(self, mu6: bool):
        if self.bundle["rows"] is None:
            from .admissibility import classify_orbits

            self.bundle["rows"] = [rec.row for rec in classify_orbits(self.G)]
            self._save()
        return [field_row(row, mu6) for row in self.bundle["rows"]]

    def dimension(self, mu6: bool) -> int:
        # rows first: a miss builds the group and records its order
        rows = self.rows(mu6)
        return dim_from_rows(self.bundle["order"], rows)


# ---------------------------------------------------------------------------
# output helpers


def emit_json(payload: dict):
    print(json.dumps(payload, indent=2))


def emit_csv(rows):
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                str(row[col]).lower() if isinstance(row[col], bool) else row[col]
                for col in CSV_COLUMNS
            ]
        )
    sys.stdout.write(out.getvalue())


def group_summary(G) -> dict:
    return {
        "name": G.name,
        "kind": G.kind,
        "provenance": G.provenance,
        "order": G.order,
        "reflections": len(G.reflections),
        "hyperplanes": len(G.hyperplanes),
        "reflection_classes": len(G.reflection_classes),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_group(args) -> int:
    G = parse_spec(args.spec)[1](args.max_order)
    emit_json(group_summary(G))
    return 0


def cmd_dims(args) -> int:
    store = GroupStore(parse_spec(args.spec), args.cache_dir, args.max_order)
    payload = {"dimension": store.dimension(args.mu6)}
    if store.provenance == "external":
        payload["provenance"] = "external"
    emit_json(payload)
    return 0


def cmd_classify(args) -> int:
    store = GroupStore(parse_spec(args.spec), args.cache_dir, args.max_order)
    rows = store.rows(args.mu6)
    if args.csv:
        emit_csv(rows)
        return 0
    emit_json(
        {
            "group": store.name,
            "provenance": store.provenance,
            "field": "mu_sixth_root" if args.mu6 else "generic",
            "rows": rows,
        }
    )
    return 0


def _suite_relations(G) -> dict:
    from .admissibility import classify_orbits
    from .brauer_modules import induce, quotient_regular_rep, verify_defining_relations

    orbits = []
    ok = True
    for rec in classify_orbits(G):
        B = rec.orbit.representative
        if rec.quotient() == 0:
            continue
        module = induce(G, B, quotient_regular_rep(G, B))
        report = verify_defining_relations(module)
        orbits.append(
            {
                "representative": list(B),
                "degree": module.degree,
                "dimension": module.dim,
                "report": report.as_dict(),
            }
        )
        ok = ok and report.all_pass
    return {"orbits": orbits, "all_pass": ok}


FORMULA_SWEEP = [
    (m, p, n)
    for m in range(1, 5)
    for p in range(1, m + 1)
    if m % p == 0
    for n in range(2, 5)
    if (m, p) != (2, 2)
]
DOUBLED_SWEEP = [(2, 2, n) for n in (3, 4, 5)]
ANCHORS = [(2, 3), (3, 15), (4, 105), (5, 945)]


def _formula_case(G) -> dict:
    from .admissibility import dim_brauer, dim_g22n_formula, dim_gmpn_formula

    m, p, n = G.m, G.p, G.n
    enumerated = dim_brauer(G)
    formula = (
        dim_g22n_formula(n) if (m, p) == (2, 2) else dim_gmpn_formula(m, p, n)
    )
    return {
        "group": G.name,
        "m": m,
        "p": p,
        "n": n,
        "enumerated": enumerated,
        "formula": formula,
        "agree": enumerated == formula,
    }


def _suite_formulas(G, cap: int) -> dict:
    from functools import cache

    from .admissibility import dim_brauer
    from .reflection_groups import build_imprimitive

    if G is not None:
        if G.kind != "imprimitive":
            raise InvalidParameters(
                "the formulas suite applies to monomial groups only"
            )
        cases = [_formula_case(G)]
        return {"cases": cases, "all_pass": all(c["agree"] for c in cases)}
    # the anchors' groups G(1,1,n) are sweep cases too, so each is built once
    build = cache(lambda m, p, n: build_imprimitive(m, p, n, cap=cap))
    cases = [_formula_case(build(*mpn)) for mpn in FORMULA_SWEEP + DOUBLED_SWEEP]
    anchors = []
    for n, expect in ANCHORS:
        got = dim_brauer(build(1, 1, n))
        anchors.append(
            {"n": n, "double_factorial": expect, "dimension": got,
             "agree": got == expect}
        )
    ok = all(c["agree"] for c in cases) and all(a["agree"] for a in anchors)
    return {"cases": cases, "anchors": anchors, "all_pass": ok}


def cmd_verify(args) -> int:
    G = None
    if args.spec is not None:
        G = parse_spec(args.spec)[1](args.max_order)
    elif args.suite != "formulas":
        raise SpecError(f"the {args.suite} suite needs a group spec")
    if args.suite != "formulas":
        from .transversality import check_all_pairs

        # the per-orbit transversality table against the all-pairs oracle
        check_all_pairs(G)

    if args.suite == "relations":
        body = _suite_relations(G)
    elif args.suite == "freeness":
        from .freeness import freeness_verdict

        body = {"report": freeness_verdict(G).as_dict(), "all_pass": True}
    elif args.suite == "g26":
        from .freeness import g26_geometry_suite

        report = g26_geometry_suite(G)
        body = {"report": report, "all_pass": report["all_pass"]}
    else:
        body = _suite_formulas(G, args.max_order)

    payload = {"suite": args.suite}
    if G is not None:
        payload["group"] = G.name
        payload["provenance"] = G.provenance
    payload.update(body)
    emit_json(payload)
    return 0 if payload["all_pass"] else 1


def _computed_row(store: GroupStore, expected=None) -> dict:
    """A computed reproduce-table row: the group's dimensions, its status
    against the expected (generic, sixth root) pair when there is one, and
    its generic orbit rows."""
    dims = store.dimension(False), store.dimension(True)
    match = "verified" if dims == expected else "mismatch"
    row = {
        "name": store.name,
        "provenance": store.provenance,
        "status": "computed" if expected is None else match,
        "dim_generic": dims[0],
        "dim_sixth_root": dims[1],
    }
    if expected is not None:
        row["expected_generic"], row["expected_sixth_root"] = expected
    row["orbit_rows"] = store.rows(False)
    return row


def _table_row(name: str, cache_dir: str, cap: int) -> dict:
    short = SHIPPED.get(name)
    if short is None:
        return {"name": name, "status": ABSENT}
    try:
        store = GroupStore(packaged_source(short), cache_dir, cap)
        return _computed_row(store, EXPECTED_DIMS[name])
    except TooLarge as exc:
        return {"name": name, "status": f"skipped ({exc})"}


def cmd_reproduce(args) -> int:
    rows = [_table_row(name, args.cache_dir, args.max_order) for name in TABLE_NAMES]
    for spec in args.specs:
        store = GroupStore(parse_spec(spec), args.cache_dir, args.max_order)
        rows.append(_computed_row(store))
    ok = all(r["status"] != "mismatch" for r in rows)
    emit_json({"suite": "reproduce-table", "rows": rows, "all_pass": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text: str) -> int:
    """argparse type of --max-order: an integer >= 1."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bct",
        description="Exact computations with diagram algebras of "
        "complex reflection groups.",
    )
    parser.add_argument(
        "--cache-dir",
        default=os.environ.get("BCT_CACHE_DIR", "./.bct-cache"),
        help="cache directory (env BCT_CACHE_DIR, default ./.bct-cache)",
    )
    parser.add_argument(
        "--max-order",
        type=_positive_int,
        default=DEFAULT_CAP,
        help=f"refuse groups larger than this (default {DEFAULT_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="summary of one group")
    p.add_argument("spec")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("dims", help="algebra dimension")
    p.add_argument("spec")
    p.add_argument("--mu6", action="store_true",
                   help="specialize the parameter ratio to a sixth root")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("classify", help="orbit table of transverse collections")
    p.add_argument("spec")
    p.add_argument("--mu6", action="store_true")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True,
                       help="JSON output (default)")
    group.add_argument("--csv", action="store_true",
                       help="CSV projection of the orbit table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=["relations", "freeness", "formulas", "g26"])
    p.add_argument("spec", nargs="?",
                   help="group spec (optional for --suite formulas)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-table",
                       help="dimension table over the shipped groups")
    p.add_argument("specs", nargs="*",
                   help="extra group specs appended to the table")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except BctError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
