"""Command-line interface: output shapes, caching, exit codes, suites."""

import ast
import json
import os
import pickle
import subprocess
import sys

import pytest

import bct
import bct.admissibility
import bct.cli as cli
import bct.reflection_groups
from bct.admissibility import classify_orbits
from bct.cli import main
from bct.definitions import DEFAULT_CAP, group_definition, packaged_definition
from bct.errors import InvalidParameters, TooLarge
from bct.reflection_groups import build_imprimitive, build_matrix_group
from bct.transversality import transv_table


def run(capsys, argv):
    """Invoke main() in-process; return (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "cache")


# ---------------------------------------------------------------------------
# group / dims


def test_group_summary(capsys):
    got = run_json(capsys, ["group", "gmpn:2,1,2"])
    assert got == {
        "name": "G(2,1,2)",
        "kind": "imprimitive",
        "provenance": "paper",
        "order": 8,
        "reflections": 4,
        "hyperplanes": 4,
        "reflection_classes": 2,
    }


def test_dims_output_is_exactly_the_dimension(capsys, cache):
    got = run_json(capsys, ["--cache-dir", cache, "dims", "gmpn:1,1,4"])
    assert got == {"dimension": 105}


def test_dims_sixth_root_flag(capsys, cache):
    base = ["--cache-dir", cache]
    assert run_json(capsys, base + ["dims", "gmpn:3,1,2"]) == {"dimension": 57}
    assert run_json(capsys, base + ["dims", "gmpn:3,1,2", "--mu6"]) == {
        "dimension": 57
    }


def test_dims_external_group_echoes_provenance(capsys, cache):
    got = run_json(capsys, ["--cache-dir", cache, "dims", "g4"])
    assert got == {"dimension": 56, "provenance": "external"}


def test_packaged_name_resolves(capsys):
    got = run_json(capsys, ["group", "g4"])
    assert got["order"] == 24
    assert got["provenance"] == "external"
    assert got["hyperplanes"] == 4


# ---------------------------------------------------------------------------
# classify


def test_classify_json_table(capsys, cache):
    got = run_json(capsys, ["--cache-dir", cache, "classify", "gmpn:2,2,4"])
    assert got["group"] == "G(2,2,4)"
    assert got["field"] == "generic"
    rows = got["rows"]
    summary = [
        (r["cardinality"], r["orbit_size"], r["stab_order"], r["quotient_size"])
        for r in rows
    ]
    assert summary == [
        (0, 1, 192, 192),
        (1, 12, 16, 8),
        (2, 6, 32, 2),
        (2, 6, 32, 2),
        (2, 6, 32, 2),
        (3, 12, 16, 0),
        (4, 3, 64, 1),
    ]
    assert all(not r["conditional"] for r in rows)


def test_classify_csv_projection(capsys, cache):
    code, out, err = run(
        capsys, ["--cache-dir", cache, "classify", "gmpn:3,1,2", "--csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "cardinality,orbit_size,stab_order,kb_order,"
        "admissible_generic,admissible_mu6,conditional,quotient_size",
        "0,1,18,1,true,true,false,18",
        "1,2,9,3,true,true,false,3",
        "1,3,6,2,true,true,false,3",
    ]


def test_classify_csv_and_json_flags_conflict(capsys, cache):
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", cache, "classify", "gmpn:3,1,2", "--csv", "--json"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_classify_mu6_differs_on_conditional_group(capsys, cache):
    base = ["--cache-dir", cache]
    generic = run_json(capsys, base + ["classify", "g25"])
    mu6 = run_json(capsys, base + ["classify", "g25", "--mu6"])
    assert mu6["field"] == "mu_sixth_root"
    pair_g = [r for r in generic["rows"] if r["cardinality"] == 2]
    pair_m = [r for r in mu6["rows"] if r["cardinality"] == 2]
    assert [r["quotient_size"] for r in pair_g] == [0]
    assert [r["quotient_size"] for r in pair_m] == [1]
    assert all(r["conditional"] for r in pair_g)


# ---------------------------------------------------------------------------
# cache behaviour


def test_cache_hit_is_byte_identical_and_skips_recompute(
    capsys, cache, monkeypatch
):
    argv = ["--cache-dir", cache, "classify", "gmpn:3,1,2"]
    code, cold, _ = run(capsys, argv)
    assert code == 0
    assert len(os.listdir(cache)) == 1

    def boom(*a, **k):
        raise AssertionError("classification recomputed despite cache")

    monkeypatch.setattr(bct.admissibility, "classify_orbits", boom)
    code, warm, _ = run(capsys, argv)
    assert code == 0
    assert warm == cold


def test_cache_corruption_recovers(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:3,1,2"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "wb") as fh:
        fh.write(b"not json")
    assert run_json(capsys, argv) == first


def test_cache_version_mismatch_recovers(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:3,1,2"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "w") as fh:
        json.dump({"version": -1}, fh)
    assert run_json(capsys, argv) == first


def test_malformed_bundle_is_a_miss(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:3,1,2"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        stored = json.load(fh)
    wrong_type = dict(
        cli.fresh_bundle(), rows={}, definition=stored["definition"]
    )
    empty_row = dict(stored, rows=[{}])
    text_row = dict(stored, rows=[dict(r, kb_order="1") for r in stored["rows"]])
    no_rows = dict(stored, rows=[])
    text_refusal = dict(stored, refused_cap="130")
    text_order = dict(stored, order="18")
    no_order = dict(stored, order=None)
    for bad in ([], {"version": cli.CACHE_VERSION}, wrong_type, empty_row,
                text_row, no_rows, text_refusal, text_order, no_order):
        with open(path, "w") as fh:
            json.dump(bad, fh)
        assert run_json(capsys, argv) == first
        # a miss recomputes the rows and stores a well-formed bundle again
        with open(path) as fh:
            assert json.load(fh) == stored
    # a refusal record that is no int is a miss too where it is read
    g4 = ["--cache-dir", cache, "--max-order", "30", "dims", "g4"]
    definition = packaged_definition("g4")
    digest = cli.group_digest(definition)
    with open(os.path.join(cache, digest + ".json"), "w") as fh:
        json.dump(dict(cli.fresh_bundle(), refused_cap="30", definition=definition), fh)
    assert run_json(capsys, g4)["dimension"] == 56


def test_tampered_rows_are_a_miss(capsys, cache):
    """Each row must hold exactly the keys of Collection.row, in order, with
    the representative a list of cardinality ints, the flags bools and the
    other columns ints, the orders positive; any other row is a miss, never
    printed."""
    argv = ["--cache-dir", cache, "classify", "gmpn:2,2,3"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        stored = json.load(fh)
    rows = stored["rows"]
    k = next(i for i, r in enumerate(rows) if r["cardinality"])

    def junk_key(r):
        r = {c: v for c, v in r.items() if c != "representative"}
        return dict(r, junk=1)

    def reordered(r):
        return dict(reversed(list(r.items())))

    every_row = [junk_key, reordered, lambda r: dict(r, junk=1)]
    one_row = [
        {"conditional": 5},
        {"admissible_generic": 1},
        {"kb_order": True},
        {"kb_order": 0},
        {"stab_order": -rows[k]["stab_order"]},
        # a field's column is never stored
        {"quotient_size": 2},
        {"representative": rows[k]["representative"] + [0]},
        {"representative": [str(h) for h in rows[k]["representative"]]},
        {"representative": None},
    ]
    tampers = [[tamper(r) for r in rows] for tamper in every_row] + [
        rows[:k] + [dict(rows[k], **change)] + rows[k + 1:] for change in one_row
    ]
    for bad in tampers:
        with open(path, "w") as fh:
            json.dump(dict(stored, rows=bad), fh)
        assert run(capsys, argv) == (0, first, "")
        with open(path) as fh:
            assert json.load(fh) == stored


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    envdir = tmp_path / "envcache"
    monkeypatch.setenv("BCT_CACHE_DIR", str(envdir))
    got = run_json(capsys, ["dims", "gmpn:2,1,2"])
    assert got == {"dimension": 24}
    assert envdir.is_dir() and len(os.listdir(envdir)) == 1


def test_key_collision_serves_no_other_group(capsys, cache, monkeypatch):
    """Two groups of order 24 under one key: each load finds the other
    group's definition in the file, so it is a miss and rebuilds."""
    monkeypatch.setattr(cli, "group_digest", lambda definition: "collide")
    base = ["--cache-dir", cache, "dims"]
    got = [run_json(capsys, base + [spec])["dimension"]
           for spec in ("g4", "gmpn:2,2,3", "g4")]
    assert got == [56, 105, 56]
    assert _stored_bundle(cache)["definition"] == packaged_definition("g4")


def test_cache_distinguishes_groups(capsys, cache):
    base = ["--cache-dir", cache]
    a = run_json(capsys, base + ["dims", "gmpn:2,1,2"])
    b = run_json(capsys, base + ["dims", "gmpn:2,1,3"])
    assert a == {"dimension": 24}
    assert b == {"dimension": 264}
    assert len(os.listdir(cache)) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "gmpn:2,1,3"],
        ["classify", "gmpn:3,1,2"],
        ["--max-order", "30", "reproduce-table"],
        # the refusal record is lost, the refusal itself is not
        ["--max-order", "20", "dims", "g4"],
    ],
    ids=["dims", "classify", "reproduce-table", "refusal"],
)
def test_unwritable_cache_keeps_the_answer(tmp_path, cli_env, argv):
    """A regular file given as the cache directory can hold no bundle: the
    command prints and exits as with a writable cache, and stderr adds one
    line saying the cache was not written, with no traceback.  A file
    stands in for an unwritable directory, which does not stop root."""
    blocked = tmp_path / "blocked"
    blocked.write_text("not a directory")
    normal, got = (
        subprocess.run(
            [sys.executable, "-m", "bct.cli", "--cache-dir", str(cache_dir), *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env,
        )
        for cache_dir in (tmp_path / "cache", blocked)
    )
    assert (got.returncode, got.stdout) == (normal.returncode, normal.stdout)
    assert "Traceback" not in got.stderr
    assert got.stderr.startswith("bct: cache not written: ")
    assert got.stderr.endswith(normal.stderr)
    assert blocked.read_text() == "not a directory"


# CRC-32 keys of the group definitions since cache version 7; cache keys
# must not move.
DIGESTS = {
    "g4": "ea89b88f",
    "g23": "a4b16903",
    "g25": "30ef0c3d",
    "g26": "9688e97d",
    "gmpn:2,1,5": "599686b7",
}


def test_group_digest_unchanged_and_needs_no_group(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("the digest built a group")

    monkeypatch.setattr(bct.reflection_groups, "packaged_group", boom)
    monkeypatch.setattr(bct.reflection_groups, "build_imprimitive", boom)
    for spec, want in DIGESTS.items():
        data, _ = cli.parse_spec(spec)
        assert cli.group_digest(group_definition(data)) == want, spec


def test_packaged_definitions_ship_canonical():
    # the cache hashes a packaged definition as shipped, without putting it
    # into canonical form, so every shipped file must already be canonical
    for name in ("g4", "g23", "g25", "g26"):
        shipped = packaged_definition(name)
        assert group_definition(shipped) == shipped, name
        assert cli.group_digest(shipped) == DIGESTS[name], name
        assert cli.parse_spec(name)[0] == shipped, name


def test_unknown_packaged_name_lists_the_shipped_groups():
    with pytest.raises(InvalidParameters) as exc:
        packaged_definition("g99")
    assert "['g23', 'g25', 'g26', 'g4']" in str(exc.value)


def test_unknown_spec_lists_the_shipped_groups():
    with pytest.raises(cli.SpecError) as exc:
        cli.parse_spec("g99")
    assert str(exc.value) == (
        "spec 'g99' is neither gmpn:m,p,n, an existing file, "
        "nor a packaged name ['g23', 'g25', 'g26', 'g4']"
    )
    assert cli.SHIPPED == {"G4": "g4", "G23": "g23", "G25": "g25", "G26": "g26"}


def test_group_definition_matches_built_group(tmp_path):
    for spec in ("g4", "gmpn:2,1,3"):
        data, build = cli.parse_spec(spec)
        assert group_definition(data) == build(DEFAULT_CAP).definition
    # a matrix spec file that gives neither name nor provenance
    data = {"kind": "matrix", "generators": [[[MINUS]]]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    definition, build = cli.parse_spec(str(path))
    G = build(DEFAULT_CAP)
    assert group_definition(data) == definition == G.definition
    assert (G.name, G.provenance) == ("matrix-group", "paper")
    store = cli.GroupStore((definition, build), str(tmp_path / "cache"), DEFAULT_CAP)
    assert (store.name, store.provenance) == ("matrix-group", "paper")


@pytest.mark.parametrize(
    "first, second",
    [
        ({"kind": "imprimitive", "m": 2, "p": 1, "n": 3},
         {"kind": "imprimitive", "m": 3, "p": 1, "n": 3}),
        (packaged_definition("g4"), packaged_definition("g23")),
    ],
    ids=["gmpn", "matrix"],
)
def test_spec_file_is_built_as_parsed(tmp_path, first, second):
    """A spec file is read once: rewritten between parse and build, it
    still builds the group whose definition (and digest) parse_spec gave."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(first))
    definition, build = cli.parse_spec(str(path))
    path.write_text(json.dumps(second))
    assert build(DEFAULT_CAP).definition == definition == group_definition(first)


ONE, ZERO, MINUS = ({"order": 1, "coeffs": [c]} for c in ("1", "0", "-1"))


@pytest.mark.parametrize(
    "generators, message",
    [
        ([[[ONE, ZERO], [ZERO]]], "matrix entries must form a square array"),
        ([[[MINUS, ZERO], [ZERO, ONE]], [[MINUS]]], "generators must share one dimension"),
        ([[[ONE, ONE], [ZERO, ONE]]], "non-unitary generator"),
    ],
    ids=["non-square", "mixed-dimensions", "non-unitary"],
)
def test_spec_file_generator_refusals(capsys, tmp_path, generators, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "matrix", "generators": generators}))
    argv = ["--cache-dir", str(tmp_path / "cache"), "dims", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    report = json.loads(err)
    assert report["error"] == "InvalidParameters"
    assert message in report["message"]


def test_spec_file_with_no_generators(capsys, tmp_path):
    with pytest.raises(InvalidParameters, match="at least one generator required"):
        build_matrix_group([])
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"kind": "matrix", "name": "empty", "generators": []}))
    argv = ["--cache-dir", str(tmp_path / "cache"), "dims", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "InvalidParameters",
        "message": "at least one generator required",
    }


def test_cache_hit_builds_no_group(capsys, cache, monkeypatch):
    base = ["--cache-dir", cache]
    argvs = [
        base + [command, spec] + flag
        for command in ("dims", "classify")
        for spec in ("g4", "gmpn:2,1,3")
        for flag in ([], ["--mu6"])
    ]
    cold = [run(capsys, argv) for argv in argvs]

    def boom(*a, **k):
        raise AssertionError("group built despite a cache hit")

    for name in ("build_imprimitive", "packaged_group", "group_from_json"):
        monkeypatch.setattr(bct.reflection_groups, name, boom)
    warm = [run(capsys, argv) for argv in argvs]
    assert warm == cold
    assert all(code == 0 for code, _, _ in warm)


def _forbid_builds(patched):
    def boom(*a, **k):
        raise AssertionError("group built despite a cache hit")

    for name in ("build_imprimitive", "packaged_group", "group_from_json"):
        patched.setattr(bct.reflection_groups, name, boom)


def _stored_bundle(cache):
    (entry,) = os.listdir(cache)
    with open(os.path.join(cache, entry)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("first", [[], ["--mu6"]])
@pytest.mark.parametrize("spec", ["gmpn:2,1,3", "g4"])
def test_one_miss_stores_both_fields(capsys, tmp_path, monkeypatch, spec, first):
    argvs = [
        [command, spec] + flag
        for command in ("dims", "classify")
        for flag in ([], ["--mu6"])
    ]
    # each command on a cold cache of its own
    cold = {
        i: run(capsys, ["--cache-dir", str(tmp_path / f"cold{i}")] + argv)
        for i, argv in enumerate(argvs)
    }
    shared = str(tmp_path / "shared")
    run(capsys, ["--cache-dir", shared, "dims", spec] + first)
    bundle = _stored_bundle(shared)
    # one table serves both fields
    G = cli.parse_spec(spec)[1](DEFAULT_CAP)
    assert bundle["rows"] == [r.row for r in classify_orbits(G)]
    _forbid_builds(monkeypatch)
    for i, argv in enumerate(argvs):
        got = run(capsys, ["--cache-dir", shared] + argv)
        assert got == cold[i] and got[0] == 0, argv
    assert _stored_bundle(shared) == bundle


def test_version_one_bundle_is_a_miss(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:2,2,3"]
    first = run_json(capsys, argv)
    assert first == {"dimension": 105}
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        bundle = json.load(fh)
    assert bundle["version"] == cli.CACHE_VERSION == 8
    assert bundle["order"] == 24
    rows = bundle["rows"]
    k = next(
        i for i, r in enumerate(rows) if r["cardinality"] and r["admissible_generic"]
    )
    forged = dict(bundle, rows=rows[:k] + rows[k + 1:])
    with open(path, "w") as fh:
        json.dump(forged, fh)
    # the current version is served as it stands, forged rows included: an
    # admissible orbit dropped keeps the double count consistent, and the
    # dimension loses that orbit's share
    lost = rows[k]["orbit_size"] * 24 // rows[k]["kb_order"]
    assert run_json(capsys, argv) == {"dimension": 105 - lost}
    with open(path, "w") as fh:
        json.dump(dict(forged, version=1), fh)
    assert run_json(capsys, argv) == first

    def serve(kb_order):
        bad = [dict(r) for r in rows]
        bad[k]["kb_order"] = kb_order
        with open(path, "w") as fh:
            json.dump(dict(bundle, rows=bad), fh)
        return run(capsys, argv)

    # every hit re-runs the double count, which refuses a |K_B| that does
    # not divide |Stab(B)|
    code, out, err = serve(rows[k]["stab_order"] + 1)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InternalInconsistency"
    # the quotient is no stored column but |Stab(B)| / |K_B|, so a wrong
    # |K_B| that divides |Stab(B)| keeps the double count consistent and is
    # served as it stands, like the dropped orbit above
    doubled = 2 * rows[k]["kb_order"]
    assert rows[k]["stab_order"] % doubled == 0
    lost = rows[k]["orbit_size"] * (24 // rows[k]["kb_order"] - 24 // doubled)
    assert json.loads(serve(doubled)[1]) == {"dimension": 105 - lost}


def test_version_seven_bundle_is_a_miss(capsys, cache, tmp_path):
    """Version 7 stored the rows twice, once per field, each with its
    quotient_size; such a bundle is a miss, and the miss stores the one
    table."""
    spec = "gmpn:2,2,3"
    other = str(tmp_path / "other")
    store = cli.GroupStore(cli.parse_spec(spec), other, DEFAULT_CAP)
    # each field's rows with an admissible orbit dropped, which keeps the
    # double count consistent, so a hit would serve a smaller dimension
    classify = {}
    for field, mu6 in (("generic", False), ("mu_sixth_root", True)):
        rows = store.rows(mu6)
        k = next(
            i for i, r in enumerate(rows) if r["cardinality"] and r["quotient_size"]
        )
        classify[field] = rows[:k] + rows[k + 1:]
    os.makedirs(cache)
    with open(os.path.join(cache, store.digest + ".json"), "w") as fh:
        json.dump({"version": 7, "order": 24, "refused_cap": None,
                   "classify": classify, "definition": store.definition}, fh)
    argv = ["--cache-dir", cache, "dims", spec]
    assert run_json(capsys, argv) == {"dimension": 105}
    assert run_json(capsys, argv + ["--mu6"]) == {"dimension": 105}
    assert _stored_bundle(cache) == _stored_bundle(other)


def test_version_two_bundle_is_a_miss(capsys, cache):
    # version 2 bundles carried a transversality table; none is read now
    argv = ["--cache-dir", cache, "dims", "gmpn:2,2,3"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        bundle = json.load(fh)
    forged = dict(bundle, version=2, dims={"generic": 999}, table=None)
    with open(path, "w") as fh:
        json.dump(forged, fh)
    assert run_json(capsys, argv) == first


def test_pickle_bundle_is_never_read(capsys, cache):
    # bundles were pickles up to version 3; a leftover .pkl under the same
    # digest is ignored, so a shared cache directory cannot run code
    argv = ["--cache-dir", cache, "dims", "gmpn:2,2,3"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    assert entry.endswith(".json")
    path = os.path.join(cache, entry)
    with open(path) as fh:
        bundle = json.load(fh)
    os.unlink(path)
    with open(path[: -len(".json")] + ".pkl", "wb") as fh:
        pickle.dump(dict(bundle, dims={"generic": 999}), fh)
    assert run_json(capsys, argv) == first


def test_stored_bundle_has_no_table(capsys, cache):
    run_json(capsys, ["--cache-dir", cache, "classify", "g4"])
    (entry,) = os.listdir(cache)
    with open(os.path.join(cache, entry)) as fh:
        bundle = json.load(fh)
    assert "table" not in bundle
    assert set(bundle) == {"version", "order", "refused_cap", "rows", "definition"}


def test_stored_file_is_the_one_shot_compact_text(tmp_path):
    bundle = {"version": cli.CACHE_VERSION, "order": 24, "refused_cap": None, "rows": None}
    definition = packaged_definition("g4")
    cli.cache_store(str(tmp_path), "key", definition, bundle)
    with open(tmp_path / "key.json", "rb") as fh:
        stored = fh.read()
    want = json.dumps(dict(bundle, definition=definition), separators=(",", ":"))
    assert stored == want.encode()
    assert os.listdir(tmp_path) == ["key.json"]


def test_max_order_refuses_cached_groups(capsys, cache):
    base = ["--cache-dir", cache]
    assert run_json(capsys, base + ["dims", "g4"])["dimension"] == 56
    assert run_json(capsys, base + ["dims", "gmpn:2,2,3"]) == {"dimension": 105}
    for spec, message in [
        ("g4", "group closure exceeds cap 23"),
        ("gmpn:2,2,3", "|G(2,2,3)| = 24 exceeds cap 23"),
    ]:
        code, out, err = run(capsys, base + ["--max-order", "23", "dims", spec])
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "TooLarge", "message": message}
        # the same text as building the group under that cap gives
        with pytest.raises(TooLarge) as exc:
            cli.parse_spec(spec)[1](23)
        assert str(exc.value) == message
    # at exactly the order the cached group is served
    got = run_json(capsys, base + ["--max-order", "24", "dims", "g4"])
    assert got["dimension"] == 56


def _refuses(capsys, argv, cap):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "TooLarge",
        "message": f"group closure exceeds cap {cap}",
    }


def test_refused_closure_is_cached(capsys, cache, monkeypatch):
    base = ["--cache-dir", cache]
    _refuses(capsys, base + ["--max-order", "130", "dims", "g25"], 130)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path) as fh:
        assert json.load(fh) == dict(
            cli.fresh_bundle(), refused_cap=130, definition=packaged_definition("g25")
        )

    def boom(*a, **k):
        raise AssertionError("group built despite a recorded refusal")

    with monkeypatch.context() as patched:
        patched.setattr(bct.reflection_groups, "build_matrix_group", boom)
        # the refusal under 130 proves |G25| > 100 as well
        for cap in (130, 100):
            _refuses(capsys, base + ["--max-order", str(cap), "dims", "g25"], cap)
    # the same text as building the group under that cap gives
    with pytest.raises(TooLarge) as exc:
        cli.parse_spec("g25")[1](100)
    assert str(exc.value) == "group closure exceeds cap 100"
    # a larger cap builds the group and stores its order
    got = run_json(capsys, base + ["--max-order", "648", "dims", "g25"])
    assert got == {"dimension": 3272}
    with open(path) as fh:
        bundle = json.load(fh)
    assert (bundle["order"], bundle["refused_cap"]) == (648, 130)


# ---------------------------------------------------------------------------
# exit codes


def test_unparseable_spec_is_a_usage_error(capsys, tmp_path):
    files = {
        "not_json.json": "not json",
        "list.json": "[1, 2]",
        "no_kind.json": '{"name": "G(2,1,2)", "m": 2, "p": 1, "n": 2}',
        "other_kind.json": '{"kind": "coxeter"}',
        "missing_p.json": '{"kind": "imprimitive", "m": 2}',
        "no_generators.json": '{"kind": "matrix"}',
        "text_m.json": '{"kind": "imprimitive", "m": "a", "p": 1, "n": 2}',
        "float_m.json": '{"kind": "imprimitive", "m": 2.0, "p": 1, "n": 2}',
        "bool_m.json": '{"kind": "imprimitive", "m": true, "p": 1, "n": 2}',
        "text_entry.json": '{"kind": "matrix", "generators": [[["x"]]]}',
        "int_generators.json": '{"kind": "matrix", "generators": 5}',
        "null_coeff.json":
            '{"kind": "matrix", "generators": [[[{"order": 1, "coeffs": [null]}]]]}',
        "text_coeff.json":
            '{"kind": "matrix", "generators": [[[{"order": 1, "coeffs": ["x"]}]]]}',
    }
    # the field the message must name
    missing = {"missing_p.json": "'p'", "no_generators.json": "'generators'"}
    missing.update(dict.fromkeys(["text_m.json", "float_m.json", "bool_m.json"], "'m'"))
    missing.update(dict.fromkeys(
        ["text_entry.json", "int_generators.json", "null_coeff.json",
         "text_coeff.json"], "'generators'"))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    bad_files = [str(tmp_path)] + [str(tmp_path / name) for name in files]
    for bad in ["nonsense", "gmpn:2,2", "gmpn:a,b,c", "gmpn:1,2,3,4"] + bad_files:
        with pytest.raises(SystemExit) as exc:
            main(["dims", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error" in err
        assert missing.get(os.path.basename(bad), "") in err


def test_order_cap_exits_nonzero(capsys):
    code, out, err = run(capsys, ["dims", "gmpn:9,9,9"])
    assert code == 1
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "TooLarge"
    assert "15620794116480" in report["message"]


@pytest.mark.parametrize("spec", ["gmpn:0,1,2", "gmpn:-2,1,2", "gmpn:4,3,2"])
def test_bad_monomial_parameters_name_the_condition(capsys, spec):
    code, out, err = run(capsys, ["dims", spec])
    assert code == 1
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "InvalidParameters"
    m, p, _ = spec[len("gmpn:"):].split(",")
    assert report["message"] == (
        f"need m >= 1 and p >= 1 with p dividing m, got (m, p) = ({m}, {p})"
    )


def test_max_order_flag_lowers_cap(capsys):
    code, out, err = run(capsys, ["--max-order", "20", "group", "gmpn:2,1,3"])
    assert code == 1
    assert json.loads(err)["error"] == "TooLarge"


def test_verify_without_spec_needs_formulas(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "relations"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify suites


def test_verify_relations_symmetric_group(capsys):
    got = run_json(capsys, ["verify", "--suite", "relations", "gmpn:1,1,3"])
    assert got["suite"] == "relations"
    assert got["all_pass"] is True
    reps = [tuple(o["representative"]) for o in got["orbits"]]
    assert reps == [(), (0,)]
    for orb in got["orbits"]:
        assert orb["report"]["all_pass"] is True
        assert set(orb["report"]["relations"]) == {"B1", "B2", "B3", "B4", "B5"}


def test_verify_relations_skips_orbits_with_quotient_zero(capsys):
    """Only orbits with a nonzero generic quotient get a module: (0, 7) of
    G(2,1,3) has quotient 0 and is left out."""
    quotients = {
        rec.orbit.representative: rec.quotient()
        for rec in classify_orbits(build_imprimitive(2, 1, 3))
    }
    assert quotients[(0, 7)] == 0
    got = run_json(capsys, ["verify", "--suite", "relations", "gmpn:2,1,3"])
    assert [o["representative"] for o in got["orbits"]] == [[], [0], [3]]
    assert got["all_pass"] is True


def test_verify_formulas_sweep(capsys):
    """With no spec the suite runs the whole sweep and the double-factorial
    anchors, the dimensions of the symmetric groups S_n."""
    got = run_json(capsys, ["verify", "--suite", "formulas"])
    assert got["all_pass"] is True
    assert len(got["cases"]) == 24
    assert all(c["agree"] for c in got["cases"])
    anchors = [(a["n"], a["double_factorial"], a["dimension"]) for a in got["anchors"]]
    assert anchors == [(2, 3, 3), (3, 15, 15), (4, 105, 105), (5, 945, 945)]
    assert all(a["agree"] for a in got["anchors"])


def test_verify_formulas_single_group(capsys):
    got = run_json(capsys, ["verify", "--suite", "formulas", "gmpn:3,3,3"])
    assert got["all_pass"] is True
    (case,) = got["cases"]
    assert case["enumerated"] == case["formula"] == 297


def test_verify_formulas_builds_each_group_once(capsys, monkeypatch):
    builds = []
    build = bct.reflection_groups.build_imprimitive

    def counting_build(*args, **kw):
        builds.append(args)
        return build(*args, **kw)

    monkeypatch.setattr(bct.reflection_groups, "build_imprimitive", counting_build)
    got = run_json(capsys, ["verify", "--suite", "formulas", "gmpn:3,1,3"])
    assert got["all_pass"] is True
    assert builds == [(3, 1, 3)]
    builds.clear()
    got = run_json(capsys, ["verify", "--suite", "formulas"])
    assert got["all_pass"] is True
    anchors = [(1, 1, n) for n, _ in cli.ANCHORS]
    assert len(builds) == len(set(builds)) == 25
    assert set(builds) == {*cli.FORMULA_SWEEP, *cli.DOUBLED_SWEEP, *anchors}


def test_verify_formulas_rejects_matrix_groups(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "formulas", "g4"])
    assert code == 1
    assert json.loads(err)["error"] == "InvalidParameters"


def test_verify_freeness_monomial(capsys):
    got = run_json(capsys, ["verify", "--suite", "freeness", "gmpn:3,1,3"])
    report = got["report"]
    assert report["verdict"] == "free"
    assert report["route"] == "monomial-family"
    assert all(row["dichotomy"] for row in report["orbit_checks"])


@pytest.mark.parametrize("suite", ["relations", "freeness", "g26"])
def test_verify_checks_table_against_all_pairs_oracle(capsys, monkeypatch, suite):
    G = build_imprimitive(2, 1, 3)
    tbl = transv_table(G)
    i = next(i for i in range(tbl.size) if tbl.row(i))
    tbl._transverse[i] = tbl._transverse[i] - {tbl.row(i)[0]}
    monkeypatch.setattr(cli, "parse_spec", lambda spec: (None, lambda cap: G))
    code, out, err = run(capsys, ["verify", "--suite", suite, "gmpn:2,1,3"])
    assert code == 1
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "InternalInconsistency"
    assert "all-pairs" in report["message"]


def test_verify_g26_suite_rejects_wrong_shape(capsys):
    code, out, err = run(capsys, ["verify", "--suite", "g26", "gmpn:3,1,3"])
    assert code == 1
    got = json.loads(out)
    assert got["report"]["all_pass"] is False
    assert got["report"]["orbit_split"] is False


# ---------------------------------------------------------------------------
# reproduce-table


def test_reproduce_table_capped(capsys, cache):
    code, out, err = run(
        capsys,
        ["--cache-dir", cache, "--max-order", "150", "reproduce-table"],
    )
    assert code == 0
    got = json.loads(out)
    rows = {r["name"]: r for r in got["rows"]}
    assert len(rows) == 34
    assert got["all_pass"] is True

    assert rows["G4"]["status"] == "verified"
    assert rows["G4"]["dim_generic"] == 56
    assert rows["G4"]["dim_sixth_root"] == 56
    assert rows["G23"]["status"] == "verified"
    assert rows["G23"]["dim_generic"] == 1045

    assert rows["G25"]["status"].startswith("skipped")
    assert rows["G26"]["status"].startswith("skipped")

    absent = [
        n for n, r in rows.items()
        if r["status"] == "unverified (external data absent)"
    ]
    assert len(absent) == 30
    assert "G5" in absent and "G37" in absent


def test_reproduce_table_over_the_cap(capsys, cache):
    """A shipped group over the cap gets a skipped row; an extra spec over
    it fails the command with nothing on stdout."""
    base = ["--cache-dir", cache, "--max-order", "100", "reproduce-table"]
    rows = {r["name"]: r for r in run_json(capsys, base)["rows"]}
    assert rows["G4"]["status"] == "verified"
    for name in ("G23", "G25", "G26"):
        assert rows[name] == {
            "name": name,
            "status": "skipped (group closure exceeds cap 100)",
        }
    code, out, err = run(capsys, base + ["gmpn:2,1,4"])
    assert (code, out) == (1, "")
    assert err == (
        '{"error": "TooLarge", "message": "|G(2,1,4)| = 384 exceeds cap 100"}\n'
    )


def test_reproduce_table_appends_extra_specs(capsys, cache):
    code, out, err = run(
        capsys,
        [
            "--cache-dir", cache, "--max-order", "30",
            "reproduce-table", "gmpn:2,1,2",
        ],
    )
    assert code == 0
    got = json.loads(out)
    extra = got["rows"][-1]
    assert extra["name"] == "G(2,1,2)"
    assert extra["status"] == "computed"
    assert extra["dim_generic"] == 24
    assert extra["dim_sixth_root"] == 24
    assert len(extra["orbit_rows"]) == 3


# ---------------------------------------------------------------------------
# console script and global flags


def test_console_script_runs(tmp_path, cli_env):
    """The ``python -m bct.cli`` module entry point works in a fresh
    interpreter run outside the checkout. The installed ``bct`` executable
    is not what this checks."""
    proc = subprocess.run(
        [sys.executable, "-m", "bct.cli", "dims", "gmpn:1,1,4"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"dimension": 105}


def _conditional_quotient(payload):
    (row,) = [r for r in payload["rows"] if r["conditional"]]
    return row["quotient_size"]


@pytest.mark.parametrize(
    "argv, check",
    [
        (["dims", "gmpn:2,2,3"], lambda got: got == {"dimension": 105}),
        (
            ["verify", "--suite", "relations", "gmpn:1,1,3"],
            lambda got: got["all_pass"] is True,
        ),
        (
            ["verify", "--suite", "freeness", "g4"],
            lambda got: got["report"]["route"] == "collection-dichotomy",
        ),
        # the one row decided both by A2 and by the sixth-root specialization
        (
            ["classify", "--mu6", "g25"],
            lambda got: _conditional_quotient(got) == 1,
        ),
    ],
    ids=["dims", "verify-relations", "verify-freeness", "classify-mu6"],
)
def test_same_under_optimize(tmp_path, cli_env, argv, check):
    """``python -O`` strips asserts; the invariants behind every command
    raise instead, so each prints the same bytes under ``-O``."""
    outs = []
    for tag, flags in [("plain", []), ("optimized", ["-O"])]:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "bct.cli",
             "--cache-dir", str(tmp_path / tag), *argv],
            capture_output=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert check(json.loads(outs[0]))
    assert outs[1] == outs[0]


@pytest.mark.parametrize("flag", ["--max-order"])
@pytest.mark.parametrize("value", ["0", "-5", "x"])
def test_nonpositive_flags_are_usage_errors(capsys, cache, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", cache, flag, value, "dims", "gmpn:2,1,2"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_parallel_is_a_usage_error(capsys, cache):
    """Every command runs in one process: there is no --parallel flag."""
    for argv in (
        ["--parallel", "2", "reproduce-table"],
        ["--parallel", "1", "verify", "--suite", "formulas", "gmpn:2,1,3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", cache, *argv])
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--cache-dir", "x", "-h"],
    ["dims", "-h"], ["verify", "--help"], ["reproduce-table", "g4", "-h"],
])
def test_help_prints_usage_and_exits_zero(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: bct [--cache-dir DIR] [--max-order N] COMMAND")
    for usage in ("bct dims [--mu6] SPEC",
                  "bct verify --suite {relations,freeness,formulas,g26} [SPEC]",
                  "bct reproduce-table [SPEC ...]"):
        assert usage in out


@pytest.mark.parametrize("argv, offender", [
    (["--mu6", "dims", "g25"], "--mu6"),
    (["dims", "--max-order", "5", "g25"], "--max-order"),
    (["--max", "20", "dims", "g25"], "--max"),
    (["dims", "g25", "g4"], "'g4'"),
    (["dims"], "SPEC"),
    (["dims", "g25", "--mu6=yes"], "--mu6"),
    (["verify", "--suite", "nothing", "g4"], "--suite"),
    (["verify", "--suite"], "--suite"),
    (["verify", "g4"], "--suite"),
    (["tabulate", "g4"], "'tabulate'"),
    ([], "command"),
])
def test_usage_errors_name_the_offending_argument(capsys, argv, offender):
    """`bct --mu6 dims g25` is the README's example: --mu6 belongs to the
    command.  Options are never abbreviated (--max is not --max-order)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bct: error: ") and err.count("\n") == 1
    assert offender in err


def test_options_take_equals_and_go_either_side_of_the_spec(capsys, cache):
    group = ["group", "gmpn:2,1,3"]
    plain = run(capsys, ["--cache-dir", cache, "--max-order", "20", *group])
    joined = run(capsys, [f"--cache-dir={cache}", "--max-order=20", *group])
    assert plain == joined and plain[0] == 1
    before = run(capsys, ["verify", "--suite=freeness", "g4"])
    assert before == run(capsys, ["verify", "g4", "--suite", "freeness"])
    assert before[0] == 0
    base = ["--cache-dir", cache, "classify"]
    csv = run(capsys, [*base, "--csv", "--mu6", "g4"])
    assert csv == run(capsys, [*base, "g4", "--mu6", "--csv"])
    assert csv[1].startswith("cardinality,")


# ---------------------------------------------------------------------------
# imports


def _loaded_modules(cli_env, cwd, argv=None, flags=()):
    """Modules a fresh interpreter, started with the interpreter flags
    given, has loaded after ``import bct.cli`` and, when argv is given,
    after running that command."""
    code = (
        "import json, sys\n"
        "import bct.cli\n"
        "if len(sys.argv) > 1:\n"
        "    assert bct.cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *(argv or [])],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cache_hit_imports_no_compute_layer(tmp_path, cli_env):
    loaded = _loaded_modules(cli_env, tmp_path)
    for name in ("bct.admissibility", "bct.reflection_groups",
                 "multiprocessing", "pickle", "_hashlib", "argparse", "gettext"):
        assert name not in loaded, name
    # no command loads OpenSSL: the cache key is a CRC-32
    for suite, spec in (("relations", "g4"), ("freeness", "g4"),
                        ("g26", "g26"), ("formulas", "gmpn:2,1,3")):
        ran = _loaded_modules(cli_env, tmp_path, ["verify", "--suite", suite, spec])
        assert "_hashlib" not in ran, suite
    table = ["--cache-dir", str(tmp_path / "table"), "reproduce-table"]
    for run_ in ("cold", "warm"):
        assert "_hashlib" not in _loaded_modules(cli_env, tmp_path, table), run_
    base = ["--cache-dir", str(tmp_path / "cache"), "dims"]
    warm = {}
    for spec in ("gmpn:2,1,3", "g4"):
        cold = _loaded_modules(cli_env, tmp_path, base + [spec])
        assert "bct.admissibility" in cold
        assert "_hashlib" not in cold
        for name in ("bct.brauer_modules", "bct.freeness", "multiprocessing"):
            assert name not in cold, (spec, name)
        warm[spec] = _loaded_modules(cli_env, tmp_path, base + [spec])
        for name in ("bct.admissibility", "bct.transversality",
                     "bct.brauer_modules", "bct.freeness", "_hashlib",
                     "argparse", "gettext"):
            assert name not in warm[spec], (spec, name)
    # site may load importlib.resources itself (a .pth file can), so the
    # packaged definition's read is checked in a child without site
    bare = _loaded_modules(cli_env, tmp_path, base + ["g4"], flags=["-S"])
    assert "importlib.resources" not in bare
    # a monomial group's definition needs neither the group core nor the
    # exact arithmetic, and a packaged one ships canonical
    for spec in ("gmpn:2,1,3", "g4"):
        assert {m for m in warm[spec] if m.startswith("bct")} == {
            "bct", "bct.cli", "bct.definitions", "bct.errors"
        }, spec


def test_warm_table_builds_no_group(tmp_path, cli_env):
    # G25 and G26 are refused at this cap; the warm run serves the recorded
    # refusals as it serves G4's and G23's rows
    argv = ["--cache-dir", str(tmp_path / "cache"), "--max-order", "130",
            "reproduce-table"]
    cold = _loaded_modules(cli_env, tmp_path, argv)
    assert "bct.reflection_groups" in cold
    warm = _loaded_modules(cli_env, tmp_path, argv)
    assert {m for m in warm if m.startswith("bct")} == {
        "bct", "bct.cli", "bct.definitions", "bct.errors"
    }


def test_package_exports_resolve():
    for name in bct.__all__:
        assert getattr(bct, name) is not None, name
        assert name in dir(bct), name
    from bct import classify_orbits

    assert classify_orbits is bct.admissibility.classify_orbits
    assert bct.DEFAULT_CAP == cli.DEFAULT_CAP == 200_000
    with pytest.raises(AttributeError):
        bct.no_such_name


def test_package_has_no_assert():
    # python -O strips assert statements, so an invariant checked by one
    # would go unchecked; the package raises instead
    pkg = os.path.dirname(bct.__file__)
    found = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [
                f"{name}:{node.lineno}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Assert)
            ]
    assert found == []
