"""Command-line interface: output shapes, caching, exit codes, suites."""

import json
import os
import pickle
import subprocess
import sys

import pytest

import bct.cli as cli
from bct.cli import main
from bct.errors import TooLarge
from bct.reflection_groups import DEFAULT_CAP, group_definition, group_to_json


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

    monkeypatch.setattr(cli, "classify_orbits", boom)
    code, warm, _ = run(capsys, argv)
    assert code == 0
    assert warm == cold


def test_cache_corruption_recovers(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:3,1,2"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle")
    assert run_json(capsys, argv) == first


def test_cache_version_mismatch_recovers(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:3,1,2"]
    first = run_json(capsys, argv)
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "wb") as fh:
        pickle.dump({"version": -1}, fh)
    assert run_json(capsys, argv) == first


def test_cache_dir_from_environment(capsys, tmp_path, monkeypatch):
    envdir = tmp_path / "envcache"
    monkeypatch.setenv("BCT_CACHE_DIR", str(envdir))
    got = run_json(capsys, ["dims", "gmpn:2,1,2"])
    assert got == {"dimension": 24}
    assert envdir.is_dir() and len(os.listdir(envdir)) == 1


def test_cache_distinguishes_groups(capsys, cache):
    base = ["--cache-dir", cache]
    a = run_json(capsys, base + ["dims", "gmpn:2,1,2"])
    b = run_json(capsys, base + ["dims", "gmpn:2,1,3"])
    assert a == {"dimension": 24}
    assert b == {"dimension": 264}
    assert len(os.listdir(cache)) == 2


# Digests of the group definitions before the integer-indexed group core,
# which computed them from the built group; cache keys must not move.
DIGESTS = {
    "g4": "b3716010bb40e2b4cdca63a9b2eb82a450761866e9f762cefbb34749a6141953",
    "g23": "da034cf3693419dace4e076085f098e73165edd3743f487600c8e68cfd32c76c",
    "g25": "5ad44df401f67f1c18ad2323063acac95e43d37b7caa5b07420e7fa5b812efed",
    "g26": "a0362f46999c760a88d3e6380d18509401f0a7e2297ff01378e07f5f822c1aa7",
    "gmpn:2,1,5": "af01126ecd50676b7bacae91bbb7a6de6ca43c3dd2000da09f14fc047a19b7d2",
}


def test_group_digest_unchanged_and_needs_no_group(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("the digest built a group")

    monkeypatch.setattr(cli, "packaged_group", boom)
    monkeypatch.setattr(cli, "build_imprimitive", boom)
    for spec, want in DIGESTS.items():
        data, _ = cli.parse_spec(spec)
        assert cli.group_digest(group_definition(data)) == want, spec


def test_group_definition_matches_built_group():
    for spec in ("g4", "gmpn:2,1,3"):
        data, build = cli.parse_spec(spec)
        assert group_definition(data) == group_to_json(build(DEFAULT_CAP))


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

    for name in ("build_imprimitive", "packaged_group", "load_group_file"):
        monkeypatch.setattr(cli, name, boom)
    warm = [run(capsys, argv) for argv in argvs]
    assert warm == cold
    assert all(code == 0 for code, _, _ in warm)


def test_version_one_bundle_is_a_miss(capsys, cache):
    argv = ["--cache-dir", cache, "dims", "gmpn:2,2,3"]
    first = run_json(capsys, argv)
    assert first == {"dimension": 105}
    (entry,) = os.listdir(cache)
    path = os.path.join(cache, entry)
    with open(path, "rb") as fh:
        bundle = pickle.load(fh)
    assert bundle["version"] == cli.CACHE_VERSION == 2
    assert bundle["order"] == 24
    forged = dict(bundle, dims={"generic": 999})
    with open(path, "wb") as fh:
        pickle.dump(forged, fh)
    # the current version is served as it stands, forged value included
    assert run_json(capsys, argv) == {"dimension": 999}
    with open(path, "wb") as fh:
        pickle.dump(dict(forged, version=1), fh)
    assert run_json(capsys, argv) == first


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
            cli.build_spec(spec, 23)
        assert str(exc.value) == message
    # at exactly the order the cached group is served
    got = run_json(capsys, base + ["--max-order", "24", "dims", "g4"])
    assert got["dimension"] == 56


# ---------------------------------------------------------------------------
# exit codes


def test_unparseable_spec_is_a_usage_error(capsys):
    for bad in ["nonsense", "gmpn:2,2", "gmpn:a,b,c", "gmpn:1,2,3,4"]:
        with pytest.raises(SystemExit) as exc:
            main(["dims", bad])
        assert exc.value.code == 2
        assert "error" in capsys.readouterr().err


def test_order_cap_exits_nonzero(capsys):
    code, out, err = run(capsys, ["dims", "gmpn:9,9,9"])
    assert code == 1
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "TooLarge"
    assert "15620794116480" in report["message"]


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


def test_verify_formulas_single_group(capsys):
    got = run_json(capsys, ["verify", "--suite", "formulas", "gmpn:3,3,3"])
    assert got["all_pass"] is True
    (case,) = got["cases"]
    assert case["enumerated"] == case["formula"] == 297


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
# console script and parallelism


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


def test_dims_same_under_optimize(tmp_path, cli_env):
    """``python -O`` strips asserts; the dimension and the checks behind it
    must not depend on them."""
    outs = []
    for tag, flags in [("plain", []), ("optimized", ["-O"])]:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "bct.cli",
             "--cache-dir", str(tmp_path / tag), "dims", "gmpn:2,2,3"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0]) == {"dimension": 105}
    assert outs[1] == outs[0]


def test_verify_same_under_optimize(tmp_path, cli_env):
    """The invariants of induced modules raise instead of asserting, so
    the relation checks print the same bytes under ``python -O``."""
    outs = []
    for tag, flags in [("plain", []), ("optimized", ["-O"])]:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "bct.cli",
             "--cache-dir", str(tmp_path / tag),
             "verify", "--suite", "relations", "gmpn:1,1,3"],
            capture_output=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert json.loads(outs[0])["all_pass"] is True
    assert outs[1] == outs[0]


def test_parallel_matches_serial(tmp_path, cli_env):
    runs = []
    for tag, extra in [("serial", []), ("pool", ["--parallel", "2"])]:
        proc = subprocess.run(
            [
                sys.executable, "-m", "bct.cli",
                "--max-order", "30",
                "--cache-dir", str(tmp_path / tag),
            ]
            + extra
            + ["reproduce-table"],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
