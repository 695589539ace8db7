"""tools/gen_data.py regenerates the shipped group-definition files."""

import importlib.util
import pathlib
import sys

import bct

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = ["g25.json", "g26.json", "external/g04.json", "external/g23.json"]


def test_gen_data_rewrites_shipped_definitions_byte_identically(tmp_path, monkeypatch):
    # the script puts src/ on sys.path; a copy keeps that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "gen_data", ROOT / "tools" / "gen_data.py"
    )
    gen_data = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_data)
    gen_data.DATA = tmp_path
    gen_data.main()
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert written == sorted(FILES + ["external"])
    shipped = pathlib.Path(bct.__file__).parent / "data"
    for name in FILES:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name
