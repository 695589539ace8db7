"""tools/stages.py times each stage of the group pipeline."""

import importlib.util
import pathlib
import sys

import pytest

from bct.admissibility import dim_gmpn_formula

ROOT = pathlib.Path(__file__).resolve().parents[1]
STAGES = ["build", "hyperplanes", "actions", "table", "all_pairs", "orbits", "classify"]


@pytest.mark.parametrize(
    "spec, dims",
    [("gmpn:2,1,3", (dim_gmpn_formula(2, 1, 3),) * 2), ("g4", (56, 56))],
)
def test_stages_times_every_stage_and_reports_the_dimensions(spec, dims, monkeypatch):
    # the script puts src/ on sys.path; a copy keeps that to this test
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = ROOT / "tools" / "stages.py"
    loader = importlib.util.spec_from_file_location("stages", path)
    stages = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(stages)
    row = stages.stages(spec)
    assert list(row["stages_s"]) == STAGES + ["total"]
    assert all(t >= 0 for t in row["stages_s"].values())
    counters = row["counters"]
    assert (counters["dim_generic"], counters["dim_sixth_root"]) == dims
