"""Self-test of the benchmark on a tiny workload (a few seconds).

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def check_tiny(cmd, doc, formulas):
    if cmd[0] == "dims":
        return run.check_dims(cmd, doc, formulas)
    return run.check_verify(cmd, doc, formulas)


TINY = run.Workload(
    slots=((("dims", "gmpn:2,2,4"),), (("verify", "--suite", "relations", "g4"),)),
    check=check_tiny,
    expect_calls=(
        "cli:main",
        "cli:cache_load",
        "reflection_groups:build_imprimitive",
        "reflection_groups:packaged_group",
        "reflection_groups:stabilizer",
        "brauer_modules:induce",
        "exact_arith:LaurentScalar.__mul__",
    ),
    expect_silent=("freeness",),
)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def assert_metrics(result, kind):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_end_to_end_metrics_print_with_units():
    result = run.run_workload(TINY, seed=0, seconds=1, trace=0, pins=run.load_pins())
    assert (result["correct"], result["failed"]) == (True, 0)
    # two commands, cold and at least one warm rerun
    assert result["attempted"] >= 4 and result["attempted"] % 2 == 0
    assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_print_with_units():
    result = run.run_workload(TINY, seed=1, seconds=1, trace=1, pins=run.load_pins())
    assert (result["correct"], result["failed"]) == (True, 0)
    assert_metrics(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["brauer_modules.module_dim"] > 0
    assert metrics["cli.cache_hits"] > 0 and metrics["cli.cache_misses"] > 0
    assert metrics["freeness.check_F_calls"] == 0


def test_speed_probe_samples_while_children_run():
    with run.SpeedProbe() as probe:
        mark = probe.mark()
        time.sleep(0.3)
        speed = probe.speed(mark)
    assert len(probe.samples) >= run.MIN_PROBES
    assert 0.1 < speed < 10
    assert run.SpeedProbe().speed(0) == 1.0  # no samples: raw time


def test_wrong_pin_is_counted_as_failed():
    pins = dict(run.load_pins())
    pins["dims gmpn:2,2,4"] = "0" * 64
    result = run.run_workload(TINY, seed=0, seconds=1, trace=0, pins=pins)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2  # every dims run


def test_missing_call_fails_the_traced_run():
    silent = run.Workload(TINY.slots, TINY.check, TINY.expect_calls + ("freeness:check_F",),
                          TINY.expect_silent)
    result = run.run_workload(silent, seed=0, seconds=1, trace=1, pins=run.load_pins())
    assert result["correct"] is False
    assert result["failed"] == 1


def test_from_imports_are_patched():
    code = (
        "import tracer\n"
        "tracer.install(tracer.Tracer('x'))\n"
        "from bct import cli, reflection_groups as rg, transversality as tv\n"
        "names = [tv.stabilizer, tv.orbit, cli.classify_orbits, rg.stabilizer, cli.main]\n"
        "print(all(hasattr(f, '__wrapped__') for f in names), tv.stabilizer is rg.stabilizer)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.split() == ["True", "True"]
