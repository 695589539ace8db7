"""Every name the benchmark wraps, counts or imports resolves in bct.

The benchmark (perfbench/) is not collected here, so a rename in bct would
leave its call-coverage lists, its probes or its closed-form import naming
code that is gone, and nothing would notice until a traced run.  This test
loads perfbench/run.py and perfbench/tracer.py by path, resolves each name
by import and getattr only, and runs no benchmark.

run.LAYER_METRICS is left out: some of its metrics still name functions
that bct deleted, and only a repair of the benchmark itself may change them.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracer = _load("tracer")


def resolves(name: str) -> bool:
    """Whether a bct module name, or module:qualname, exists."""
    module, _, qualname = name.partition(":")
    try:
        obj = importlib.import_module(f"bct.{module}")
        for attr in filter(None, qualname.split(".")):
            obj = getattr(obj, attr)
    except (ImportError, AttributeError):
        return False
    return True


def extra_names():
    """module:Class.member for each EXTRA member, in the module that
    defines the class."""
    names = []
    for cls_name, members in tracer.EXTRA.items():
        short = [
            mod.__name__.split(".", 1)[-1]
            for mod in tracer.bct_modules()
            if getattr(getattr(mod, cls_name, None), "__module__", None) == mod.__name__
        ]
        assert len(short) == 1, f"class {cls_name} is defined in {len(short)} modules"
        names.extend(f"{short[0]}:{cls_name}.{m}" for m in members)
    return names


def prepare_imports():
    """module:name for each name prepare's child script imports from bct."""
    source = inspect.getsource(run.prepare)
    return [
        f"{module}:{name.strip()}"
        for module, names in re.findall(r"from bct\.(\w+) import ([\w, ]+)", source)
        for name in names.split(",")
    ]


CASES = [
    *((f"{w}.expect_calls", spec.expect_calls) for w, spec in run.WORKLOADS.items()),
    *((f"{w}.expect_silent", spec.expect_silent) for w, spec in run.WORKLOADS.items()),
    ("tracer._probes", list(tracer._probes(tracer.Tracer("names")))),
    ("tracer.EXTRA", extra_names()),
    ("prepare", prepare_imports()),
]


@pytest.mark.parametrize("names", [pytest.param(n, id=k) for k, n in CASES])
def test_perfbench_names_resolve_in_bct(names):
    assert names
    assert [n for n in names if not resolves(n)] == []
