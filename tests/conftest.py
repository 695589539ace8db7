"""Session-wide fixtures.

The matrix groups take seconds to build and their per-group caches
(hyperplane actions, transversality table, collection workspaces) pay
off across test files, so they are shared at session scope.
"""

import os

import pytest

import bct
from bct.reflection_groups import build_imprimitive, packaged_group


@pytest.fixture(scope="session")
def g25():
    return packaged_group("g25")


@pytest.fixture(scope="session")
def g26():
    return packaged_group("g26")


@pytest.fixture(scope="session")
def gmpn():
    """Cached builder for monomial groups: gmpn(m, p, n) -> Group."""
    cache = {}

    def build(m, p, n):
        key = (m, p, n)
        if key not in cache:
            cache[key] = build_imprimitive(m, p, n)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def sweep_group():
    """Cached builder for the G(m,p,n) sweeps: the sweeps share each
    group's transversality table, apart from gmpn's groups, which some
    tests tamper with."""
    cache = {}

    def build(m, p, n):
        key = (m, p, n)
        if key not in cache:
            cache[key] = build_imprimitive(m, p, n)
        return cache[key]

    return build


@pytest.fixture
def cli_env():
    """Environment for running ``python -m bct.cli`` in a fresh interpreter.

    The directory holding the ``bct`` package this process imported goes
    first on ``PYTHONPATH``, so the child runs the same code under test
    whether it comes from ``src/`` or from an install, and from any working
    directory. ``BCT_CACHE_DIR`` is dropped so the child never reads or
    writes a cache shared with the caller.
    """
    env = dict(os.environ)
    env.pop("BCT_CACHE_DIR", None)
    root = os.path.dirname(os.path.dirname(os.path.abspath(bct.__file__)))
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
    return env
