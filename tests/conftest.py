"""Session-wide fixtures.

The matrix groups build in milliseconds (g25 and g26 in under 10 ms),
but their per-group caches (hyperplane actions, transversality table,
collection records) pay off across test files, so they are shared at
session scope.
"""

import os
from functools import cache
from math import factorial

import pytest

import bct
from bct.reflection_groups import build_imprimitive, packaged_group

# every G(m,p,n) of order at most 200, by n, then m, then p; each sweep
# takes its groups from this list by filter
SMALL_GMPN = [
    (m, p, n)
    for n in range(2, 6)
    for m in range(1, 101)
    for p in range(1, m + 1)
    if m % p == 0 and factorial(n) * m**n // p <= 200
]


@pytest.fixture(scope="session")
def g25():
    return packaged_group("g25")


@pytest.fixture(scope="session")
def g26():
    return packaged_group("g26")


@pytest.fixture(scope="session")
def gmpn():
    """Cached builder for monomial groups: gmpn(m, p, n) -> Group."""
    return cache(build_imprimitive)


@pytest.fixture(scope="session")
def sweep_group():
    """Cached builder for the G(m,p,n) sweeps: the sweeps share each
    group's transversality table, apart from gmpn's groups, which some
    tests tamper with."""
    return cache(build_imprimitive)


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
