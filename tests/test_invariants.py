"""tools/invariants.py lists the invariant checks of src/ and records
which of them a test run reaches."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "invariants.py"
TAMPER_TESTS = [
    "tests/test_group_constructors.py::test_repeated_permutation_is_refused",
    "tests/test_group_constructors.py::test_short_diagonal_enumeration_is_refused",
]


def test_invariants_reports_the_sites_the_tamper_tests_reach(cli_env):
    scanned = sum(
        path.read_text().count("raise InternalInconsistency(")
        for path in (ROOT / "src").rglob("*.py")
    )
    out = subprocess.run(
        [sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", *TAMPER_TESTS],
        cwd=ROOT,
        env=cli_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["sites"] == len(report["checks"]) == scanned
    reached = {
        c["message"]: c["reached_by"] for c in report["checks"] if c["reached_by"]
    }
    assert reached == {
        '"two group elements share one frame"': TAMPER_TESTS[0],
        'f"enumerated {len(perms)} elements, closed form says {order}"': TAMPER_TESTS[1],
    }
    assert report["reached"] == 2
