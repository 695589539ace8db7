"""tools/invariants.py lists the invariant checks of src/ and records
which of them a test run reaches."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "invariants.py"
# each tamper test, with the message of the one invariant check it reaches
TAMPER_TESTS = {
    "tests/test_group_constructors.py::test_repeated_permutation_is_refused":
        '"two group elements share one frame"',
    "tests/test_group_constructors.py::test_short_diagonal_enumeration_is_refused":
        'f"enumerated {len(perms)} elements, closed form says {order}"',
    "tests/test_admissibility.py::test_a1_together_with_a2_is_caught":
        'f"collection {col.B}: A1 and A2 cannot both hold"',
    "tests/test_admissibility.py::test_closed_form_disagreement_is_caught":
        'f"collection {col.B}: closed-form says admissible={expected}, "',
    "tests/test_admissibility.py::test_kb_order_not_dividing_the_stabilizer_is_caught":
        'f"|K_B| = {col.kb_order} does not divide |Stab(B)| = {col.orbit.stab_order}"',
    "tests/test_admissibility.py::test_kb_not_normal_in_the_stabilizer_is_caught":
        '"K_B must be normal in Stab(B)"',
    "tests/test_transversality.py::"
    "test_all_pairs_check_catches_a_wrong_cell_on_a_matrix_group":
        'f"table cell ({hyps[i].label}, {hyps[j].label}) says "',
    "tests/test_transversality.py::test_all_pairs_check_catches_proportional_roots":
        'f"hyperplanes {hyps[i].label} and {hyps[k].label} share a root line"',
    "tests/test_transversality.py::test_all_pairs_check_compares_the_type_shortcut":
        'f"transversality of ({hyps[i].label}, {hyps[j].label}): "',
}


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
    assert reached == {message: test for test, message in TAMPER_TESTS.items()}
    assert report["reached"] == len(TAMPER_TESTS)
