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
    "tests/test_admissibility.py::test_non_pair_hyperplane_in_a_22n_group_is_caught":
        'f"hyperplane {k} in a (2,2,n) group"',
    "tests/test_freeness.py::test_tau_touching_the_identity_position_is_caught":
        '"tau touches the identity position"',
    "tests/test_freeness.py::test_tau_entry_outside_the_signs_is_caught":
        'f"tau entry outside -1, 0, 1: {vector}"',
    "tests/test_freeness.py::test_specialization_removing_relations_is_caught":
        'f"specialization removed relations: {dim_generic} > {dim_sixth}"',
    "tests/test_admissibility.py::test_kb_order_not_dividing_the_stabilizer_is_caught":
        'f"|K_B| = {col.kb_order} does not divide |Stab(B)| = {col.orbit.stab_order}"',
    "tests/test_admissibility.py::test_kb_not_normal_in_the_stabilizer_is_caught":
        '"K_B must be normal in Stab(B)"',
    "tests/test_transversality.py::"
    "test_all_pairs_check_catches_a_wrong_cell_on_a_matrix_group":
        'f"table cell ({hyps[i].label}, {hyps[j].label}) says "',
    "tests/test_transversality.py::"
    "test_mapping_reflections_that_are_not_inverse_are_caught":
        'f"mapping reflections of ({i}, {j}) and ({j}, {i}) are not inverse"',
    "tests/test_transversality.py::"
    "test_transverse_pair_with_a_mapping_reflection_is_caught":
        'f"transverse pair ({hyps[a].label}, {hyps[b].label}) "',
    "tests/test_transversality.py::test_all_pairs_check_catches_proportional_roots":
        'f"hyperplanes {hyps[i].label} and {hyps[k].label} share a root line"',
    "tests/test_transversality.py::test_all_pairs_check_compares_the_type_shortcut":
        'f"transversality of ({H1.label}, {H2.label}): "',
    "tests/test_action_rows.py::"
    "test_generator_disagreeing_with_its_permutation_row_is_caught":
        'f"generator {s} disagrees with the row of its permutation"',
    "tests/test_action_rows.py::test_hyperplane_keys_out_of_order_are_caught":
        '"hyperplane ids are not in key order"',
    "tests/test_reflection_groups.py::test_subgroup_closure_refuses_a_non_index":
        'f"generator {g!r} is not an element index"',
    "tests/test_brauer_modules.py::test_v0_of_another_collection_is_refused":
        'f"B={B}: V0 is not a representation of Stab(B)"',
    "tests/test_brauer_modules.py::test_mapping_reflection_missing_the_block_is_caught":
        'f"reflection #{ridx} does not bring hyperplane {hid} into the block"',
    "tests/test_brauer_modules.py::test_eps_depending_on_the_member_chosen_is_caught":
        'f"eps of hyperplane {hid} depends on the member chosen in {bcol}"',
    "tests/test_module_reference.py::"
    "test_tampered_module_is_refused[kernel moves block 0]":
        'f"B={module.B}: the kernel of V0 is not closed under its generator {k}"',
    "tests/test_module_reference.py::"
    "test_tampered_module_is_refused[kernel not normal]":
        'f"B={module.B}: the kernel of V0 does not fix block 0"',
    "tests/test_brauer_modules.py::test_census_mismatch_is_caught":
        'f"census mismatch for {G.name}: sum of squares {ss} != dimension {dim}"',
    "tests/test_brauer_modules.py::"
    "test_kernel_disagreeing_with_the_classified_quotient_is_caught":
        'f"B={B}: {rep.degree} cosets of K_B, classified {quotient}"',
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
