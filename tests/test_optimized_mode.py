"""Pipeline invariants are explicit checks that raise InvariantError, not
asserts, so they must still fire under ``python -O``; and the conditions
under which k_shortest_paths answers with the shortest-path DAG's prefix
instead of running Yen, the two-stage apportionment splits tied weights in
closed form, and PU's residual deduction takes its closed form, are ordinary
comparisons, so those shortcuts must still equal their references there.
This reruns their tests in a ``python -O -m pytest``
subprocess."""
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: every test that expects an InvariantError, by file
INVARIANT_TESTS = {
    "tests/test_pathfinder.py": (
        "test_walk_without_closer_neighbour_raises_invariant_error",),
    "tests/test_purification.py": (
        "test_purify_network_rejects_survivor_below_threshold",),
    "tests/test_scheduler.py": (
        "test_largest_remainder_rejects_quotas_off_total",
        "test_proportional_share_rejects_floor_above_capacity",
        "test_infeasible_outcome_rejected",
        "test_uncoverable_residual_raises_invariant_error"),
}

#: k_shortest_paths, DAG prefix and Yen alike, against the reference Yen and
#: the exhaustive oracle on DAGs holding k - 1, k and k + 1 shortest paths;
#: the two-stage apportionment, closed form and weighed, against its
#: reference; PU's closed-form residual against the bulk and unit-step oracles
REUSE_TESTS = {
    "tests/test_pathfinder.py": (
        "test_shortest_path_dag_with_k_minus_1_k_and_k_plus_1_paths",),
    "tests/test_scheduler.py": ("test_tied_weights_apportion_in_closed_form",
                                "test_pu_residual_on_tied_lengths_matches_oracles"),
}


def run_under_python_O(tests: dict[str, tuple[str, ...]]) -> None:
    names = [name for group in tests.values() for name in group]
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-k", " or ".join(names), *tests],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"{len(names)} passed" in result.stdout, result.stdout
    # pytest notices that the interpreter strips assert statements
    assert "python -O" in result.stdout, result.stdout


def test_invariant_errors_raise_under_python_O():
    run_under_python_O(INVARIANT_TESTS)


def test_shortest_path_prefix_matches_yen_under_python_O():
    run_under_python_O(REUSE_TESTS)
