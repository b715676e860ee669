"""Pipeline invariants are explicit checks that raise InvariantError, not
asserts, so they must still fire under ``python -O``; and the conditions
under which k_shortest_paths answers with the shortest-path DAG's prefix,
or with the paths one detour past it, instead of running Yen, or with its
lattice's stored paths instead of searching, the parity rule by which the
detour search skips paths one hop past the DAG on bipartite lattices, the
two-stage apportionment splits tied weights in closed form,
PS builds the rows of lone paths and tied edges without it, PS and PU reuse
a PathSet's plans, PU's residual deduction takes its closed form,
``largest_remainder`` ranks tied remainders by a stable sort, and PF
freezes only the edges each jump filled, are ordinary comparisons, so those shortcuts must still equal their references there;
so are the bounds that order Yen's deferred spur searches on its heap,
whose distances come, like the levels of the DAG walk and the detour
search, from the call's one BFS from the terminal.
PU's two-pass stop is one too, so ``test_pu_stops_at_the_fixed_point``
must still find no edge over capacity and no path left with room there, and
so is the rule by which a window reuses PS's and PU's schedules across
alpha, so routing a grid must still equal routing each point alone. Edge
masks cleared edge by edge from the lattice's, and the PathSet built from
node tuples, must still equal their references there as well.
This reruns their tests in a ``python -O -m pytest``
subprocess."""
import os
import pathlib
import subprocess
import sys

import pytest

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
        "test_share_arrays_rejects_floor_above_capacity",
        "test_infeasible_outcome_rejected",
        "test_run_algorithm_checks_each_core_for_feasibility",
        "test_run_algorithm_checks_the_f_min_floor",
        "test_uncoverable_residual_raises_invariant_error"),
}

#: k_shortest_paths, DAG prefix, detour search and Yen alike, against the
#: reference Yen on random lattices, each exit taken, and the exhaustive
#: oracle on DAGs holding k - 1, k and k + 1 shortest paths;
#: its lattice's stored paths, reused only while G' keeps their edges,
#: against the reference Yen;
#: Yen's deferred spur searches against the reference Yen, each at a spur
#: Yen visited, and fewer than eager Yen's;
#: ``largest_remainder``'s stable sort of positions on remainders that tie
#: exactly against its reference; PF's freeze events, each freezing only
#: the edges its jump filled, against unit rounds;
#: the two-stage apportionment, closed form and weighed, and its two parts
#: (``_apportion`` of ``_split``) against its reference;
#: PS's rows for lone paths and tied edges, built without the apportionment
#: call, against it and the keyed reference, and replayed from a plan;
#: PS and PU run on plans reused across points, 0.0 and -0.0 alike, against
#: cold plans and the keyed references; PU's closed-form residual against
#: the bulk and unit-step oracles;
#: PU's two-pass stop against the fixed point's definition; a window's reused
#: PS and PU schedules against routing each point alone; edge masks cleared
#: edge by edge against a build from the active edges; the PathSet built
#: from node tuples against the keyed build
REUSE_TESTS = {
    "tests/test_netmodel.py": ("test_edge_masks_equal_reference_build",),
    "tests/test_pathfinder.py": (
        "test_matches_reference_yen_through_each_exit",
        "test_only_a_lattice_with_an_odd_cycle_has_paths_one_hop_past_the_dag",
        "test_shortest_path_dag_with_k_minus_1_k_and_k_plus_1_paths",
        "test_spur_searches_are_deferred",
        "test_lattice_paths_answer_g_prime_exactly_when_their_edges_stay_active"),
    "tests/test_properties.py": ("test_node_tuple_path_set_equals_keyed_build",),
    "tests/test_scheduler.py": ("test_largest_remainder_ties_match_reference",
                                "test_pf_freeze_events_match_unit_rounds",
                                "test_tied_weights_apportion_in_closed_form",
                                "test_proportional_share_rows_in_closed_form_match_references",
                                "test_plans_match_cold_runs_and_keyed_references_on_random_windows",
                                "test_pu_residual_on_tied_lengths_matches_oracles",
                                "test_pu_stops_at_the_fixed_point"),
    "tests/test_sweep.py": ("test_route_window_reuse_equals_each_point_alone",
                            "test_pu_at_beta_1_reads_alpha_on_one_length"),
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


@pytest.mark.slow
def test_shortest_path_prefix_matches_yen_under_python_O():
    run_under_python_O(REUSE_TESTS)
