import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (Entry, abstract_network, assert_integer_max_min,
                      info_from_path_edges, line_network, random_fill_instance,
                      reference_apportion_two_stage, reference_truncate_edge_paths,
                      reference_two_stage_weights, unit_progressive_fill,
                      unit_propagatory_core)

from qroute.netmodel import InvariantError
from qroute.pathfinder import PathSet, truncate_edge_paths
from qroute.scheduler import (RoutingOutcome, RoutingParams, ScheduleTable,
                              _apportion_two_stage, _assert_feasible,
                              _progressive_fill, _propagatory_core,
                              compute_f_min, flow_determination,
                              largest_remainder, progressive_filling,
                              propagatory_update, proportional_share,
                              run_algorithm, two_stage_weights)


def abstract_instance(edge_caps, paths, lengths=None):
    """Abstract scheduling instance over disjoint edges (2i, 2i+1).

    ``paths`` maps (r, l) to a list of edge indices; ``lengths`` optionally
    overrides each path's bookkeeping length (defaults to the edge count).
    """
    edges = [(2 * i, 2 * i + 1) for i in range(len(edge_caps))]
    net = abstract_network(dict(zip(edges, edge_caps)))
    path_edges = {key: tuple(edges[i] for i in idxs) for key, idxs in paths.items()}
    return net, info_from_path_edges(path_edges, lengths)


def one_edge(lengths):
    """Path set whose paths, keyed as in ``lengths``, all cross edge (0, 1)."""
    return info_from_path_edges({key: ((0, 1),) for key in lengths}, lengths)


def fill(path_edges, capacity):
    """PF over an abstract instance given as plain path -> edges."""
    return _progressive_fill(info_from_path_edges(path_edges), capacity)


# ------------------------------------------------------------------ f_min

def test_compute_f_min_examples():
    assert compute_f_min(line_network([100, 120]), 15) == 6
    assert compute_f_min(line_network([10, 40]), 10) == 1
    assert compute_f_min(line_network([15]), 15) == 1


def test_compute_f_min_empty_graph():
    net = line_network([0, 0])
    with pytest.raises(ValueError):
        compute_f_min(net, 10)


# --------------------------------------------------------------- truncation

def test_truncate_keeps_all_when_under_cap():
    lengths = {(1, 0): 4, (0, 1): 5, (0, 0): 4}
    assert truncate_edge_paths(list(lengths), lengths, 10) == sorted(lengths)


def test_truncate_keeps_shortest():
    lengths = {(0, l): 4 + l for l in range(12)}
    kept = truncate_edge_paths(list(lengths), lengths, 10)
    assert len(kept) == 10
    assert {l for _, l in kept} == set(range(10))


def test_truncate_sole_path_retained():
    # 10 short paths of request 0 plus one long sole path of request 1:
    # the sole path stays, evicting request 0's longest
    lengths = {(0, l): 4 for l in range(10)} | {(1, 0): 12}
    kept = truncate_edge_paths(list(lengths), lengths, 10)
    assert (1, 0) in kept
    assert len(kept) == 10
    assert len([key for key in kept if key[0] == 0]) == 9


def test_truncate_sole_overflow_capped():
    # more sole paths than slots: the cap wins, shortest soles kept
    lengths = {(r, 0): 4 + r for r in range(5)}
    kept = truncate_edge_paths(list(lengths), lengths, 3)
    assert [r for r, _ in kept] == [0, 1, 2]


def random_edge_entries(rng):
    """One edge's H as old-style entries in random order: 1-5 requests with
    random distinct ranks, lengths from a narrow range so ties are common."""
    entries = []
    for r in rng.choice(8, size=int(rng.integers(1, 6)), replace=False):
        for l in rng.choice(6, size=int(rng.integers(1, 5)), replace=False):
            entries.append(Entry(int(r), int(l), int(rng.integers(1, 5)),
                                 int(rng.integers(0, 8))))
    return [entries[i] for i in rng.permutation(len(entries))]


def test_key_based_rules_match_entry_based_references():
    rng = np.random.default_rng(808)
    seen = Counter()
    exponents = (0.0, 0.5, 1.0, 2.0)
    for _ in range(400):
        entries = random_edge_entries(rng)
        keys = [h.key for h in entries]
        lengths = {h.key: h.path_length for h in entries}
        counts = Counter(r for r, _ in keys)
        seen["sole"] += any(n == 1 for n in counts.values())
        seen["non-sole"] += any(n > 1 for n in counts.values())
        seen["tie"] += len(set(lengths.values())) < len(lengths)
        for l_max in range(1, len(keys) + 2):
            seen["truncated"] += l_max < len(keys)
            assert truncate_edge_paths(keys, lengths, l_max) == \
                [h.key for h in reference_truncate_edge_paths(entries, l_max)]
        for alpha, beta in itertools.product(exponents, exponents):
            # dict order and float bits both match, not just the values
            assert list(two_stage_weights(keys, lengths, alpha, beta).items()) == \
                list(reference_two_stage_weights(entries, alpha, beta).items())
            total = int(rng.integers(0, 60))
            for path_exp in (-alpha, alpha):
                assert list(_apportion_two_stage(keys, lengths, total, path_exp,
                                                 beta).items()) == \
                    list(reference_apportion_two_stage(entries, total, path_exp,
                                                       beta).items())
    assert min(seen.values()) > 0 and len(seen) == 4


# ------------------------------------------------------------------ weights

def test_two_stage_weights_uniform():
    lengths = {(0, 0): 4, (1, 0): 4, (1, 1): 6}
    w = two_stage_weights(list(lengths), lengths, alpha=0.0, beta=0.0)
    assert w[(0, 0)] == pytest.approx(0.5)
    assert w[(1, 0)] == pytest.approx(0.25)
    assert w[(1, 1)] == pytest.approx(0.25)


def test_two_stage_weights_beta_counts_paths():
    lengths = {(0, 0): 4, (1, 0): 4, (1, 1): 6}
    w = two_stage_weights(list(lengths), lengths, alpha=0.0, beta=1.0)
    assert w[(0, 0)] == pytest.approx(1 / 3)
    assert w[(1, 0)] + w[(1, 1)] == pytest.approx(2 / 3)


def test_two_stage_weights_alpha_favors_short():
    lengths = {(0, 0): 4, (0, 1): 6}
    w = two_stage_weights(list(lengths), lengths, alpha=1.0, beta=0.0)
    assert w[(0, 0)] == pytest.approx(0.6)
    assert w[(0, 1)] == pytest.approx(0.4)
    assert sum(w.values()) == pytest.approx(1.0)


# ------------------------------------------------------------- apportionment

def test_largest_remainder_examples():
    assert largest_remainder([3.5, 1.75, 1.75], 7) == [3, 2, 2]
    assert largest_remainder([2.5, 2.5], 5) == [3, 2]
    assert largest_remainder([0.0, 0.0], 0) == [0, 0]


def test_largest_remainder_rejects_quotas_off_total():
    # an explicit check, so it also holds under python -O
    with pytest.raises(InvariantError, match="do not sum"):
        largest_remainder([0.1, 0.1], 5)


@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_largest_remainder_properties(weights, total):
    if sum(weights) <= 0:
        weights = [w + 1.0 for w in weights]
    quotas = [total * w / sum(weights) for w in weights]
    result = largest_remainder(quotas, total)
    assert sum(result) == total
    assert all(abs(x - q) < 1.0 + 1e-9 for x, q in zip(result, quotas))


# -------------------------------------------------------- proportional share

def params(k=10, l_max=10, alpha=0.0, beta=0.0, f_min=1):
    return RoutingParams(k=k, l_max=l_max, alpha=alpha, beta=beta, f_min=f_min)


def test_proportional_share_worked_example():
    # edge C=10 shared by r0:[d=4] and r1:[d=4, d=6], alpha=beta=0, f_min=1:
    # floors 1,1,1 then 7 spare units apportioned 3.5/1.75/1.75 stage-wise
    net, _ = abstract_instance([10], {(0, 0): [0]})
    info = one_edge({(0, 0): 4, (1, 0): 4, (1, 1): 6})
    table = proportional_share(net, info, params())
    assert table.allocations[(0, 1)] == {(0, 0): 5, (1, 0): 3, (1, 1): 2}


def test_proportional_share_sole_claimant():
    net = line_network([8])
    info = one_edge({(0, 0): 3})
    table = proportional_share(net, info, params())
    assert table.allocations[(0, 1)] == {(0, 0): 8}


def test_proportional_share_tie_broken_by_rank():
    net = line_network([9])
    info = one_edge({(0, 0): 4, (0, 1): 4})
    table = proportional_share(net, info, params())
    assert table.allocations[(0, 1)] == {(0, 0): 5, (0, 1): 4}


def test_proportional_share_respects_capacity():
    net = line_network([10])
    info = one_edge({(r, 0): 5 for r in range(4)})
    table = proportional_share(net, info, params(alpha=1.5, beta=0.7))
    assert sum(table.allocations[(0, 1)].values()) == 10


def test_proportional_share_rejects_floor_above_capacity():
    with pytest.raises(InvariantError, match="Step 1"):
        proportional_share(line_network([3]), one_edge({(0, 0): 1}), params(f_min=5))


# -------------------------------------------------------- flow determination

def test_flow_determination_short_board():
    _, info = abstract_instance([10, 10, 10], {(0, 0): [0, 1, 2]})
    table = ScheduleTable({(0, 1): {(0, 0): 4}, (2, 3): {(0, 0): 6},
                           (4, 5): {(0, 0): 3}})
    outcome = flow_determination(table, info)
    assert outcome.flows[(0, 0)] == 3


def test_flow_determination_single_edge():
    net = line_network([9])
    info = one_edge({(0, 0): 1})
    outcome = flow_determination(proportional_share(net, info, params()), info)
    assert outcome.flows[(0, 0)] == 9


# --------------------------------------------------------- progressive fill

def test_pf_single_path_takes_bottleneck():
    assert fill({(0, 0): ((0, 1), (1, 2))}, {(0, 1): 7, (1, 2): 30}) == {(0, 0): 7}


def test_pf_three_paths_capacity_three():
    paths = {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (2, 0): ((0, 1),)}
    assert fill(paths, {(0, 1): 3}) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


def test_pf_leftover_stays_unallocated():
    paths = {(0, 0): ((0, 1),), (1, 0): ((0, 1),)}
    assert fill(paths, {(0, 1): 5}) == {(0, 0): 2, (1, 0): 2}


def test_pf_zero_freeze_when_paths_exceed_capacity():
    paths = {(r, 0): ((0, 1),) for r in range(4)}
    assert fill(paths, {(0, 1): 3}) == {(r, 0): 0 for r in range(4)}


def test_pf_matches_max_min_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        path_edges, capacity = random_fill_instance(rng)
        flows = fill(path_edges, capacity)
        assert_integer_max_min(path_edges, capacity, flows)


def test_pf_fair_on_symmetric_requests():
    # identical path systems per request: equal aggregate flows
    paths = {(0, 0): ((0, 1),), (0, 1): ((2, 3),),
             (1, 0): ((0, 1),), (1, 1): ((2, 3),)}
    flows = fill(paths, {(0, 1): 9, (2, 3): 13})
    total0 = flows[(0, 0)] + flows[(0, 1)]
    total1 = flows[(1, 0)] + flows[(1, 1)]
    assert total0 == total1


# -------------------------------------------------------- propagatory update

def test_pu_single_path_takes_bottleneck():
    net, info = abstract_instance([12, 30], {(0, 0): [0, 1]})
    out = propagatory_update(net, info, params())
    assert out.flows[(0, 0)] == 12


def test_pu_ample_edges_keep_initial_bottlenecks():
    # disjoint paths, every edge at least as large as the bottleneck sum
    net, info = abstract_instance([10, 40, 20, 40],
                                  {(0, 0): [0, 1], (1, 0): [2, 3]})
    out = propagatory_update(net, info, params())
    assert out.flows[(0, 0)] == 10
    assert out.flows[(1, 0)] == 20


def test_pu_deductions_hit_longer_paths_harder_when_alpha_positive():
    # one tight shared edge (C=30), ample elsewhere; request 1 holds the two
    # longer paths. Hand trace at alpha=1, beta=0: desired capacities start at
    # 30 each; request-level deduction quotas are 30/30; within request 1 the
    # 60-unit excess splits 13/17 by length (d=6 vs d=8), and request 0's
    # single path is capped at the f_min floor.
    net, info = abstract_instance(
        [30, 100, 100, 100],
        {(0, 0): [0, 1], (1, 0): [0, 2], (1, 1): [0, 3]},
        lengths={(0, 0): 4, (1, 0): 6, (1, 1): 8})
    out = propagatory_update(net, info, params(alpha=1.0, beta=0.0))
    flows = out.flows
    assert flows[(0, 0)] == 1
    assert flows[(1, 0)] > flows[(1, 1)]
    assert flows[(0, 0)] + flows[(1, 0)] + flows[(1, 1)] == 30
    # the longer path loses strictly more once alpha is switched on
    flat = propagatory_update(net, info, params(alpha=0.0, beta=0.0))
    assert flows[(1, 1)] < flat.flows[(1, 1)]


def exhaustive_best_total(bottlenecks, tight_cap, f_min):
    """Max total flow on a single contended edge subject to per-path f_min
    floors and bottleneck caps, by brute force."""
    best = 0
    ranges = [range(f_min, b + 1) for b in bottlenecks]
    for combo in itertools.product(*ranges):
        if sum(combo) <= tight_cap:
            best = max(best, sum(combo))
    return best


def test_pu_total_flow_optimal_on_single_contended_edge():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n_paths = int(rng.integers(1, 4))
        tight = int(rng.integers(n_paths, 31))
        side_caps = [int(rng.integers(tight, 61)) for _ in range(n_paths)]
        edge_caps = [tight] + side_caps
        paths = {(p, 0): [0, 1 + p] for p in range(n_paths)}
        net, info = abstract_instance(edge_caps, paths)
        out = propagatory_update(net, info, params(f_min=1, l_max=30))
        total = sum(out.flows.values())
        bottlenecks = [min(tight, side_caps[p]) for p in range(n_paths)]
        assert total == exhaustive_best_total(bottlenecks, tight, 1)


def test_pu_flows_never_below_f_min_for_live_paths():
    rng = np.random.default_rng(5)
    for _ in range(50):
        path_edges, capacity = random_fill_instance(rng, max_cap=40)
        # scale capacities so the f_min floor is feasible
        l_max = 4
        capacity = {e: max(c, l_max) for e, c in capacity.items()}
        f_min = min(capacity.values()) // l_max
        net = abstract_network(capacity)
        info = info_from_path_edges(path_edges)
        p = params(l_max=l_max, f_min=f_min)
        out = propagatory_update(net, info, p)
        _, kept = info.kept(l_max)
        for key, flow in out.flows.items():
            if key in kept:
                assert flow >= f_min


# ---------------------------------------------------------------- dispatch

def routed_instance(seed=0):
    import qroute
    rng = np.random.default_rng(seed)
    net = qroute.build_lattice(5, 5)
    net = qroute.sample_edge_states(net, qroute.ScenarioParams(c0=60), rng)
    net = qroute.purify_network(net, 0.8)
    net = qroute.deactivate_low_capacity_edges(net, 5)
    paths = (qroute.k_shortest_paths(net, 0, 24, 6, request_id=0)
             + qroute.k_shortest_paths(net, 4, 20, 6, request_id=1))
    info = qroute.build_path_info(paths)
    f_min = qroute.compute_f_min(net, 5)
    return net, info, RoutingParams(k=6, l_max=5, alpha=1.0, beta=1.0, f_min=f_min)


@pytest.mark.parametrize("name", ["PS", "PF", "PU"])
def test_algorithms_deterministic_and_feasible(name):
    net, info, p = routed_instance()
    a = run_algorithm(name, net, info, p)
    b = run_algorithm(name, net, info, p)
    assert a.flows == b.flows
    caps = net.capacity_map()
    for e, used in a.edge_usage().items():
        assert used <= caps[e]


def test_ps_floor_on_fully_kept_paths():
    net, info, p = routed_instance(3)
    out = run_algorithm("PS", net, info, p)
    _, kept = info.kept(p.l_max)
    for key in kept:
        assert out.flows[key] >= p.f_min


def test_infeasible_outcome_rejected():
    # 10 units on a capacity-3 edge; an explicit check, so it also holds under python -O
    net = line_network([3])
    outcome = RoutingOutcome("PS", {(0, 0): 10}, {(0, 0): 1}, {(0, 0): ((0, 1),)})
    with pytest.raises(InvariantError, match="exceeds capacity"):
        _assert_feasible(outcome, net)


def test_unknown_algorithm_rejected():
    net, info, p = routed_instance()
    with pytest.raises(ValueError):
        run_algorithm("RR", net, info, p)


def test_schedule_table_allocations_within_capacity():
    net, info, p = routed_instance(8)
    table = proportional_share(net, info, p)
    caps = net.capacity_map()
    for e, alloc in table.allocations.items():
        assert sum(alloc.values()) <= caps[e]
    assert progressive_filling(net, info).schedule is None
    pu = propagatory_update(net, info, p)
    for e, alloc in pu.schedule.allocations.items():
        assert sum(alloc.values()) <= caps[e]
    assert pu.schedule.desired is not None


def test_flow_equals_floor_when_all_allocations_at_floor():
    _, info = abstract_instance([10, 10], {(0, 0): [0, 1]})
    table = ScheduleTable({(0, 1): {(0, 0): 2}, (2, 3): {(0, 0): 2}})
    assert flow_determination(table, info).flows[(0, 0)] == 2


# ------------------------------------------------- unit-step oracles, bulk code

def random_schedule_instance(rng, max_cap):
    """Random PU/PF instance: 1-8 disjoint edges, 1-3 requests of 1-4 ranks,
    every path a random edge subset; f_min derived as in production from the
    smallest capacity and the largest per-edge path count."""
    n_edges = int(rng.integers(1, 9))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    capacity = {e: int(rng.integers(1, max_cap + 1)) for e in edges}
    path_edges, keys_by_edge, lengths = {}, {}, {}
    for r in range(int(rng.integers(1, 4))):
        for l in range(int(rng.integers(1, 5))):
            picks = sorted(rng.choice(n_edges, size=int(rng.integers(1, n_edges + 1)),
                                      replace=False))
            path_edges[(r, l)] = tuple(edges[i] for i in picks)
            lengths[(r, l)] = len(picks) + int(rng.integers(0, 4))
            for i in picks:
                keys_by_edge.setdefault(edges[i], []).append((r, l))
    f_min = min(capacity.values()) // max(len(keys) for keys in keys_by_edge.values())
    alpha, beta = (float(rng.choice([0.5, 1.0, 2.0])) for _ in range(2))
    return capacity, keys_by_edge, lengths, path_edges, f_min, alpha, beta


def test_bulk_steps_match_unit_step_oracles():
    rng = np.random.default_rng(31)
    hits = Counter()
    for i in range(2000):
        max_cap = (5, 50, 500, 10_000)[i % 4]
        capacity, keys_by_edge, lengths, path_edges, f_min, alpha, beta = \
            random_schedule_instance(rng, max_cap)
        assert _progressive_fill(PathSet(path_edges, lengths), capacity) == \
            unit_progressive_fill(path_edges, capacity)
        args = (capacity, keys_by_edge, lengths, path_edges, f_min, alpha, beta)
        assert _propagatory_core(*args) == unit_propagatory_core(*args, hits=hits)
    # both unit loops that PU replaces actually ran, so the match is not vacuous
    assert hits["residual"] > 0 and hits["raise"] > 0


def test_uncoverable_residual_raises_invariant_error():
    # two paths share a capacity-10 edge, so 10 units must go; with f_min = 9
    # (above what production derives) only 2 can, leaving a shortfall of 8.
    # An explicit check, so it also holds under python -O
    capacity = {(0, 1): 10}
    keys_by_edge = {(0, 1): [(0, 0), (1, 0)]}
    lengths = {(0, 0): 1, (1, 0): 1}
    path_edges = {(0, 0): ((0, 1),), (1, 0): ((0, 1),)}
    with pytest.raises(InvariantError, match=r"edge \(0, 1\): 8 units"):
        _propagatory_core(capacity, keys_by_edge, lengths, path_edges, 9, 1.0, 1.0)


# ------------------------------------------------- capacity-independent work
# The unit-step loops would need ~1e9 rounds or ~1e6 raises here; these pin
# that PF and PU no longer do work proportional to capacity.

def test_pf_billion_unit_capacities_hand_computed():
    # p0 crosses e0 and e1, p1 only e0, p2 e1 and e2. The first event freezes
    # p2 at e2's 300_000_007; p0 and p1 then split e0 (1e9 + 1) evenly and the
    # odd unit stays unallocated
    paths = {(0, 0): ((0, 1), (2, 3)), (1, 0): ((0, 1),), (2, 0): ((2, 3), (4, 5))}
    capacity = {(0, 1): 1_000_000_001, (2, 3): 2_000_000_000, (4, 5): 300_000_007}
    flows = fill(paths, capacity)
    assert flows == {(0, 0): 500_000_000, (1, 0): 500_000_000, (2, 0): 300_000_007}
    assert_integer_max_min(paths, capacity, flows)


def test_pu_raise_of_millions_of_units_hand_computed():
    # p0 = (0, 0) crosses e0 (12M) and e1 (6M), p1 = (1, 0) only e0, p2 = (2, 0)
    # only e1; one path per request, so every apportionment splits evenly.
    # Desired capacities start at 6M, 12M, 6M. Pass 1: e1 (ratio 2) deducts
    # 3M from p0 and p2, then e0 deducts 1.5M from p0 and p1. Pass 2: e1 has
    # 1.5M free; p0 ties p2 on weight and comes first but e0 is full, so p2
    # is raised by 1.5M units
    net, info = abstract_instance([12_000_000, 6_000_000],
                                  {(0, 0): [0, 1], (1, 0): [0], (2, 0): [1]})
    out = propagatory_update(net, info, params(alpha=1.0, beta=1.0))
    assert out.flows == {(0, 0): 1_500_000, (1, 0): 10_500_000, (2, 0): 4_500_000}
    assert out.schedule.allocations == {
        (0, 1): {(0, 0): 1_500_000, (1, 0): 10_500_000},
        (2, 3): {(0, 0): 1_500_000, (2, 0): 4_500_000}}


def test_pf_max_min_on_large_capacity_instances():
    rng = np.random.default_rng(77)
    for _ in range(300):
        path_edges, capacity = random_fill_instance(rng, max_cap=10_000)
        assert_integer_max_min(path_edges, capacity,
                               fill(path_edges, capacity))
