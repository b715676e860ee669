import copy
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (KeyedOutcome, abstract_network, assert_integer_max_min,
                      assert_kept_views, by_key, info_from_path_edges, line_network,
                      progressive_fill_by_key, propagatory_core_by_key,
                      random_fill_instance, reference_apportion_two_stage,
                      reference_evaluate, reference_flow_determination, reference_kept,
                      reference_propagatory_core, reference_proportional_share,
                      reference_truncate_edge_paths, reference_two_stage_weights,
                      truncate_keys, unit_progressive_fill, unit_propagatory_core)

from qroute import scheduler
from qroute.harness import ExperimentConfig, RequestSpec, prepare_trial
from qroute.metrics import evaluate
from qroute.netmodel import TOPOLOGIES, InvariantError, ScenarioParams
from qroute.pathfinder import PathSet, build_path_info
from qroute.scheduler import (ALGORITHMS, RoutingOutcome, RoutingParams,
                              _apportion_two_stage, _assert_feasible,
                              _propagatory_core, compute_f_min,
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
    return progressive_fill_by_key(path_edges, capacity)


def weights_by_key(lengths, alpha, beta):
    """``two_stage_weights`` over one edge crossed by the paths of ``lengths``."""
    info = one_edge(lengths)
    (groups,) = info.kept(len(lengths)).groups
    return by_key(info, [p for group in groups for p in group],
                  two_stage_weights(groups, info.lengths, alpha, beta))


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
    assert truncate_keys(list(lengths), lengths, 10) == sorted(lengths)


def test_truncate_keeps_shortest():
    lengths = {(0, l): 4 + l for l in range(12)}
    kept = truncate_keys(list(lengths), lengths, 10)
    assert len(kept) == 10
    assert {l for _, l in kept} == set(range(10))


def test_truncate_sole_path_retained():
    # 10 short paths of request 0 plus one long sole path of request 1:
    # the sole path stays, evicting request 0's longest
    lengths = {(0, l): 4 for l in range(10)} | {(1, 0): 12}
    kept = truncate_keys(list(lengths), lengths, 10)
    assert (1, 0) in kept
    assert len(kept) == 10
    assert len([key for key in kept if key[0] == 0]) == 9


def test_truncate_sole_overflow_capped():
    # more sole paths than slots: the cap wins, shortest soles kept
    lengths = {(r, 0): 4 + r for r in range(5)}
    kept = truncate_keys(list(lengths), lengths, 3)
    assert [r for r, _ in kept] == [0, 1, 2]


def random_edge_paths(rng):
    """One edge's path lengths by key, keys in random order: 1-5 requests
    with random distinct ranks, lengths from a narrow range so ties are common."""
    lengths = {}
    for r in rng.choice(8, size=int(rng.integers(1, 6)), replace=False):
        for l in rng.choice(6, size=int(rng.integers(1, 5)), replace=False):
            lengths[(int(r), int(l))] = int(rng.integers(1, 5))
            rng.integers(0, 8)  # an unused draw of seed 808's instance stream
    keys = list(lengths)
    return {keys[i]: lengths[keys[i]] for i in rng.permutation(len(keys))}


def test_key_based_rules_match_entry_based_references():
    rng = np.random.default_rng(808)
    seen = Counter()
    exponents = (0.0, 0.5, 1.0, 2.0)
    for _ in range(400):
        lengths = random_edge_paths(rng)
        keys = list(lengths)
        counts = Counter(r for r, _ in keys)
        seen["sole"] += any(n == 1 for n in counts.values())
        seen["non-sole"] += any(n > 1 for n in counts.values())
        seen["tie"] += len(set(lengths.values())) < len(lengths)
        seen["single request"] += len(counts) == 1
        for l_max in range(1, len(keys) + 2):
            seen["truncated"] += l_max < len(keys)
            assert truncate_keys(keys, lengths, l_max) == \
                reference_truncate_edge_paths(keys, lengths, l_max)
        # the groups every scheduler reads: the edge's ids as PathSet.kept caches them
        info = one_edge(lengths)
        (groups,) = info.kept(len(keys)).groups
        ids = [p for group in groups for p in group]
        for alpha, beta in itertools.product(exponents, exponents):
            # key order and float bits both match, not just the values
            assert list(weights_by_key(lengths, alpha, beta).items()) == \
                list(reference_two_stage_weights(keys, lengths, alpha, beta).items())
            total = int(rng.integers(0, 60))
            seen["zero total"] += total == 0
            # the lone-key shortcut beside other requests, with units to hand out
            seen["single-key group"] += len(counts) > 1 and 1 in counts.values() and total > 0
            for path_exp in (-alpha, alpha):
                assert list(by_key(info, ids, _apportion_two_stage(
                    groups, info.lengths, total, path_exp, beta)).items()) == \
                    list(reference_apportion_two_stage(keys, lengths, total, path_exp,
                                                       beta).items())
    assert min(seen.values()) > 0 and len(seen) == 7


#: exponents of the tied-weight test: both zeros, and signs either way
TIE_EXPONENTS = (0.0, -0.0, 0.5, 1.0, 2.0, -1.0)


@st.composite
def apportion_edges(draw):
    """One edge's paths (1-8 requests of 1-15 paths) with units to split and
    both exponents. Group sizes, and each group's lengths, are all equal or
    drawn freely, so either stage's weights may tie without a zero exponent."""
    requests = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
    sizes = draw(st.one_of(
        st.integers(1, 15).map(lambda n: [n] * len(requests)),
        st.lists(st.integers(1, 15), min_size=len(requests), max_size=len(requests))))
    lengths = {}
    for r, n in zip(requests, sizes):
        ranks = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
        ds = draw(st.one_of(st.integers(1, 30).map(lambda d: [d] * n),
                            st.lists(st.integers(1, 30), min_size=n, max_size=n)))
        lengths.update({(r, l): d for l, d in zip(ranks, ds)})
    total = draw(st.integers(0, 60) | st.integers(61, 10**4) | st.integers(10**4, 10**6))
    return (lengths, total, draw(st.sampled_from(TIE_EXPONENTS)),
            draw(st.sampled_from(TIE_EXPONENTS)))


def test_tied_weights_apportion_in_closed_form(monkeypatch):
    # each stage whose weights tie is split by _even, each other stage of
    # more than one quota by largest_remainder; the shares equal the
    # key-based reference, which always computes the weights
    calls = Counter()
    for name in ("_even", "largest_remainder"):
        def spy(*args, _inner=getattr(scheduler, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(scheduler, name, spy)
    seen = Counter()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(apportion_edges())
    def check(edge):
        lengths, total, path_exp, beta = edge
        info = one_edge(lengths)
        (groups,) = info.kept(len(lengths)).groups
        ids = [p for group in groups for p in group]
        calls.clear()
        got = _apportion_two_stage(groups, info.lengths, total, path_exp, beta)
        assert list(by_key(info, ids, got).items()) == \
            list(reference_apportion_two_stage(lengths, lengths, total, path_exp,
                                               beta).items())
        want = Counter()
        if len(groups) > 1:
            tied = beta == 0 or len({len(group) for group in groups}) == 1
            want["_even" if tied else "largest_remainder"] += 1
            seen["request stage tied" if tied else "request stage weighed"] += 1
            seen["groups of one size, beta != 0"] += tied and beta != 0
        for group in groups:
            if len(group) > 1:
                tied = path_exp == 0 or len({info.lengths[p] for p in group}) == 1
                want["_even" if tied else "largest_remainder"] += 1
                seen["path stage tied" if tied else "path stage weighed"] += 1
                seen["paths of one length, path_exp != 0"] += tied and path_exp != 0
                seen["path_exp == -0.0"] += path_exp == 0 and math.copysign(1.0, path_exp) < 0
        assert calls == want
        seen["total > 10**5"] += total > 10**5

    check()
    assert len(seen) == 8 and min(seen.values()) > 0, seen


# ------------------------------------------------------------------ weights

def test_two_stage_weights_uniform():
    lengths = {(0, 0): 4, (1, 0): 4, (1, 1): 6}
    w = weights_by_key(lengths, alpha=0.0, beta=0.0)
    assert w[(0, 0)] == pytest.approx(0.5)
    assert w[(1, 0)] == pytest.approx(0.25)
    assert w[(1, 1)] == pytest.approx(0.25)


def test_two_stage_weights_beta_counts_paths():
    lengths = {(0, 0): 4, (1, 0): 4, (1, 1): 6}
    w = weights_by_key(lengths, alpha=0.0, beta=1.0)
    assert w[(0, 0)] == pytest.approx(1 / 3)
    assert w[(1, 0)] + w[(1, 1)] == pytest.approx(2 / 3)


def test_two_stage_weights_alpha_favors_short():
    lengths = {(0, 0): 4, (0, 1): 6}
    w = weights_by_key(lengths, alpha=1.0, beta=0.0)
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
    allocations = proportional_share(net, info, params()).allocations
    assert allocations[(0, 1)] == {(0, 0): 5, (1, 0): 3, (1, 1): 2}


def test_proportional_share_sole_claimant():
    net = line_network([8])
    info = one_edge({(0, 0): 3})
    allocations = proportional_share(net, info, params()).allocations
    assert allocations[(0, 1)] == {(0, 0): 8}


def test_proportional_share_tie_broken_by_rank():
    net = line_network([9])
    info = one_edge({(0, 0): 4, (0, 1): 4})
    allocations = proportional_share(net, info, params()).allocations
    assert allocations[(0, 1)] == {(0, 0): 5, (0, 1): 4}


def test_proportional_share_respects_capacity():
    net = line_network([10])
    info = one_edge({(r, 0): 5 for r in range(4)})
    allocations = proportional_share(net, info, params(alpha=1.5, beta=0.7)).allocations
    assert sum(allocations[(0, 1)].values()) == 10


def test_proportional_share_rejects_floor_above_capacity():
    with pytest.raises(InvariantError, match="Step 1"):
        proportional_share(line_network([3]), one_edge({(0, 0): 1}), params(f_min=5))


# -------------------------------------------------------- flow determination

def test_flow_determination_short_board():
    # a sole claimant takes each edge whole, so its allocations are 4, 6 and 3
    net, info = abstract_instance([4, 6, 3], {(0, 0): [0, 1, 2]})
    outcome = proportional_share(net, info, params())
    assert outcome.allocations == {(0, 1): {(0, 0): 4}, (2, 3): {(0, 0): 6},
                                   (4, 5): {(0, 0): 3}}
    assert outcome.flows[(0, 0)] == 3


def test_flow_determination_single_edge():
    net = line_network([9])
    info = one_edge({(0, 0): 1})
    outcome = proportional_share(net, info, params())
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
        kept = {info.keys[p] for p in info.kept(l_max).live_paths}
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
    info = qroute.build_path_info(paths, 5)
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
    for key in (info.keys[q] for q in info.kept(p.l_max).live_paths):
        assert out.flows[key] >= p.f_min


def test_infeasible_outcome_rejected():
    # 10 units on a capacity-3 edge; an explicit check, so it also holds under python -O
    net = line_network([3])
    outcome = RoutingOutcome("PS", {(0, 0): 10}, PathSet({(0, 0): ((0, 1),)}, {(0, 0): 1}))
    with pytest.raises(InvariantError, match="exceeds capacity"):
        _assert_feasible(outcome, net)


def test_outcome_rejects_flows_off_the_path_set_order():
    # the metrics zip flows with per-path-id lists, so the order is checked
    paths = PathSet({(0, 0): ((0, 1),), (1, 0): ((1, 2),)}, {(0, 0): 1, (1, 0): 1})
    RoutingOutcome("PS", {(0, 0): 1, (1, 0): 2}, paths)
    for flows in ({(1, 0): 2, (0, 0): 1}, {(0, 0): 1}):
        with pytest.raises(ValueError, match="key order"):
            RoutingOutcome("PS", flows, paths)


def test_unknown_algorithm_rejected():
    net, info, p = routed_instance()
    with pytest.raises(ValueError):
        run_algorithm("RR", net, info, p)


def pu_table(outcome, info, l_max):
    """PU's per-edge table, rebuilt from its flows: each live kept edge holds
    the flow of every live path crossing it."""
    kept = info.kept(l_max)
    return {info.edges[e]: {info.keys[p]: outcome.flows[info.keys[p]] for p in ids}
            for e, ids in enumerate(kept.live_keys) if ids}


def test_schedule_table_allocations_within_capacity():
    net, info, p = routed_instance(8)
    allocations = proportional_share(net, info, p).allocations
    caps = net.capacity_map()
    for e, alloc in allocations.items():
        assert sum(alloc.values()) <= caps[e]
    assert progressive_filling(net, info).allocations is None
    pu = propagatory_update(net, info, p)
    assert pu.allocations is None
    table = pu_table(pu, info, p.l_max)
    for e, alloc in table.items():
        assert sum(alloc.values()) <= caps[e]
    assert table


def test_flow_equals_floor_when_all_allocations_at_floor():
    # two paths share both edges; f_min = 2 fills each capacity-4 edge with floors
    net, info = abstract_instance([4, 4], {(0, 0): [0, 1], (1, 0): [0, 1]})
    outcome = proportional_share(net, info, params(f_min=2))
    assert outcome.allocations == {(0, 1): {(0, 0): 2, (1, 0): 2},
                                   (2, 3): {(0, 0): 2, (1, 0): 2}}
    assert outcome.flows == {(0, 0): 2, (1, 0): 2}


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


@pytest.mark.slow
def test_bulk_steps_match_unit_step_oracles():
    rng = np.random.default_rng(31)
    hits = Counter()
    for i in range(2000):
        max_cap = (5, 50, 500, 10_000)[i % 4]
        capacity, keys_by_edge, lengths, path_edges, f_min, alpha, beta = \
            random_schedule_instance(rng, max_cap)
        assert progressive_fill_by_key(path_edges, capacity) == \
            unit_progressive_fill(path_edges, capacity)
        # no edge holds more keys than there are paths, so all paths are live
        info = PathSet(path_edges, lengths)
        kept = info.kept(len(path_edges))
        assert {info.edges[e]: [info.keys[p] for p in ids]
                for e, ids in enumerate(kept.live_keys) if ids} == keys_by_edge
        assert propagatory_core_by_key(info, len(path_edges), capacity, f_min, alpha,
                                       beta) == \
            unit_propagatory_core(capacity, keys_by_edge, lengths, path_edges, f_min,
                                  alpha, beta, hits=hits)
    # both unit loops that PU replaces actually ran, so the match is not vacuous
    assert hits["residual"] > 0 and hits["raise"] > 0


@st.composite
def tied_pu_windows(draw):
    """PU instance over 1-4 edges whose paths mostly share one length. An
    edge's capacity is f_min per path plus at most two units per path, so
    even splits of its excess run into f_min on some paths and the residual
    rule takes the rest. In one draw of five every capacity falls short of
    f_min per path instead, and then the residual cannot be covered."""
    n_edges = draw(st.integers(1, 4))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    d = draw(st.integers(1, 6))
    path_edges, lengths = {}, {}
    for r in range(draw(st.integers(1, 3))):
        for l in range(draw(st.integers(1, 5))):
            picks = draw(st.sets(st.integers(0, n_edges - 1), min_size=1))
            path_edges[(r, l)] = tuple(edges[i] for i in sorted(picks))
            lengths[(r, l)] = d + draw(st.sampled_from((0, 0, 0, 1)))
    count = Counter(e for route in path_edges.values() for e in route)
    f_min = draw(st.integers(1, 12))
    short = draw(st.integers(0, 4)) == 0
    capacity = {e: max(1, f_min * n + draw(st.integers(-n, -1) if short
                                           else st.integers(0, 2 * n)))
                for e, n in count.items()}
    exponents = st.sampled_from((0.0, 0.5, 1.0, 2.0))
    return capacity, lengths, path_edges, f_min, draw(exponents), draw(exponents)


def test_pu_residual_on_tied_lengths_matches_oracles():
    # the closed-form residual against the bulk and the unit-step oracles,
    # and its shortfall message against the bulk oracle's
    hits = Counter()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(tied_pu_windows())
    def check(window):
        capacity, lengths, path_edges, f_min, alpha, beta = window
        info = PathSet(path_edges, lengths)
        # l_max = #paths keeps every path live
        keys_by_edge = {info.edges[e]: [info.keys[p] for p in ids]
                        for e, ids in enumerate(info.kept(len(path_edges)).live_keys)}
        try:
            want = reference_propagatory_core(capacity, keys_by_edge, lengths, path_edges,
                                              f_min, alpha, beta)
        except InvariantError as exc:
            with pytest.raises(InvariantError, match=re.escape(str(exc))):
                propagatory_core_by_key(info, len(path_edges), capacity, f_min, alpha, beta)
            hits["shortfall"] += 1
            return
        got = propagatory_core_by_key(info, len(path_edges), capacity, f_min, alpha, beta)
        assert list(got.items()) == list(want.items())
        before = hits["residual"]
        assert got == unit_propagatory_core(capacity, keys_by_edge, lengths, path_edges,
                                            f_min, alpha, beta, hits=hits)
        hits["windows with a residual"] += hits["residual"] > before

    check()
    # the residual ran, often over several levels, and some could not be covered
    assert hits["windows with a residual"] >= 100 and hits["residual levels"] >= 50, hits
    assert hits["shortfall"] >= 10, hits


def random_routed_window(rng, kind):
    """A prepared random window on a lattice of ``kind``: its network, its
    PathSet, its routing parameters with f_min and its requests; None when
    the window is degenerate."""
    rows, cols = (int(x) for x in rng.integers(4, 11, size=2))
    config = ExperimentConfig(
        rows=rows, cols=cols, kind=kind,
        scenario=ScenarioParams(c0=int(rng.choice([20, 60, 100, 1000]))),
        routing=RoutingParams(k=int(rng.integers(1, 11)), l_max=int(rng.integers(1, 11))),
        requests=RequestSpec(count=int(rng.integers(1, 9)), distance=None))
    ctx = prepare_trial(config, int(rng.integers(0, 2**31)))
    if ctx.reason is not None:
        return None
    return ctx.revised, build_path_info(ctx.paths, ctx.params.l_max), ctx.params, ctx.requests


def test_pu_core_matches_reference_on_random_windows():
    rng = np.random.default_rng(1111)
    exponents = (0.0, 0.5, 1.0, 2.0)
    compared = Counter()
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        window = random_routed_window(rng, kind)
        if window is None:
            continue
        net, info, p, _ = window
        caps = net.capacity_map()
        lengths = dict(zip(info.keys, info.lengths))
        _, live_keys, live_paths = reference_kept(info.path_edges, lengths, p.l_max)
        for alpha, beta in itertools.product(exponents, exponents):
            got = propagatory_core_by_key(info, p.l_max, caps, p.f_min, alpha, beta)
            want = reference_propagatory_core(caps, live_keys, lengths, live_paths,
                                              p.f_min, alpha, beta)
            # key order too, so the core stays a drop-in for the reference
            assert list(got.items()) == list(want.items()), (kind, n, alpha, beta)
        compared[kind] += 1
        compared["truncated"] += len(live_paths) < len(info.keys)
    assert all(compared[kind] >= 10 for kind in TOPOLOGIES) and compared["truncated"]


def test_cores_match_keyed_references_on_random_windows():
    rng = np.random.default_rng(4242)
    compared = Counter()
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        window = random_routed_window(rng, kind)
        if window is None:
            continue
        net, info, p, requests = window
        alpha, beta = (float(x) for x in rng.choice([0.0, 0.5, 1.0, 2.0], size=2))
        p = RoutingParams(k=p.k, l_max=p.l_max, alpha=alpha, beta=beta, f_min=p.f_min)
        p_in = float(rng.choice([0.5, 0.9, 1.0]))
        caps = net.capacity_map()
        lengths = dict(zip(info.keys, info.lengths))
        kept, live_keys, live_paths = reference_kept(info.path_edges, lengths, p.l_max)
        allocations = reference_proportional_share(net, kept, lengths, p)
        f_max = reference_propagatory_core(caps, live_keys, lengths, live_paths, p.f_min,
                                           alpha, beta)
        want = {"PS": reference_flow_determination(allocations, info.path_edges),
                "PF": unit_progressive_fill(info.path_edges, caps),
                "PU": {key: f_max.get(key, 0) for key in info.path_edges}}
        for name, flows in want.items():
            outcome = run_algorithm(name, net, info, p)
            # key order and values both match
            assert list(outcome.flows.items()) == list(flows.items()), (kind, n, name)
            report = evaluate(outcome, net, requests, p_in)
            # repr shows every float's bits, and the dicts' order
            assert repr(report) == repr(reference_evaluate(KeyedOutcome.of(outcome), net,
                                                           requests, p_in)), (kind, n, name)
            if name == "PS":
                assert [(e, list(a.items())) for e, a in outcome.allocations.items()] == \
                    [(e, list(a.items())) for e, a in allocations.items()]
        compared[kind] += 1
        compared["truncated"] += len(live_paths) < len(info.keys)
        compared["PU deducted"] += any(f_max[key] < min(caps[e] for e in edges)
                                       for key, edges in live_paths.items())
    assert all(compared[kind] >= 10 for kind in TOPOLOGIES), compared
    assert compared["truncated"] and compared["PU deducted"], compared


def test_kept_views_match_definitions_on_random_windows():
    # PathSet.kept's one-request and nothing-truncated shortcuts against the
    # definitions of its views, at l_max values with and without truncation
    rng = np.random.default_rng(5150)
    seen = Counter()
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        window = random_routed_window(rng, kind)
        if window is None:
            continue
        net, info, p, requests = window
        seen[kind] += 1
        for l_max in (p.l_max, 1, max(map(len, info.values()))):
            assert_kept_views(info, l_max)
            truncated = any(len(ids) > l_max for ids in info.values())
            seen["truncated" if truncated else "not truncated"] += 1
            for grouped in info.kept(l_max).groups:
                seen["one request" if len(grouped) == 1 else "several requests"] += 1
        # the live views may be the kept lists themselves, so nothing may write to them
        kept = info.kept(p.l_max)
        seen["live views are the kept lists"] += kept.live_keys is kept.keys
        before = copy.deepcopy(kept)
        for name in ALGORITHMS:
            evaluate(run_algorithm(name, net, info, p), net, requests, 0.9)
        assert info.kept(p.l_max) is kept and kept == before
    assert all(seen[kind] >= 10 for kind in TOPOLOGIES), seen
    assert len(seen) == len(TOPOLOGIES) + 5 and min(seen.values()) > 0, seen


def test_uncoverable_residual_raises_invariant_error():
    # two paths share a capacity-10 edge, so 10 units must go; with f_min = 9
    # (above what production derives) only 2 can, leaving a shortfall of 8.
    # An explicit check, so it also holds under python -O
    info = one_edge({(0, 0): 1, (1, 0): 1})
    with pytest.raises(InvariantError, match=r"edge \(0, 1\): 8 units"):
        _propagatory_core(info, info.kept(2), [10], 9, 1.0, 1.0)


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
    p = params(alpha=1.0, beta=1.0)
    out = propagatory_update(net, info, p)
    assert out.flows == {(0, 0): 1_500_000, (1, 0): 10_500_000, (2, 0): 4_500_000}
    assert pu_table(out, info, p.l_max) == {
        (0, 1): {(0, 0): 1_500_000, (1, 0): 10_500_000},
        (2, 3): {(0, 0): 1_500_000, (2, 0): 4_500_000}}


def test_pf_max_min_on_large_capacity_instances():
    rng = np.random.default_rng(77)
    for _ in range(300):
        path_edges, capacity = random_fill_instance(rng, max_cap=10_000)
        assert_integer_max_min(path_edges, capacity,
                               fill(path_edges, capacity))
