"""Hypothesis property tests: k_shortest_paths over random lattices and
against the reference Yen on damaged ones, the sweep engine against the
per-point grid loop over random windows and grids, the PathSet built from
node tuples against the keyed build, and the invariants and serialization
of whole windows over random lattices and scenarios."""
import json
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest
from conftest import (assert_integer_max_min, edge_keys, info_from_path_edges,
                      reference_grid_search, reference_k_shortest_paths,
                      reference_record_to_dict, reference_with_paths)
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.harness import (AlgorithmResult, ExperimentConfig, RequestSpec,
                            degrade_outcome, grid_search_parameters, prepare_trial,
                            run_trial)
from qroute.metrics import evaluate
from qroute.netmodel import TOPOLOGIES, ScenarioParams, build_lattice
from qroute.pathfinder import _shortest_paths, build_path_info, k_shortest_paths
from qroute.reports import record_from_dict, record_to_dict
from qroute.scheduler import RoutingParams


@st.composite
def lattice_queries(draw):
    """A lattice with some edges dead, distinct s and t, and k."""
    kind = draw(st.sampled_from(TOPOLOGIES))
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(2, 6))
    net = build_lattice(rows, cols, kind)
    n = len(net.edges)
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    net = replace(net, capacity=(50,) * n, fidelity=(0.9,) * n, active=tuple(alive),
                  phase="purified")
    s = draw(st.integers(0, net.node_count - 1))
    t = draw(st.integers(0, net.node_count - 1).filter(lambda n: n != s))
    k = draw(st.integers(1, 20))
    return net, s, t, k


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lattice_queries())
def test_paths_are_loopless_active_and_ordered(query):
    net, s, t, k = query
    paths = k_shortest_paths(net, s, t, k)
    active = {e for e, on in zip(net.edges, net.active) if on}
    assert len(paths) <= k
    assert len(set(paths)) == len(paths)
    for p in paths:
        assert p[0] == s and p[-1] == t
        assert len(set(p)) == len(p)
        assert all(e in active for e in edge_keys(p))
    order = [(len(p), p) for p in paths]
    assert order == sorted(order)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lattice_queries(), st.integers(1, 20))
def test_prefix_stable_and_equal_to_reference(query, j):
    net, s, t, k = query
    paths = k_shortest_paths(net, s, t, k)
    assert paths == reference_k_shortest_paths(net, s, t, k)
    assert k_shortest_paths(net, s, t, min(j, k)) == paths[:j]


@st.composite
def damaged_queries(draw):
    """A lattice of any kind with some edges dead: none, at random, on the
    complete lattice's k shortest s-t paths, or every edge at s or t; and
    distinct s and t, and k."""
    kind = draw(st.sampled_from(TOPOLOGIES))
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(2, 6))
    k = draw(st.integers(1, 12))
    net = build_lattice(rows, cols, kind)
    s = draw(st.integers(0, net.node_count - 1))
    t = draw(st.integers(0, net.node_count - 1).filter(lambda n: n != s))
    mode = draw(st.sampled_from(("none", "random", "on_paths", "endpoint")))
    if mode == "none":
        dead = set()
    elif mode == "random":
        rate = draw(st.sampled_from((1, 3)))
        dead = {e for e in net.edges if draw(st.integers(0, 9)) < rate}
    elif mode == "on_paths":
        on_paths = sorted({e for p in k_shortest_paths(net, s, t, k) for e in edge_keys(p)})
        dead = set(draw(st.lists(st.sampled_from(on_paths), min_size=1, max_size=3)))
    else:
        node = draw(st.sampled_from((s, t)))
        dead = {e for e in net.edges if node in e}
    n = len(net.edges)
    net = replace(net, capacity=(50,) * n, fidelity=(0.9,) * n,
                  active=tuple(e not in dead for e in net.edges), phase="purified")
    return net, s, t, k


def test_k_shortest_paths_equal_reference_yen_on_damaged_lattices():
    covered = Counter()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(damaged_queries())
    def check(query):
        net, s, t, k = query
        paths = k_shortest_paths(net, s, t, k)
        assert paths == reference_k_shortest_paths(net, s, t, k)
        # does the shortest-path DAG alone hold the k paths?
        covered[len(list(islice(_shortest_paths(net.edge_masks(), [1 << t], s, t), k))) == k] += 1

    check()
    # the DAG's prefix answered some queries, and the detour search or Yen
    # the others
    assert covered[True] and covered[False]


def axis(values):
    """A grid axis: one to three draws, unsorted, duplicates allowed."""
    return st.lists(values, min_size=1, max_size=3).map(tuple)


@st.composite
def sweep_configs(draw):
    """A small seeded window and a grid over {l_max, k, alpha, beta}."""
    rows = draw(st.integers(3, 5))
    cols = draw(st.integers(3, 5))
    grid = {"l_max": draw(axis(st.integers(1, 8))),
            "k": draw(axis(st.integers(1, 6))),
            "alpha": draw(axis(st.sampled_from((0.0, 0.5, 1.0, 2.0)))),
            "beta": draw(axis(st.sampled_from((0.0, 1.0))))}
    return ExperimentConfig(
        rows=rows, cols=cols, kind=draw(st.sampled_from(TOPOLOGIES)),
        scenario=ScenarioParams(c0=draw(st.integers(5, 60)),
                                p_out=draw(st.sampled_from((0.0, 0.2, 0.5, 0.8)))),
        routing=RoutingParams(k=2, l_max=4),
        routing_grid=grid,
        requests=RequestSpec(count=draw(st.integers(1, 3)),
                             distance=draw(st.integers(1, min(rows, cols) - 1)),
                             demand=draw(st.integers(1, 40))),
        replications=draw(st.integers(1, 3)),
        base_seed=draw(st.integers(0, 10_000)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(sweep_configs())
def test_grid_search_equals_per_point_loop(config):
    assert grid_search_parameters(config) == reference_grid_search(config)


@st.composite
def windows(draw):
    """One seeded window: any lattice kind and size, a scenario that may leave
    no edge active (p_out = 0) or the requests disconnected, and pinned or
    drawn requests."""
    rows = draw(st.integers(2, 6))
    cols = draw(st.integers(2, 6))
    n = rows * cols
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda pair: pair[0] != pair[1]),
                              min_size=1, max_size=3))
        requests = RequestSpec(count=len(pairs), distance=None, pairs=tuple(pairs))
    else:
        requests = RequestSpec(
            count=draw(st.integers(1, 4)),
            distance=draw(st.none() | st.integers(1, min(rows, cols) - 1)))
    requests = replace(requests, demand=draw(st.integers(1, 40)))
    config = ExperimentConfig(
        rows=rows, cols=cols, kind=draw(st.sampled_from(TOPOLOGIES)),
        scenario=ScenarioParams(c0=draw(st.integers(1, 80)),
                                f_th=draw(st.sampled_from((0.5, 0.7, 0.8))),
                                p_out=draw(st.sampled_from((0.0, 0.5, 0.8, 1.0)))),
        routing=RoutingParams(k=draw(st.integers(1, 8)), l_max=draw(st.integers(1, 8)),
                              alpha=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
                              beta=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)))),
        requests=requests, replications=1)
    return config, draw(st.integers(0, 2**16))


def test_node_tuple_path_set_equals_keyed_build():
    kinds = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(windows(), st.data())
    def check(window, data):
        config, seed = window
        ctx = prepare_trial(config, seed)
        if ctx.reason is not None:
            return
        # request id -> node tuples by rank; path (r, rank) is paths[r][rank]
        paths = ctx.paths
        routes = {(r, rank): nodes for r in sorted(paths) for rank, nodes in enumerate(paths[r])}
        path_edges = {key: edge_keys(nodes) for key, nodes in routes.items()}
        keyed = info_from_path_edges(path_edges, {key: len(p) - 1 for key, p in routes.items()})
        caps = ctx.revised.capacity_map()
        ids = list(paths)
        for order in (ids, ids[::-1], data.draw(st.permutations(ids))):
            # the same dict in another insertion order
            info = build_path_info(ctx.revised, {r: paths[r] for r in order}, ctx.params.l_max)
            assert info == keyed and info.path_edges == path_edges
            assert info.edges == tuple(sorted({e for route in path_edges.values()
                                               for e in route}))
            assert info.values() == keyed.values()
            for l_max in sorted({1, 2, ctx.params.l_max, 20}):
                assert info.kept(l_max) == keyed.kept(l_max)
            assert (info.capacities(ctx.revised) == keyed.capacities(ctx.revised)
                    == tuple(caps[e] for e in info.edges))
            assert info.capacities(ctx.revised) is info.capacities(ctx.revised)
        # an inactive path edge is not read as a capacity
        dead = data.draw(st.sampled_from(info.edges))
        failed = replace(ctx.revised, active=tuple(on and e != dead for e, on in
                                                   zip(ctx.revised.edges, ctx.revised.active)))
        for built in (info, keyed):
            with pytest.raises(KeyError):
                built.capacities(failed)
        kinds[config.kind] += 1

    check()
    assert set(kinds) == set(TOPOLOGIES)


def assert_same_bytes(record):
    """Both serializers write the record, and the record read back from it,
    byte for byte alike."""
    text = json.dumps(record_to_dict(record))
    assert text == json.dumps(reference_record_to_dict(record))
    back = record_from_dict(json.loads(text))
    assert back == record
    assert json.dumps(record_to_dict(back)) == json.dumps(reference_record_to_dict(back)) == text


def check_window(config, seed):
    """Assert every schedule invariant on one window, and its serialization;
    returns its reason."""
    record = run_trial(config, seed)
    assert_same_bytes(record)
    ctx = prepare_trial(config, seed)
    reference = reference_with_paths(ctx)
    assert (ctx.paths, ctx.reason) == (reference.paths, reference.reason)
    if record.reason is not None:
        return record.reason
    # every other used edge fails: the degraded outcomes, scored on the failed network
    used = set().union(*(res.outcome.edge_usage() for res in record.results.values()))
    dead = set(sorted(used)[::2])
    failed = replace(ctx.revised, active=tuple(on and e not in dead for e, on
                                               in zip(ctx.revised.edges, ctx.revised.active)))
    degraded = {}
    for name, res in record.results.items():
        outcome = degrade_outcome(res.outcome, dead)
        degraded[name] = AlgorithmResult(outcome, evaluate(outcome, failed, ctx.requests,
                                                           config.scenario.p_in))
    assert_same_bytes(replace(record, results=degraded))
    caps = ctx.revised.capacity_map()
    info = build_path_info(ctx.revised, ctx.paths, ctx.params.l_max)
    live = {info.keys[p] for p in info.kept(ctx.params.l_max).live_paths}
    outcomes = {name: result.outcome for name, result in record.results.items()}
    for outcome in outcomes.values():
        assert all(used <= caps[e] for e, used in outcome.edge_usage().items())
    for name in ("PS", "PU"):
        assert all(outcomes[name].flows[key] >= ctx.params.f_min for key in live)
    # PU's table holds only the live paths; every other path carries nothing
    assert all(flow == 0 for key, flow in outcomes["PU"].flows.items() if key not in live)
    assert_integer_max_min(info.path_edges, caps, outcomes["PF"].flows)
    return None


def test_window_invariants_on_random_windows():
    reasons = Counter()

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(windows())
    def check(window):
        reasons[check_window(*window)] += 1

    check()
    # routable and both kinds of degenerate windows were all drawn
    assert reasons[None] and reasons["no_active_edges"] and reasons["no_paths"]
