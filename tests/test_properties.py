"""Hypothesis property tests: k_shortest_paths over random lattices, the
sweep engine against the per-point grid loop over random windows and grids,
and the invariants of whole windows over random lattices and scenarios."""
from collections import Counter
from dataclasses import replace

from conftest import (assert_integer_max_min, reference_grid_search,
                      reference_k_shortest_paths)
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.harness import (ExperimentConfig, RequestSpec, grid_search_parameters,
                            prepare_trial, run_trial)
from qroute.netmodel import TOPOLOGIES, ScenarioParams, build_lattice
from qroute.pathfinder import build_path_info, k_shortest_paths
from qroute.reports import record_from_dict, record_to_dict, trial_rows
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
    paths = k_shortest_paths(net, s, t, k, request_id=3)
    active = {e for e, on in zip(net.edges, net.active) if on}
    assert len(paths) <= k
    assert [p.rank for p in paths] == list(range(len(paths)))
    assert all(p.request_id == 3 for p in paths)
    assert len({p.nodes for p in paths}) == len(paths)
    for p in paths:
        assert p.nodes[0] == s and p.nodes[-1] == t
        assert len(set(p.nodes)) == len(p.nodes)
        assert all(e in active for e in p.edge_keys())
    order = [(p.length, p.nodes) for p in paths]
    assert order == sorted(order)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lattice_queries(), st.integers(1, 20))
def test_prefix_stable_and_equal_to_reference(query, j):
    net, s, t, k = query
    paths = k_shortest_paths(net, s, t, k)
    assert paths == reference_k_shortest_paths(net, s, t, k)
    assert k_shortest_paths(net, s, t, min(j, k)) == paths[:j]


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


def check_window(config, seed):
    """Assert every schedule invariant on one window; returns its reason."""
    record = run_trial(config, seed)
    assert trial_rows([record_from_dict(record_to_dict(record))]) == trial_rows([record])
    if record.reason is not None:
        return record.reason
    ctx = prepare_trial(config, seed)
    caps = ctx.revised.capacity_map()
    info = build_path_info(ctx.paths)
    _, live = info.kept(ctx.params.l_max)
    outcomes = {name: result.outcome for name, result in record.results.items()}
    for outcome in outcomes.values():
        assert all(used <= caps[e] for e, used in outcome.edge_usage().items())
    for name in ("PS", "PU"):
        assert all(outcomes[name].flows[key] >= ctx.params.f_min for key in live)
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
