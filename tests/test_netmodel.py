import copy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from conftest import adjacency, expected_edge_count, reference_edge_masks
from hypothesis import given, settings
from hypothesis import strategies as st

from qroute.netmodel import (TOPOLOGIES, ScenarioParams, build_lattice,
                             deactivate_low_capacity_edges, generate_requests,
                             inject_failures, node_id, node_label, node_xy,
                             sample_edge_states)
from qroute.purification import purify_network


@pytest.mark.parametrize("rows,cols,expected", [(8, 8, 112), (2, 2, 4), (3, 3, 12)])
def test_square_edge_counts(rows, cols, expected):
    net = build_lattice(rows, cols, "square")
    assert len(net.edges) == expected
    assert net.phase == "raw"
    assert net.active == (True,) * expected
    assert net.capacity == (0,) * expected and net.fidelity == (0.0,) * expected


@given(rows=st.integers(2, 12), cols=st.integers(2, 12),
       kind=st.sampled_from(["square", "hexagonal", "triangular"]))
@settings(max_examples=40, deadline=None)
def test_edge_count_formula(rows, cols, kind):
    net = build_lattice(rows, cols, kind)
    assert len(net.edges) == expected_edge_count(rows, cols, kind)
    keys = list(net.edges)
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_square_formula_matches_closed_form():
    assert expected_edge_count(5, 7, "square") == 5 * 6 + 7 * 4


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_cached_lattice_samples_alike_twice_and_stays_raw(kind):
    raw = build_lattice(6, 7, kind)
    snapshot = copy.deepcopy(raw)
    assert build_lattice(6, 7, kind) is raw
    params = ScenarioParams(c0=40)
    first = sample_edge_states(raw, params, np.random.default_rng(9))
    second = sample_edge_states(build_lattice(6, 7, kind), params, np.random.default_rng(9))
    assert first == second and first is not second and first is not raw
    assert raw == snapshot and raw.phase == "raw"
    assert raw.capacity == (0,) * len(raw.edges) and raw.active == (True,) * len(raw.edges)


def test_lattice_dimension_errors():
    with pytest.raises(ValueError):
        build_lattice(1, 8)
    with pytest.raises(ValueError):
        build_lattice(8, 1)
    with pytest.raises(ValueError):
        build_lattice(3, 3, "kagome")


def test_node_coordinates_roundtrip():
    # paper-style label: node "71" sits at column 7, row 1 on an 8-wide lattice
    assert node_id(7, 1, 8) == 15
    assert node_xy(15, 8) == (7, 1)
    assert node_label(15, 8) == "71"


def test_sample_degenerate_p_out():
    params_full = ScenarioParams(c0=40, p_out=1.0)
    net = sample_edge_states(build_lattice(3, 3), params_full, np.random.default_rng(0))
    assert all(c == 40 for c in net.capacity) and all(net.active)
    assert net.phase == "initialized"

    params_zero = ScenarioParams(c0=40, p_out=0.0)
    net = sample_edge_states(build_lattice(3, 3), params_zero, np.random.default_rng(0))
    assert all(c == 0 for c in net.capacity) and not any(net.active)


def test_sample_bounds_and_determinism():
    params = ScenarioParams(c0=100, p_out=0.8)
    a = sample_edge_states(build_lattice(8, 8), params, np.random.default_rng(42))
    b = sample_edge_states(build_lattice(8, 8), params, np.random.default_rng(42))
    assert a == b
    for c, f, on in zip(a.capacity, a.fidelity, a.active):
        assert 0 <= c <= 100
        assert 0.0 <= f <= 1.0
        assert on == (c > 0)


def test_sample_mean_capacity_within_binomial_band():
    # 112 draws of Binomial(100, 0.8): 3-sigma band on the mean is well inside +-2
    params = ScenarioParams(c0=100, p_out=0.8)
    net = sample_edge_states(build_lattice(8, 8), params, np.random.default_rng(7))
    mean = np.mean(net.capacity)
    assert abs(mean - 80.0) <= 2.0


def test_sample_requires_raw_phase():
    params = ScenarioParams()
    net = sample_edge_states(build_lattice(2, 2), params, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_edge_states(net, params, np.random.default_rng(0))


def _purified(capacities):
    return replace(build_lattice(2, 2), capacity=tuple(capacities), fidelity=(0.9,) * 4,
                   active=tuple(c > 0 for c in capacities), phase="purified")


def test_deactivate_threshold():
    net = deactivate_low_capacity_edges(_purified([5, 15, 20, 15]), 15)
    assert net.active == (False, True, True, True)


def test_deactivate_single_pair_below_l_max():
    net = deactivate_low_capacity_edges(_purified([1, 20, 20, 20]), 10)
    assert not net.active[0]


def test_deactivate_noop_and_idempotent():
    base = _purified([20, 30, 40, 50])
    once = deactivate_low_capacity_edges(base, 15)
    assert once.active == (True,) * 4
    assert deactivate_low_capacity_edges(once, 15) == once


def test_deactivate_requires_purified_phase():
    net = build_lattice(2, 2)
    with pytest.raises(ValueError):
        deactivate_low_capacity_edges(net, 5)


def test_inject_node_failure_kills_incident_edges():
    net = _purified([20, 20, 20, 20])
    # node 0 of a 2x2 lattice touches edges (0,1) and (0,2)
    failed = inject_failures(net, "node", 1, [0], np.random.default_rng(0))
    state = dict(zip(failed.edges, failed.active))
    assert not state[(0, 1)] and not state[(0, 2)]
    assert state[(1, 3)] and state[(2, 3)]


def test_inject_center_node_failure_kills_all_four_edges():
    net = build_lattice(3, 3)
    n = len(net.edges)
    net = replace(net, capacity=(20,) * n, fidelity=(0.9,) * n, phase="purified")
    failed = inject_failures(net, "node", 1, [4], np.random.default_rng(1))
    dead = {e for e, on in zip(failed.edges, failed.active) if not on}
    assert dead == {(1, 4), (3, 4), (4, 5), (4, 7)}


def test_inject_edge_failure_single_target():
    net = _purified([20, 20, 20, 20])
    failed = inject_failures(net, "edge", 1, [(0, 1)], np.random.default_rng(3))
    assert not dict(zip(failed.edges, failed.active))[(0, 1)]


def _sampled():
    return sample_edge_states(build_lattice(4, 4), ScenarioParams(), np.random.default_rng(2))


#: each network stage: (its call, a builder of its input network); every
#: call changes some edge of a 4x4 lattice
STAGES = {
    "sample_edge_states": (
        lambda net: sample_edge_states(net, ScenarioParams(), np.random.default_rng(2)),
        lambda: build_lattice(4, 4)),
    "purify_network": (lambda net: purify_network(net, 0.8), _sampled),
    "deactivate_low_capacity_edges": (
        lambda net: deactivate_low_capacity_edges(net, 60),
        lambda: purify_network(_sampled(), 0.8)),
    "inject_failures": (
        lambda net: inject_failures(net, "node", 2, range(16), np.random.default_rng(4)),
        lambda: purify_network(_sampled(), 0.8)),
}


def test_network_is_frozen():
    net = _purified([20, 20, 20, 20])
    with pytest.raises(FrozenInstanceError):
        net.phase = "raw"
    with pytest.raises(FrozenInstanceError):
        net.capacity = (0, 0, 0, 0)


@pytest.mark.parametrize("name", STAGES)
def test_stage_returns_new_network_sharing_edges(name):
    stage, build_input = STAGES[name]
    net = build_input()
    snapshot = copy.deepcopy(net)
    out = stage(net)
    assert net == snapshot
    assert out is not net and out != net
    assert out.edges is net.edges
    # the values reach schedulers and JSON as plain Python types
    assert all(type(c) is int for c in out.capacity)
    assert all(type(f) is float for f in out.fidelity)
    assert all(type(on) is bool for on in out.active)


def test_derived_views_are_computed_once():
    net = deactivate_low_capacity_edges(purify_network(_sampled(), 0.8), 60)
    assert net.capacity_map() is net.capacity_map()
    assert net.active_edges() is net.active_edges()
    assert net.capacity_map() == {e: c for e, c, on in
                                  zip(net.edges, net.capacity, net.active) if on}
    assert net.active_edges() == tuple(net.capacity_map())


def _bits_of(mask):
    return [n for n in range(mask.bit_length()) if mask >> n & 1]


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_edge_masks_rebuild_active_edges_and_adjacency(kind):
    # offsets 1 and cols, plus cols + 1 on triangular lattices
    sampled = sample_edge_states(build_lattice(7, 9, kind), ScenarioParams(c0=40),
                                 np.random.default_rng(5))
    revised = deactivate_low_capacity_edges(purify_network(sampled, 0.8), 30)
    failed = inject_failures(revised, "node", 3, range(revised.node_count),
                             np.random.default_rng(6))
    for net in (build_lattice(7, 9, kind), sampled, revised, failed):
        masks = net.edge_masks()
        assert masks is net.edge_masks()
        offsets = [off for off, _ in masks.offsets]
        assert offsets == sorted(offsets)
        assert set(offsets) <= {1, net.cols, net.cols + 1}
        edges = {(n, n + off) for off, mask in masks.offsets for n in _bits_of(mask)}
        assert edges == set(net.active_edges())
        assert len(masks.neighbours) == net.node_count
        assert {n: _bits_of(mask) for n, mask in enumerate(masks.neighbours)} == adjacency(net)
    assert len(failed.active_edges()) < len(revised.active_edges()) < len(sampled.edges)


@st.composite
def damaged_lattices(draw):
    """A lattice of any kind with a random set of edges inactive, and often
    every edge of one offset class too."""
    net = build_lattice(draw(st.integers(2, 7)), draw(st.integers(2, 7)),
                        draw(st.sampled_from(TOPOLOGIES)))
    dead = draw(st.sets(st.sampled_from(net.edges)))
    emptied = draw(st.none() | st.sampled_from(sorted({v - u for u, v in net.edges})))
    dead |= {(u, v) for u, v in net.edges if v - u == emptied}
    return replace(net, active=tuple(e not in dead for e in net.edges)), emptied


def test_edge_masks_equal_reference_build():
    # the lattice's masks with the inactive edges' bits cleared, against
    # a build from the active edges alone
    seen = set()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(damaged_lattices())
    def check(drawn):
        net, emptied = drawn
        masks = net.edge_masks()
        assert masks == reference_edge_masks(net)
        assert emptied not in dict(masks.offsets)
        seen.add((net.kind, emptied is not None))

    check()
    # every kind, with and without an emptied offset class
    assert seen == {(kind, emptied) for kind in TOPOLOGIES for emptied in (False, True)}


def test_network_rejects_misaligned_fields():
    with pytest.raises(ValueError, match="align"):
        replace(build_lattice(2, 2), capacity=(1, 2, 3))


def test_inject_failure_errors():
    net = _purified([20, 20, 20, 20])
    with pytest.raises(ValueError):
        inject_failures(net, "edge", 0, [(0, 1)], np.random.default_rng(0))
    with pytest.raises(ValueError):
        inject_failures(net, "edge", 3, [(0, 1)], np.random.default_rng(0))
    with pytest.raises(ValueError):
        inject_failures(net, "link", 1, [(0, 1)], np.random.default_rng(0))


def test_generate_requests_fixed_distance():
    net = build_lattice(8, 8)
    rng = np.random.default_rng(11)
    reqs = generate_requests(net, 6, 3, rng)
    assert len(reqs) == 6
    for r in reqs:
        sx, sy = node_xy(r.source, 8)
        tx, ty = node_xy(r.terminal, 8)
        assert abs(sx - tx) == 3 and abs(sy - ty) == 3


def test_generate_requests_impossible_distance():
    net = build_lattice(8, 8)
    with pytest.raises(ValueError):
        generate_requests(net, 1, 8, np.random.default_rng(0))


def test_generate_requests_deterministic():
    net = build_lattice(8, 8)
    a = generate_requests(net, 4, None, np.random.default_rng(5))
    b = generate_requests(net, 4, None, np.random.default_rng(5))
    assert a == b
    assert all(r.source != r.terminal for r in a)


def test_hexagonal_is_degree_three_brick_wall():
    net = build_lattice(6, 6, "hexagonal")
    degree = {n: 0 for n in range(net.node_count)}
    for u, v in net.edges:
        degree[u] += 1
        degree[v] += 1
    assert max(degree.values()) == 3
    # still one connected component
    adj = adjacency(net)
    seen, stack = {0}, [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == net.node_count


def test_triangular_interior_degree_six():
    net = build_lattice(5, 5, "triangular")
    degree = {n: 0 for n in range(net.node_count)}
    for u, v in net.edges:
        degree[u] += 1
        degree[v] += 1
    interior = [node_id(x, y, 5) for x in range(1, 4) for y in range(1, 4)]
    assert all(degree[n] == 6 for n in interior)
