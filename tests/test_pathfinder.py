from dataclasses import replace

import numpy as np
import pytest
from conftest import _lex_shortest as reference_lex_shortest
from conftest import enumerate_loopless_paths, reference_k_shortest_paths

from qroute import pathfinder
from qroute.netmodel import TOPOLOGIES, InvariantError, build_lattice
from qroute.pathfinder import (Path, _spur_path, _walk_down, build_path_info, edge_key,
                               k_shortest_paths, truncate_edge_paths)


def active_lattice(rows, cols, kind="square", dead_edges=()):
    net = build_lattice(rows, cols, kind)
    n = len(net.edges)
    return replace(net, capacity=(50,) * n, fidelity=(0.9,) * n,
                   active=tuple(e not in set(dead_edges) for e in net.edges),
                   phase="purified")


def test_two_by_two_opposite_corners():
    net = active_lattice(2, 2)
    paths = k_shortest_paths(net, 0, 3, 2)
    assert [p.nodes for p in paths] == [(0, 1, 3), (0, 2, 3)]
    assert all(p.length == 2 for p in paths)
    # only two loopless routes exist at all, so asking for more returns two
    assert len(k_shortest_paths(net, 0, 3, 5)) == 2


def test_k1_single_shortest():
    net = active_lattice(3, 3)
    paths = k_shortest_paths(net, 0, 8, 1)
    assert len(paths) == 1
    assert paths[0].rank == 0
    assert paths[0].length == 4


def test_three_by_three_corner_six_monotone_paths():
    # C(4,2) = 6 staircase paths of length 4 between opposite corners
    net = active_lattice(3, 3)
    paths = k_shortest_paths(net, 0, 8, 6)
    assert len(paths) == 6
    assert all(p.length == 4 for p in paths)
    oracle = enumerate_loopless_paths(net, 0, 8)
    assert [p.nodes for p in paths] == [tuple(p) for p in oracle[:6]]


def test_matches_exhaustive_oracle_sample_pairs():
    net = active_lattice(3, 3)
    for s, t in [(0, 8), (1, 7), (2, 6), (3, 5), (0, 5)]:
        oracle = enumerate_loopless_paths(net, s, t)
        for k in (1, 3, 8):
            got = [p.nodes for p in k_shortest_paths(net, s, t, k)]
            assert got == [tuple(p) for p in oracle[:k]]


def test_respects_inactive_edges():
    net = active_lattice(3, 3, dead_edges=[(0, 1)])
    paths = k_shortest_paths(net, 0, 8, 8)
    for p in paths:
        assert (0, 1) not in p.edge_keys()
    oracle = enumerate_loopless_paths(net, 0, 8)
    assert [p.nodes for p in paths] == [tuple(q) for q in oracle[:8]]


def test_disconnected_returns_empty():
    # cut node 0 off completely
    net = active_lattice(2, 2, dead_edges=[(0, 1), (0, 2)])
    assert k_shortest_paths(net, 0, 3, 4) == []


def test_lengths_nondecreasing_and_rank0_is_bfs_distance():
    net = active_lattice(4, 4, dead_edges=[(5, 6), (9, 10)])
    paths = k_shortest_paths(net, 0, 15, 10)
    lengths = [p.length for p in paths]
    assert lengths == sorted(lengths)
    oracle = enumerate_loopless_paths(net, 0, 15)
    assert paths[0].length == len(oracle[0]) - 1


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_prefix_stable_in_k(kind):
    # the j shortest paths are the first j of the k shortest, for every j <= k
    rng = np.random.default_rng(3)
    for _ in range(3):
        net = active_lattice(5, 5, kind)
        net = replace(net, active=tuple(bool(rng.random() > 0.1) for _ in net.edges))
        s, t = (int(n) for n in rng.choice(net.node_count, size=2, replace=False))
        full = k_shortest_paths(net, s, t, 12)
        for j in range(1, 13):
            assert k_shortest_paths(net, s, t, j) == full[:j]


def test_argument_validation():
    net = active_lattice(2, 2)
    with pytest.raises(ValueError):
        k_shortest_paths(net, 0, 3, 0)
    with pytest.raises(ValueError):
        k_shortest_paths(net, 2, 2, 1)


def test_determinism():
    net = active_lattice(4, 4)
    a = k_shortest_paths(net, 0, 15, 9)
    b = k_shortest_paths(net, 0, 15, 9)
    assert a == b


def test_build_path_info_single_path():
    path = Path(0, 0, (0, 1, 2, 5))
    info = build_path_info([path])
    assert set(info) == {(0, 1), (1, 2), (2, 5)}
    assert all(keys == [(0, 0)] for keys in info.values())
    assert info.lengths == {(0, 0): 3}


def test_build_path_info_shared_edge():
    a = Path(0, 0, (0, 1, 2))
    b = Path(1, 0, (3, 1, 2))
    info = build_path_info([a, b])
    assert info[(1, 2)] == [(0, 0), (1, 0)]


def test_build_path_info_empty():
    info = build_path_info([])
    assert info == {}
    assert info.path_edges == {} and info.lengths == {}
    assert info.kept(3) == ({}, frozenset())


def test_path_set_per_path_views():
    net = active_lattice(3, 3)
    paths = (k_shortest_paths(net, 0, 8, 5, request_id=2)
             + k_shortest_paths(net, 2, 6, 5, request_id=0))
    info = build_path_info(paths)
    assert list(info.path_edges) == sorted(p.key for p in paths)
    assert list(info.lengths) == list(info.path_edges)
    for p in paths:
        assert info.path_edges[p.key] == p.edge_keys()
        assert info.lengths[p.key] == p.length
    # H lists each key under exactly the edges its path crosses, in key order
    for e, keys in info.items():
        assert keys == sorted(set(keys))
        assert all(e in info.path_edges[key] for key in keys)
    assert sum(map(len, info.values())) == sum(map(len, info.path_edges.values()))


def test_path_set_kept_matches_per_edge_truncation():
    net = active_lattice(4, 4)
    paths = (k_shortest_paths(net, 0, 15, 10, request_id=0)
             + k_shortest_paths(net, 3, 12, 10, request_id=1))
    info = build_path_info(paths)
    for l_max in (1, 2, 4, 20):
        assert info.kept(l_max) is info.kept(l_max)
        kept, live = info.kept(l_max)
        assert list(kept) == sorted(info)
        for e, keys in info.items():
            assert kept[e] == truncate_edge_paths(keys, info.lengths, l_max)
        assert live == {p.key for p in paths
                        if all(p.key in kept[e] for e in p.edge_keys())}


def random_active_lattice(rng, kind, rows, cols, dead_rate):
    net = active_lattice(rows, cols, kind)
    return replace(net, active=tuple(bool(rng.random() >= dead_rate) for _ in net.edges))


def test_matches_reference_yen_on_random_instances():
    # spur searches that stop at the spur node, next-hop bans and Lawler's
    # restriction give the node sequences of the full-BFS, every-index Yen
    rng = np.random.default_rng(20)
    disconnected = fewer_than_k = 0
    for n in range(2400):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        rows, cols = (int(x) for x in rng.integers(2, 9, size=2))
        net = random_active_lattice(rng, kind, rows, cols, (0.0, 0.1, 0.3)[n // 3 % 3])
        s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
        k = int(rng.integers(1, 31))
        got = k_shortest_paths(net, s, t, k, request_id=n)
        assert got == reference_k_shortest_paths(net, s, t, k, request_id=n), \
            (kind, rows, cols, s, t, k)
        disconnected += not got
        fewer_than_k += 0 < len(got) < k
    assert disconnected > 20 and fewer_than_k > 20


def record_spur_calls(monkeypatch):
    """Wrap pathfinder._spur_path; returns the list of (u, t, banned_nodes,
    banned_next, result) it fills, one entry per call."""
    calls = []
    spur_path = pathfinder._spur_path

    def recorded(adj, u, t, banned_nodes=(), banned_next=()):
        result = spur_path(adj, u, t, banned_nodes, banned_next)
        calls.append((u, t, tuple(banned_nodes), set(banned_next), result))
        return result

    monkeypatch.setattr(pathfinder, "_spur_path", recorded)
    return calls


# 0 - 1 - 2
# |   |   |
# 3 - 4 - 5
SQUARE_2x3 = {0: [1, 3], 1: [0, 2, 4], 2: [1, 5], 3: [0, 4], 4: [1, 3, 5], 5: [2, 4]}


def test_spur_skips_u_found_from_banned_next_hop():
    # From t = 0, u = 2 is first reached at level 2 through banned hop 1; it
    # must be found at level 3 through 5 instead.
    assert _spur_path(SQUARE_2x3, 2, 0, (), {1}) == (2, 5, 4, 1, 0)
    # banning 1 as a node as well leaves the detour through 3
    assert _spur_path(SQUARE_2x3, 2, 0, (1,), {1}) == (2, 5, 4, 3, 0)
    assert _spur_path(SQUARE_2x3, 2, 0) == (2, 1, 0)


def test_spur_banned_edge_to_terminal():
    # u = 1 is a neighbour of t = 0 and the hop 1 -> 0 is banned
    assert _spur_path(SQUARE_2x3, 1, 0, (), {0}) == (1, 4, 3, 0)
    assert _spur_path(SQUARE_2x3, 1, 0, (), {0, 4}) == (1, 2, 5, 4, 3, 0)
    assert _spur_path(SQUARE_2x3, 1, 0, (), {0, 2, 4}) is None
    assert _spur_path(SQUARE_2x3, 1, 0, (3,), {0}) is None


def test_spur_banned_root_nodes_cut_u_off():
    assert _spur_path(SQUARE_2x3, 0, 5, (1, 3)) is None
    assert _spur_path(SQUARE_2x3, 0, 5, (4,), {1}) is None
    assert _spur_path(SQUARE_2x3, 0, 5, (4,)) == (0, 1, 2, 5)


def test_spur_matches_reference_lex_shortest():
    # the reference bans edges (u, x) for x in banned_next
    for u in SQUARE_2x3:
        for t in SQUARE_2x3:
            if u == t:
                continue
            others = [x for x in SQUARE_2x3 if x not in (u, t)]
            for mask in range(1 << len(others)):
                banned = tuple(x for j, x in enumerate(others) if mask >> j & 1)
                for banned_next in ((), tuple(SQUARE_2x3[u][:1]), tuple(SQUARE_2x3[u][1:])):
                    ref = reference_lex_shortest(
                        SQUARE_2x3, u, t, frozenset(banned),
                        frozenset(edge_key(u, x) for x in banned_next))
                    assert _spur_path(SQUARE_2x3, u, t, banned, set(banned_next)) == ref


def test_terminal_is_never_a_spur_node(monkeypatch):
    calls = record_spur_calls(monkeypatch)
    rng = np.random.default_rng(4)
    for kind in TOPOLOGIES:
        for _ in range(10):
            net = random_active_lattice(rng, kind, 4, 5, 0.1)
            s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
            k_shortest_paths(net, s, t, 15)
    assert len(calls) > 500
    for u, t, banned_nodes, banned_next, _ in calls:
        assert u != t and u not in banned_nodes and t not in banned_nodes
        assert u not in banned_next


def test_lawler_skips_spur_that_finds_a_candidate_twice(monkeypatch):
    # s = 0, t = 5 on SQUARE_2x3. Path A = (0, 1, 2, 5) spurs at 0 -> C =
    # (0, 3, 4, 5) and at 1 -> B = (0, 1, 4, 5); B is accepted next. Plain Yen
    # would spur B at index 0 too and find C a second time, from a second
    # parent; B left A at index 1, so it is spurred from index 1 only and C
    # is found once, with A's deviation index.
    net = active_lattice(2, 3)
    assert net.adjacency() == SQUARE_2x3
    calls = record_spur_calls(monkeypatch)
    paths = k_shortest_paths(net, 0, 5, 3)
    assert [p.nodes for p in paths] == [(0, 1, 2, 5), (0, 1, 4, 5), (0, 3, 4, 5)]
    assert [(u, nodes, next_) for u, _, nodes, next_, _ in calls] == [
        (0, (), set()),                                  # first path A
        (0, (), {1}), (1, (0,), {2}), (2, (0, 1), {5}),  # A at 0, 1, 2
        (1, (0,), {2, 4}), (4, (0, 1), {5}),             # B at 1, 2
    ]
    candidates = [nodes + result for _, _, nodes, _, result in calls if result]
    assert len(candidates) == len(set(candidates)) == 3
    # the skipped spur, B at index 0, would have found C again
    assert _spur_path(SQUARE_2x3, 0, 5, (), {1}) == (0, 3, 4, 5)


def test_candidates_are_found_once(monkeypatch):
    calls = record_spur_calls(monkeypatch)
    rng = np.random.default_rng(6)
    for kind in TOPOLOGIES:
        for _ in range(10):
            net = random_active_lattice(rng, kind, 5, 5, 0.1)
            s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
            calls.clear()
            paths = k_shortest_paths(net, s, t, 20)
            candidates = [nodes + result for _, _, nodes, _, result in calls if result]
            assert len(candidates) == len(set(candidates))
            assert {p.nodes for p in paths} <= set(candidates)


def test_walk_without_closer_neighbour_raises_invariant_error():
    # an explicit check, so it also holds under python -O
    dist = {0: 0, 1: 5}  # 1 should be at distance 1
    with pytest.raises(InvariantError, match="no neighbor of node 2 at distance 1"):
        _walk_down(SQUARE_2x3, 2, 2, dist, ())
    # adjacency that is not symmetric: BFS reaches 1 from 0, but 1 does not
    # list 0, so the walk from u = 2 stalls at 1
    broken = {0: [1], 1: [2], 2: [1]}
    with pytest.raises(InvariantError, match="no neighbor of node 1 at distance 0"):
        _spur_path(broken, 2, 0)
