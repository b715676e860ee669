import numpy as np
import pytest
from conftest import enumerate_loopless_paths

from qroute.netmodel import TOPOLOGIES, build_lattice
from qroute.pathfinder import (Path, build_path_info, k_shortest_paths,
                               truncate_edge_paths)


def active_lattice(rows, cols, kind="square", dead_edges=()):
    net = build_lattice(rows, cols, kind)
    for e in net.edges:
        e.capacity = 50
        e.fidelity = 0.9
        e.active = e.key not in set(dead_edges)
    net.phase = "purified"
    return net


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
        for e in net.edges:
            e.active = bool(rng.random() > 0.1)
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
    orders = sorted(h.edge_order for entries in info.values() for h in entries)
    assert orders == [0, 1, 2]
    for entries in info.values():
        (h,) = entries
        assert h.request_id == 0 and h.path_rank == 0 and h.path_length == 3


def test_build_path_info_shared_edge():
    a = Path(0, 0, (0, 1, 2))
    b = Path(1, 0, (3, 1, 2))
    info = build_path_info([a, b])
    assert len(info[(1, 2)]) == 2
    assert {h.key for h in info[(1, 2)]} == {(0, 0), (1, 0)}


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
    for e, entries in info.items():
        for h in entries:
            assert info.path_edges[h.key][h.edge_order] == e


def test_path_set_kept_matches_per_edge_truncation():
    net = active_lattice(4, 4)
    paths = (k_shortest_paths(net, 0, 15, 10, request_id=0)
             + k_shortest_paths(net, 3, 12, 10, request_id=1))
    info = build_path_info(paths)
    for l_max in (1, 2, 4, 20):
        assert info.kept(l_max) is info.kept(l_max)
        kept, live = info.kept(l_max)
        assert list(kept) == sorted(info)
        for e, entries in info.items():
            assert kept[e] == truncate_edge_paths(entries, l_max)
        assert live == {p.key for p in paths
                        if all(p.key in {h.key for h in kept[e]} for e in p.edge_keys())}
