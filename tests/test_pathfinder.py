import pathlib
import pickle
from collections import Counter
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest
from conftest import _lex_shortest as reference_lex_shortest
from conftest import (abstract_network, adjacency, assert_kept_views, edge_keys,
                      enumerate_loopless_paths, info_from_path_edges,
                      reference_k_shortest_paths, yen_spurs)

from qroute import harness, pathfinder
from qroute.config import load_config
from qroute.netmodel import TOPOLOGIES, EdgeMasks, InvariantError, build_lattice
from qroute.pathfinder import (_shortest_paths, _spur_search, build_path_info,
                               k_shortest_paths)
from qroute.scheduler import RoutingParams, compute_f_min, run_algorithm


def active_lattice(rows, cols, kind="square", dead_edges=()):
    net = build_lattice(rows, cols, kind)
    n = len(net.edges)
    return replace(net, capacity=(50,) * n, fidelity=(0.9,) * n,
                   active=tuple(e not in set(dead_edges) for e in net.edges),
                   phase="purified")


def test_two_by_two_opposite_corners():
    net = active_lattice(2, 2)
    assert k_shortest_paths(net, 0, 3, 2) == [(0, 1, 3), (0, 2, 3)]
    # only two loopless routes exist at all, so asking for more returns two
    assert len(k_shortest_paths(net, 0, 3, 5)) == 2


def test_k1_single_shortest():
    net = active_lattice(3, 3)
    paths = k_shortest_paths(net, 0, 8, 1)
    assert len(paths) == 1
    assert len(paths[0]) - 1 == 4


def test_three_by_three_corner_six_monotone_paths():
    # C(4,2) = 6 staircase paths of length 4 between opposite corners
    net = active_lattice(3, 3)
    paths = k_shortest_paths(net, 0, 8, 6)
    assert len(paths) == 6
    assert all(len(p) - 1 == 4 for p in paths)
    oracle = enumerate_loopless_paths(net, 0, 8)
    assert paths == [tuple(p) for p in oracle[:6]]


def test_matches_exhaustive_oracle_sample_pairs():
    net = active_lattice(3, 3)
    for s, t in [(0, 8), (1, 7), (2, 6), (3, 5), (0, 5)]:
        oracle = enumerate_loopless_paths(net, s, t)
        for k in (1, 3, 8):
            assert k_shortest_paths(net, s, t, k) == [tuple(p) for p in oracle[:k]]


def test_respects_inactive_edges():
    net = active_lattice(3, 3, dead_edges=[(0, 1)])
    paths = k_shortest_paths(net, 0, 8, 8)
    for p in paths:
        assert (0, 1) not in edge_keys(p)
    oracle = enumerate_loopless_paths(net, 0, 8)
    assert paths == [tuple(q) for q in oracle[:8]]


def test_disconnected_returns_empty():
    # cut node 0 off completely
    net = active_lattice(2, 2, dead_edges=[(0, 1), (0, 2)])
    assert k_shortest_paths(net, 0, 3, 4) == []


def test_lengths_nondecreasing_and_rank0_is_bfs_distance():
    net = active_lattice(4, 4, dead_edges=[(5, 6), (9, 10)])
    paths = k_shortest_paths(net, 0, 15, 10)
    lengths = [len(p) - 1 for p in paths]
    assert lengths == sorted(lengths)
    oracle = enumerate_loopless_paths(net, 0, 15)
    assert lengths[0] == len(oracle[0]) - 1


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


@pytest.mark.parametrize("s, t, node", [(0, 9, 9), (9, 0, 9), (-1, 4, -1), (0, -2, -2)])
def test_out_of_range_node_is_rejected(s, t, node):
    # neither a silent [] nor a bare IndexError or shift error
    with pytest.raises(ValueError, match=rf"node {node} is not on the 3x3 lattice"):
        k_shortest_paths(active_lattice(3, 3), s, t, 2)


def test_determinism():
    net = active_lattice(4, 4)
    a = k_shortest_paths(net, 0, 15, 9)
    b = k_shortest_paths(net, 0, 15, 9)
    assert a == b


def test_build_path_info_single_path():
    info = build_path_info(active_lattice(2, 3), {0: [(0, 1, 2, 5)]}, 10)
    assert info.edges == ((0, 1), (1, 2), (2, 5))
    assert info.values() == [[0], [0], [0]]
    assert info.keys == ((0, 0),) and info.lengths == [3]
    assert info.edge_ids == [(0, 1, 2)]


def test_build_path_info_shared_edge():
    # a hand-built network with the three edges; no lattice holds (1, 2) and (1, 3)
    net = abstract_network({(0, 1): 5, (1, 2): 5, (1, 3): 5})
    info = build_path_info(net, {1: [(3, 1, 2)], 0: [(0, 1, 2)]}, 10)
    assert info.keys == ((0, 0), (1, 0))
    assert info.values()[info.edges.index((1, 2))] == [0, 1]


def test_build_path_info_empty():
    info = build_path_info(active_lattice(2, 2), {}, 3)
    assert info.values() == [] and info.edges == () and info.keys == ()
    # a request without paths adds no key
    assert build_path_info(active_lattice(2, 2), {0: [], 1: []}, 3) == info
    assert info.path_edges == {} and info.lengths == []
    assert info.kept(3) == ([], [], [], [], [])
    assert info == info_from_path_edges({}, {})


def test_path_set_per_path_views():
    net = active_lattice(3, 3)
    paths = {2: k_shortest_paths(net, 0, 8, 5), 0: k_shortest_paths(net, 2, 6, 5)}
    info = build_path_info(net, paths, 5)
    by_key = {(r, rank): nodes for r, routes in paths.items() for rank, nodes in enumerate(routes)}
    assert list(info.keys) == sorted(by_key)
    assert list(info.path_edges) == list(info.keys)
    assert list(info.edges) == sorted({e for p in by_key.values() for e in edge_keys(p)})
    for key, p in by_key.items():
        i = info.keys.index(key)
        assert info.path_edges[key] == edge_keys(p)
        assert tuple(info.edges[e] for e in info.edge_ids[i]) == edge_keys(p)
        assert info.lengths[i] == len(p) - 1
    # H lists each path id under exactly the edges its path crosses, ascending
    for e, ids in enumerate(info.values()):
        assert ids == sorted(set(ids))
        assert all(e in info.edge_ids[p] for p in ids)
    assert sum(map(len, info.values())) == sum(map(len, info.edge_ids))
    assert info == build_path_info(net, dict(reversed(paths.items())), 2)
    # the keyed form is not stored but rebuilt from the ids, into an equal PathSet
    assert "path_edges" not in vars(info)
    path_edges, lengths = info.path_edges, dict(zip(info.keys, info.lengths))
    assert info_from_path_edges(path_edges, lengths) == info
    key = (2, 0)
    assert info_from_path_edges({**path_edges, key: path_edges[key][::-1]}, lengths) != info
    assert info_from_path_edges(path_edges, {**lengths, key: lengths[key] + 1}) != info


def test_path_set_kept_matches_per_edge_truncation():
    net = active_lattice(4, 4)
    paths = {0: k_shortest_paths(net, 0, 15, 10), 1: k_shortest_paths(net, 3, 12, 10)}
    info = build_path_info(net, paths, 1)
    for l_max in (1, 2, 4, 20):
        assert info.kept(l_max) is info.kept(l_max)
        assert_kept_views(info, l_max)
        # given l_max, build_path_info builds this view before it returns
        assert l_max in build_path_info(net, paths, l_max)._kept
    # release_views drops H and the views; both come back equal from edge_ids
    incidence, views = info.values(), info.kept(2)
    info.release_views()
    assert info._incidence is None and not info._kept
    assert info.kept(2) == views and info.values() == incidence


def route(net, info, l_max=2):
    """PS and PU on ``info`` at ``l_max``; each leaves its plan there if
    ``info`` keeps plans."""
    params = RoutingParams(l_max=l_max, f_min=compute_f_min(net, l_max))
    for name in ("PS", "PU"):
        run_algorithm(name, net, info, params)


def test_build_path_info_memo_keeps_the_last_two(monkeypatch):
    monkeypatch.setattr(pathfinder, "_memo", {})
    net = active_lattice(4, 4)
    ranked = k_shortest_paths(net, 0, 15, 4)

    def build(k, l_max=2):
        return build_path_info(net, {0: ranked[:k]}, l_max)

    first, second = build(1), build(2)
    # a PathSet keeps plans once the memo hands it out again
    route(net, first)
    assert first._plans is None
    assert build(1) is first and build(2) is second
    route(net, first)
    route(net, second)
    assert len(first._plans) == len(second._plans) == 2
    third = build(3)
    assert build(3) is third
    route(net, third)
    # the third distinct build evicts the first, which drops its views and
    # plans but stays a whole PathSet
    assert first._kept == {} and first._incidence is None and first._capacities is None
    assert first._plans is None
    assert all(info._kept and info._incidence is not None and len(info._plans) == 2
               for info in (second, third))
    # equal paths give the same object back, with its views, and a hit at
    # another l_max adds that view
    assert build(2) is second and build(3, 1) is third and third._kept.keys() == {1, 2}
    rebuilt = build(1)
    assert rebuilt is not first and rebuilt == first
    # the hits made ``third`` the more recently used, so ``second`` went
    assert second._incidence is None and second._plans is None and build(3) is third
    # the same paths on another lattice's edges are another PathSet
    assert build_path_info(active_lattice(4, 5), {0: [(0, 1)]}, 2) \
        is not build_path_info(net, {0: [(0, 1)]}, 2)


def test_path_set_pickles_without_views():
    net = active_lattice(4, 4)
    info = build_path_info(net, {0: k_shortest_paths(net, 0, 15, 4)}, 2)
    info.keep_plans()
    route(net, info)
    copy = pickle.loads(pickle.dumps(info))
    assert copy == info and copy.path_edges == info.path_edges
    assert (copy._incidence, copy._kept, copy._capacities, copy._plans) == (None, {}, None, None)
    # the original keeps its views and plans, and the copy builds equal ones
    assert info._kept and info._incidence is not None and info._capacities is not None
    assert len(info._plans) == 2
    assert copy.kept(2) == info.kept(2) and copy.capacities(net) == info.capacities(net)
    assert len(pickle.dumps(info)) == len(pickle.dumps(copy))


def random_active_lattice(rng, kind, rows, cols, dead_rate):
    net = active_lattice(rows, cols, kind)
    return replace(net, active=tuple(bool(rng.random() >= dead_rate) for _ in net.edges))


def random_instances():
    """(n, net, s, t, k) for 2400 small lattices of all three kinds, a third
    each with no, 10% and 30% of the edges dead, and k from 1 to 30."""
    rng = np.random.default_rng(20)
    for n in range(2400):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        rows, cols = (int(x) for x in rng.integers(2, 9, size=2))
        net = random_active_lattice(rng, kind, rows, cols, (0.0, 0.1, 0.3)[n // 3 % 3])
        s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
        yield n, net, s, t, int(rng.integers(1, 31))


def test_matches_reference_yen_on_random_instances():
    # spur searches that stop at the spur node, next-hop bans and Lawler's
    # restriction give the node sequences of the full-BFS, every-index Yen
    disconnected = fewer_than_k = 0
    for n, net, s, t, k in random_instances():
        got = k_shortest_paths(net, s, t, k)
        assert got == reference_k_shortest_paths(net, s, t, k), \
            (net.kind, net.rows, net.cols, s, t, k)
        disconnected += not got
        fewer_than_k += 0 < len(got) < k
    assert disconnected > 20 and fewer_than_k > 20


def components(adj):
    seen, out = set(), []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        comp, stack = [root], [root]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        out.append(sorted(comp))
    return out


def benchmark_sized_instances():
    """(n, net, s, t, k) for 90 lattices of the benchmark's sizes, where the
    bitsets span many digits and spur searches many BFS levels. Every other
    pair on the sparsest lattices lies in one small component (4-30 nodes),
    which has fewer than k paths more often than not."""
    rng = np.random.default_rng(21)
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        rows, cols = (int(x) for x in rng.integers(12, 25, size=2))
        dead_rate = (0.0, 0.1, 0.3)[n // 3 % 3]
        net = random_active_lattice(rng, kind, rows, cols, dead_rate)
        small = [c for c in components(adjacency(net)) if 4 <= len(c) <= 30]
        pool = small[int(rng.integers(len(small)))] if small and n % 2 else range(net.node_count)
        s, t = (int(x) for x in rng.choice(pool, size=2, replace=False))
        yield n, net, s, t, int(rng.integers(1, 31))


def test_matches_reference_yen_on_benchmark_sized_lattices():
    disconnected = fewer_than_k = 0
    for n, net, s, t, k in benchmark_sized_instances():
        got = k_shortest_paths(net, s, t, k)
        assert got == reference_k_shortest_paths(net, s, t, k), \
            (net.kind, net.rows, net.cols, s, t, k)
        disconnected += not got
        fewer_than_k += 0 < len(got) < k
    assert disconnected >= 3 and fewer_than_k >= 3


def bits(nodes):
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


def nodes_of(mask):
    return tuple(n for n in range(mask.bit_length()) if mask >> n & 1)


def record_spur_calls(monkeypatch):
    """Wrap pathfinder._spur_search, which runs one spur search of Yen;
    returns the list of (u, t, banned_nodes, banned_next, result) it fills,
    one entry per search: ``banned_nodes`` is the root without u, in path
    order, and ``result`` the u-t part of the path found, or None. Checks
    that the banned mask is exactly the root without u and that the path
    starts with the root."""
    calls = []
    spur_search = pathfinder._spur_search

    def recorded(masks, root, t, banned, banned_next):
        cand = spur_search(masks, root, t, banned, banned_next)
        assert banned == bits(root[:-1])
        assert cand is None or cand[:len(root)] == root
        result = None if cand is None else cand[len(root) - 1:]
        calls.append((root[-1], t, root[:-1], set(nodes_of(banned_next)), result))
        return cand

    monkeypatch.setattr(pathfinder, "_spur_search", recorded)
    return calls


def visited_spurs(calls, paths, k):
    """The spurs, (root, banned next hops), that Yen visited to return
    ``paths`` for this k; checks that each spur search in ``calls``, those
    of that one call, ran at one of them with its masks, at most once."""
    visited = yen_spurs(paths, k)
    searched = Counter(((*nodes, u), frozenset(next_)) for u, _, nodes, next_, _ in calls)
    assert searched <= Counter(visited)
    return visited


# 0 - 1 - 2
# |   |   |
# 3 - 4 - 5
SQUARE_2x3 = {0: [1, 3], 1: [0, 2, 4], 2: [1, 5], 3: [0, 4], 4: [1, 3, 5], 5: [2, 4]}
SQUARE_2x3_MASKS = active_lattice(2, 3).edge_masks()


def spur(u, t, banned_nodes=(), banned_next=()):
    """The spur search on SQUARE_2x3 from u with the root ``(*banned_nodes,
    u)``; returns the u-t part of the path found, or None."""
    root = (*banned_nodes, u)
    cand = _spur_search(SQUARE_2x3_MASKS, root, t, bits(banned_nodes), bits(banned_next))
    return None if cand is None else cand[len(banned_nodes):]


def test_spur_skips_u_found_from_banned_next_hop():
    # From t = 0, u = 2 is first reached at level 2 through banned hop 1; it
    # must be found at level 3 through 5 instead.
    assert spur(2, 0, (), {1}) == (2, 5, 4, 1, 0)
    # banning 1 as a node as well leaves the detour through 3
    assert spur(2, 0, (1,), {1}) == (2, 5, 4, 3, 0)
    assert spur(2, 0) == (2, 1, 0)


def test_spur_banned_edge_to_terminal():
    # u = 1 is a neighbour of t = 0 and the hop 1 -> 0 is banned
    assert spur(1, 0, (), {0}) == (1, 4, 3, 0)
    assert spur(1, 0, (), {0, 4}) == (1, 2, 5, 4, 3, 0)
    assert spur(1, 0, (), {0, 2, 4}) is None
    assert spur(1, 0, (3,), {0}) is None


def test_spur_banned_root_nodes_cut_u_off():
    assert spur(0, 5, (1, 3)) is None
    assert spur(0, 5, (4,), {1}) is None
    assert spur(0, 5, (4,)) == (0, 1, 2, 5)


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
                        frozenset(edge_keys((u, x))[0] for x in banned_next))
                    assert spur(u, t, banned, set(banned_next)) == ref


def with_row_path(net, s, t):
    """``net`` with the row segment from s to t's column revived, and the
    node there (one column over when t shares s's column). The segment is
    then the only shortest path between them on every lattice kind, so the
    shortest-path DAG holds one path and Yen runs."""
    y, sx, tx = s // net.cols, s % net.cols, t % net.cols
    if tx == sx:
        tx = (sx + 1) % net.cols
    t = y * net.cols + tx
    lo, hi = sorted((s, t))
    row = {(n, n + 1) for n in range(lo, hi)}
    return replace(net, active=tuple(on or e in row for e, on in zip(net.edges, net.active))), t


def test_spur_matches_reference_lex_shortest_on_yen_calls(monkeypatch):
    # every spur search of Yen runs on benchmark-sized lattices, replayed
    # through the reference BFS, which bans the edges (u, x) for x in banned_next
    calls = record_spur_calls(monkeypatch)
    rng = np.random.default_rng(22)
    replayed = 0
    for n in range(81):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        net = random_active_lattice(rng, kind, 16, 16, (0.0, 0.1, 0.3)[n // 3 % 3])
        s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
        net, t = with_row_path(net, s, t)
        calls.clear()
        paths = k_shortest_paths(net, s, t, 10)
        assert visited_spurs(calls, paths, 10)
        adj = adjacency(net)
        for u, t_, banned_nodes, banned_next, result in calls:
            assert reference_lex_shortest(
                adj, u, t_, frozenset(banned_nodes),
                frozenset(edge_keys((u, x))[0] for x in banned_next)) == result
        replayed += len(calls)
    assert replayed > 1000


def test_terminal_is_never_a_spur_node(monkeypatch):
    calls = record_spur_calls(monkeypatch)
    rng = np.random.default_rng(4)
    for kind in TOPOLOGIES:
        for _ in range(15):
            net = random_active_lattice(rng, kind, 4, 5, 0.1)
            s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
            start = len(calls)
            paths = k_shortest_paths(net, s, t, 15)
            # fewer than k shortest paths, so Yen ran (unless s and t are cut off)
            assert visited_spurs(calls[start:], paths, 15) or not paths
    assert len(calls) > 500
    for u, t, banned_nodes, banned_next, _ in calls:
        assert u != t and u not in banned_nodes and t not in banned_nodes
        assert u not in banned_next


def test_lawler_skips_spur_that_finds_a_candidate_twice(monkeypatch):
    # s = 0, t = 5 on SQUARE_2x3, k = 4: the shortest-path DAG holds the three
    # paths of length 3, so Yen runs from the first, A = (0, 1, 2, 5). A spur
    # at index 0 finds C = (0, 3, 4, 5), one at 1 finds B = (0, 1, 4, 5), and
    # B is accepted next. Plain Yen would spur B at index 0 too and find C a
    # second time, from a second parent; B left A at index 1, so it is
    # spurred from index 1 only and C is found once, with A's deviation
    # index. C, spurred from 0, finds D = (0, 3, 4, 1, 2, 5) at index 2.
    #
    # Searches are deferred. Nodes 2 and 4 are 1 hop from t, 1 and 3 are 2,
    # and 0 is 3. A at 0 (first hop 3) and at 1 (first hop 4) have the bound
    # 3, A's length; A at 2 has no first hop (1 is banned, 5 is A's).
    # (3, (0,)) is on top: its search finds C; (3, (0, 1)) then sorts below
    # (3, C): its search finds B, on top, accepted. B at 1 has no first hop
    # (2 and 4 are A's and B's); B at 2 (first hop 3) has the bound
    # 2 + 1 + 2 = 5. C is on top, accepted. C at 0 and 1 have no first hop;
    # C at 2 (first hop 1) has the bound 5 too.
    # B's entry sorts first and finds nothing, as 3 leads only to the banned
    # 0; C's finds D, the fourth path, and no other spur is searched.
    net = active_lattice(2, 3)
    assert adjacency(net) == SQUARE_2x3
    calls = record_spur_calls(monkeypatch)
    paths = k_shortest_paths(net, 0, 5, 4)
    assert paths == [(0, 1, 2, 5), (0, 1, 4, 5), (0, 3, 4, 5), (0, 3, 4, 1, 2, 5)]
    assert calls == [
        (0, 5, (), {1}, (0, 3, 4, 5)),            # A at 0, finds C
        (1, 5, (0,), {2}, (1, 4, 5)),             # A at 1, finds B
        (4, 5, (0, 1), {5}, None),                # B at 2
        (4, 5, (0, 3), {5}, (4, 1, 2, 5)),        # C at 2, finds D
    ]
    visited = yen_spurs(paths, 4)
    assert visited == [
        ((0,), {1}), ((0, 1), {2}), ((0, 1, 2), {5}),       # A at 0, 1, 2
        ((0, 1), {2, 4}), ((0, 1, 4), {5}),                 # B at 1, 2
        ((0,), {1, 3}), ((0, 3), {4}), ((0, 3, 4), {5}),    # C at 0, 1, 2
    ]
    # the spurs never searched, A at 2, B at 1 and C at 0 and 1, have no
    # allowed first hop and would have found nothing
    searched = [((*nodes, u), next_) for u, _, nodes, next_, _ in calls]
    never = [spur_ for spur_ in visited if spur_ not in searched]
    assert never == [((0, 1, 2), {5}), ((0, 1), {2, 4}), ((0,), {1, 3}), ((0, 3), {4})]
    assert all(spur(root[-1], 5, root[:-1], next_) is None for root, next_ in never)
    # the skipped spur, B at index 0, would have found C again
    assert spur(0, 5, (), {1}) == (0, 3, 4, 5)


def test_candidates_are_found_once(monkeypatch):
    calls = record_spur_calls(monkeypatch)
    rng = np.random.default_rng(6)
    searches = 0
    for kind in TOPOLOGIES:
        for _ in range(10):
            net = random_active_lattice(rng, kind, 5, 5, 0.1)
            s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
            calls.clear()
            paths = k_shortest_paths(net, s, t, 20)
            # fewer than k shortest paths, so Yen ran (unless s and t are cut off)
            assert visited_spurs(calls, paths, 20) or not paths
            searches += len(calls)
            candidates = [nodes + result for _, _, nodes, _, result in calls if result]
            assert len(candidates) == len(set(candidates))
            # the first path is the DAG's, and every later one a spur search's
            assert set(paths[1:]) <= set(candidates)
    assert searches > 0


def test_shortest_path_dag_with_k_minus_1_k_and_k_plus_1_paths(monkeypatch):
    # with m shortest s-t paths, k = m + 1, m and m - 1 give a DAG that holds
    # k - 1, k and k + 1 of them. The DAG's own prefix answers k <= m with no
    # spur index visited; k = m + 1 needs Yen, and a spur search for its one
    # longer path.
    calls = record_spur_calls(monkeypatch)
    for rows, cols, kind, s, t, dead_edges in [
            (3, 3, "square", 0, 8, ()), (3, 4, "square", 1, 10, [(5, 6)]),
            (3, 4, "hexagonal", 0, 11, ()), (4, 4, "hexagonal", 3, 12, [(5, 9)]),
            (3, 3, "triangular", 2, 6, ()), (3, 4, "triangular", 3, 8, [(4, 5)])]:
        net = active_lattice(rows, cols, kind, dead_edges)
        oracle = [tuple(p) for p in enumerate_loopless_paths(net, s, t)]
        m = sum(len(p) == len(oracle[0]) for p in oracle)
        assert 2 <= m < len(oracle)
        for k in (m + 1, m, m - 1):
            calls.clear()
            paths = k_shortest_paths(net, s, t, k)
            assert paths == oracle[:k]
            assert paths == reference_k_shortest_paths(net, s, t, k)
            visited = visited_spurs(calls, paths, k)
            assert (visited and calls) if k > m else not visited and not calls


def test_spur_searches_are_deferred(monkeypatch):
    # on the instances of both reference tests above, Yen returns the
    # reference paths while it searches a spur only once its entry reaches
    # the top of the heap: never more searches than spurs visited, and over
    # all instances fewer than the visited spurs whose search finds a path,
    # all of which eager Yen searches
    calls = record_spur_calls(monkeypatch)
    searched = finding = 0
    for n, net, s, t, k in chain(random_instances(), benchmark_sized_instances()):
        calls.clear()
        got = k_shortest_paths(net, s, t, k)
        assert got == reference_k_shortest_paths(net, s, t, k), \
            (net.kind, net.rows, net.cols, s, t, k)
        visited = visited_spurs(calls, got, k)
        assert len(calls) <= len(visited)
        searched += len(calls)
        masks = net.edge_masks()
        finding += sum(_spur_search(masks, root, t, bits(root[:-1]), bits(next_)) is not None
                       for root, next_ in visited)
    assert searched < finding


def test_one_bfs_from_t_per_call(monkeypatch):
    # on the large_lattice benchmark windows (seeds 3-42), the DAG walk and
    # the spur bounds of one k_shortest_paths call read one BFS from t, so no
    # frontier is expanded twice outside the spur searches, which run their
    # own BFS with banned nodes
    config = load_config(str(pathlib.Path(__file__).resolve().parent.parent
                             / "winbench" / "configs" / "large_lattice.yml"))
    reached, spur_search = pathfinder._reached, pathfinder._spur_search
    ksp = harness.k_shortest_paths
    frontiers = []
    in_spur = False
    calls = searches = 0

    def recorded_reached(offsets, frontier):
        if not in_spur:
            frontiers.append(frontier)
        return reached(offsets, frontier)

    def recorded_spur_search(*args):
        nonlocal in_spur, searches
        in_spur, searches = True, searches + 1
        try:
            return spur_search(*args)
        finally:
            in_spur = False

    def recorded_ksp(*args, **kwargs):
        nonlocal calls
        frontiers.clear()
        paths = ksp(*args, **kwargs)
        calls += 1
        assert len(frontiers) == len(set(frontiers)), f"a level repeats in call {calls}"
        return paths

    monkeypatch.setattr(pathfinder, "_reached", recorded_reached)
    monkeypatch.setattr(pathfinder, "_spur_search", recorded_spur_search)
    monkeypatch.setattr(harness, "k_shortest_paths", recorded_ksp)
    for seed in range(3, 43):
        harness.prepare_trial(config, seed)
    # 12 requests per window, and Yen ran on some of them
    assert calls == 40 * 12 and searches > 0


def spy_searches(monkeypatch):
    """The (s, t, k) of every search ``k_shortest_paths`` runs, in order."""
    searches = []
    yen = pathfinder._yen

    def recorded_yen(masks, s, t, k):
        searches.append((s, t, k))
        return yen(masks, s, t, k)

    monkeypatch.setattr(pathfinder, "_yen", recorded_yen)
    return searches


def test_lattice_paths_answer_g_prime_exactly_when_their_edges_stay_active(monkeypatch):
    # small lattices of all three kinds: a call on the all-active network
    # stores the lattice's k smallest paths with the edges they cross. On a
    # random active subset, a call returns them with no search when it keeps
    # all those edges, whatever it dropped elsewhere, and searches when it
    # lost one; both give the reference Yen's paths. A network with an
    # inactive edge never stores an answer.
    searches = spy_searches(monkeypatch)
    rng = np.random.default_rng(23)
    reused = searched = 0
    for n in range(240):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        rows, cols = (int(x) for x in rng.integers(2, 6, size=2))
        full = active_lattice(rows, cols, kind)
        s, t = (int(x) for x in rng.choice(full.node_count, size=2, replace=False))
        k = int(rng.integers(1, 16))
        cache = full.lattice().paths
        cache.clear()
        searches.clear()
        lattice_paths = k_shortest_paths(full, s, t, k)
        assert searches == [(s, t, k)] and lattice_paths == reference_k_shortest_paths(full, s, t, k)
        crossed = {full.edges.index(e) for p in lattice_paths for e in edge_keys(p)}
        assert cache == {(s, t, k): (tuple(sorted(crossed)), tuple(lattice_paths))}
        # the answer is a new list each time
        lattice_paths.clear()
        assert k_shortest_paths(full, s, t, k) == reference_k_shortest_paths(full, s, t, k)
        off_path = [j for j in range(len(full.edges)) if j not in crossed]
        for mode in ("off path", "on path", "random"):
            if mode == "off path" and off_path:
                dead = {j for j in off_path if rng.random() < 0.4} or {off_path[0]}
            elif mode == "on path" and crossed:
                dead = {sorted(crossed)[int(rng.integers(len(crossed)))]}
                dead |= {j for j in range(len(full.edges)) if rng.random() < 0.2}
            else:
                dead = {j for j in range(len(full.edges)) if rng.random() < 0.2} or {0}
            net = replace(full, active=tuple(j not in dead for j in range(len(full.edges))))
            stored = dict(cache)
            searches.clear()
            got = k_shortest_paths(net, s, t, k)
            assert got == reference_k_shortest_paths(net, s, t, k), (kind, rows, cols, s, t, k)
            lost = bool(dead & crossed)
            assert searches == ([(s, t, k)] if lost else []), (mode, kind, rows, cols, s, t, k)
            reused += not lost
            searched += lost
            # another key on the damaged network: a search, and nothing stored
            searches.clear()
            assert k_shortest_paths(net, t, s, k) == reference_k_shortest_paths(net, t, s, k)
            assert searches == [(t, s, k)] and cache == stored
    assert reused > 150 and searched > 150


def test_lattice_paths_stay_within_their_bound(monkeypatch):
    # 200 random (s, t) pairs on one all-active lattice: each stores its
    # answer, and the lattice keeps the last _LATTICE_PATHS_SIZE keys stored
    searches = spy_searches(monkeypatch)
    net = active_lattice(5, 5, "triangular")
    cache = net.lattice().paths
    rng = np.random.default_rng(24)
    stored = []
    for _ in range(200):
        s, t = (int(x) for x in rng.choice(net.node_count, size=2, replace=False))
        searches.clear()
        assert k_shortest_paths(net, s, t, 3) == reference_k_shortest_paths(net, s, t, 3)
        if searches:
            stored.append((s, t, 3))
        assert len(cache) <= pathfinder._LATTICE_PATHS_SIZE
        assert list(cache) == stored[-pathfinder._LATTICE_PATHS_SIZE:]
    assert len(stored) > pathfinder._LATTICE_PATHS_SIZE


def test_walk_without_closer_neighbour_raises_invariant_error(monkeypatch):
    # an explicit check, so it also holds under python -O. Masks whose
    # neighbour bits disagree with the offset masks: BFS from t = 0 reaches
    # every node along the offset-1 edges, but the broken node does not list
    # its neighbour one level closer, so the walk from u stalls there.
    path4 = (0b111, (0b0010, 0b0101, 0b1010, 0b0100))  # 0 - 1 - 2 - 3
    broken = EdgeMasks(((1, path4[0]),), path4[1][:2] + (0b1000,) + path4[1][3:])
    with pytest.raises(InvariantError, match="no neighbor of node 2 at distance 1"):
        next(_shortest_paths(broken, [1 << 0], 3, 0))
    with pytest.raises(InvariantError, match="no neighbor of node 2 at distance 1"):
        _spur_search(broken, (3,), 0, 0, 0)
    # 0 - 1 - 2 where 1 does not list 0
    broken = EdgeMasks(((1, 0b011),), (0b010, 0b100, 0b010))
    with pytest.raises(InvariantError, match="no neighbor of node 1 at distance 0"):
        next(_shortest_paths(broken, [1 << 0], 2, 0))
    # the 2x2 square 0 - 1 - 3 - 2 - 0 where 3 does not list 1, through
    # k_shortest_paths: the DAG from s = 0 to t = 1 is their edge alone, so
    # k = 2 runs Yen, whose spur at 0 walks round through 2 and stalls at 3
    net = active_lattice(2, 2)
    offsets, neighbours = net.edge_masks()
    broken = EdgeMasks(offsets, neighbours[:3] + (0b0100,))
    monkeypatch.setattr(type(net), "edge_masks", lambda self: broken)
    with pytest.raises(InvariantError, match="spur walk found no neighbor of node 3 at distance 0"):
        k_shortest_paths(net, 0, 1, 2)
