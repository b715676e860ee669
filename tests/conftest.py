"""Shared test helpers: independent oracles and instance generators."""
from qroute.netmodel import EdgeState, Network
from qroute.pathfinder import PathSet


def abstract_network(capacity):
    """Network over disjoint abstract edges keyed by the given capacity map."""
    edges = [EdgeState(u, v, capacity[(u, v)], 0.9, True) for (u, v) in sorted(capacity)]
    return Network(1, 2 * len(edges), "square", edges, "purified")


def info_from_path_edges(path_edges, lengths=None):
    """Path set for abstract instances (length defaults to edge count)."""
    return PathSet(path_edges, {key: (lengths or {}).get(key, len(edges))
                                for key, edges in path_edges.items()})


def random_fill_instance(rng, max_paths=4, max_edges=6, max_cap=12):
    """Random abstract allocation instance: disjoint edges, paths as edge subsets."""
    n_edges = int(rng.integers(1, max_edges + 1))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    capacity = {e: int(rng.integers(1, max_cap + 1)) for e in edges}
    n_paths = int(rng.integers(1, max_paths + 1))
    path_edges = {}
    for p in range(n_paths):
        count = int(rng.integers(1, n_edges + 1))
        picks = rng.choice(n_edges, size=count, replace=False)
        path_edges[(p, 0)] = tuple(edges[i] for i in sorted(picks))
    return path_edges, capacity


def assert_integer_max_min(path_edges, capacity, flows):
    """Bottleneck-criterion check for integer max-min fairness.

    The allocation must be feasible and every path must have a bottleneck
    edge: leftover slack below the number of paths crossing it (channels
    there cannot be handed out one-per-path, so a +1 must displace another
    path) while the path's flow is maximal on that edge (so any displaced
    path has flow <= its own).
    """
    usage = {e: 0 for e in capacity}
    for key, edges in path_edges.items():
        for e in edges:
            usage[e] += flows[key]
    assert all(usage[e] <= capacity[e] for e in usage), "capacity violated"
    on_edge = {}
    for key, edges in path_edges.items():
        for e in edges:
            on_edge.setdefault(e, []).append(key)
    for key, edges in path_edges.items():
        has_bottleneck = any(
            capacity[e] - usage[e] < len(on_edge[e])
            and flows[key] == max(flows[q] for q in on_edge[e])
            for e in edges)
        assert has_bottleneck, f"path {key} lacks a bottleneck edge"


def enumerate_loopless_paths(net, s, t):
    """Exhaustive DFS oracle: every simple s-t path over active edges,
    sorted by (length, node sequence)."""
    adj = net.adjacency()
    found = []
    stack = [(s, (s,))]
    while stack:
        node, trail = stack.pop()
        if node == t:
            found.append(trail)
            continue
        for nxt in adj[node]:
            if nxt not in trail:
                stack.append((nxt, trail + (nxt,)))
    return sorted(found, key=lambda p: (len(p), p))
