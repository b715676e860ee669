"""Loopless k-shortest-path enumeration (unit hop weights) and the per-edge
path information set."""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .netmodel import Edge, InvariantError, Network

#: (request_id, path rank) identifies one enumerated path
PathKey = tuple[int, int]


def edge_key(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Path:
    """One loopless route for a request, ranked within its k-shortest output."""

    request_id: int
    rank: int
    nodes: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def key(self) -> PathKey:
        return (self.request_id, self.rank)

    def edge_keys(self) -> tuple[Edge, ...]:
        return tuple(edge_key(a, b) for a, b in zip(self.nodes, self.nodes[1:]))


def _spur_path(adj: dict[int, list[int]], u: int, t: int,
               banned_nodes: Iterable[int] = (),
               banned_next: Collection[int] = ()) -> tuple[int, ...] | None:
    """Lexicographically smallest shortest u-t node sequence that avoids
    ``banned_nodes`` and whose first hop is not in ``banned_next``, or None.

    In Yen's loop ``banned_nodes`` is the spur root without its last node
    ``u``, and ``banned_next`` holds the next hops ``p[i + 1]`` of the accepted
    paths ``p`` that share the root: every edge Yen bans at spur index ``i``
    is ``(p[i], p[i + 1]) = (u, p[i + 1])``, so all of them touch ``u`` and
    matter only for the first hop. ``banned_nodes`` holds neither ``u`` nor
    ``t``.

    A BFS from t gives hop distances. It never records ``u``; it skips ``u``
    when discovered from a banned next hop and stops as soon as ``u`` is
    discovered from any other node, at distance ``d``. BFS levels are complete
    one after another, so at that moment every distance below ``d`` is exact
    and no other node's distance below ``d`` depends on ``u``'s edges. Walking
    from ``u`` and always taking the smallest neighbor one hop closer to t
    reads only those levels and yields the lexicographic minimum, because all
    shortest sequences have equal length.
    """
    # banned nodes read as already seen; -1 never matches a walk level
    dist = dict.fromkeys(banned_nodes, -1)
    dist[t] = 0
    frontier = [t]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for w in frontier:
            for v in adj[w]:
                if v in dist:
                    continue
                if v == u:
                    if w in banned_next:
                        continue
                    return _walk_down(adj, u, level, dist, banned_next)
                dist[v] = level
                nxt.append(v)
        frontier = nxt
    return None


def _walk_down(adj: dict[int, list[int]], u: int, level: int, dist: dict[int, int],
               banned_next: Collection[int]) -> tuple[int, ...]:
    """Greedy walk from ``u`` (at distance ``level``) to the node at distance
    0, taking the smallest neighbor one level closer at each step; only the
    first step honours ``banned_next``."""
    nodes = [u]
    node, skip = u, banned_next
    for d in range(level - 1, -1, -1):
        for v in adj[node]:
            if dist.get(v) == d and v not in skip:
                break
        else:
            raise InvariantError(
                f"spur walk found no neighbor of node {node} at distance {d}")
        nodes.append(v)
        node, skip = v, ()
    return tuple(nodes)


def k_shortest_paths(net: Network, s: int, t: int, k: int,
                     request_id: int = 0) -> list[Path]:
    """Yen's algorithm over active edges with deterministic tie-breaking.

    Returns up to k loopless paths ordered by (length, node sequence); fewer
    when fewer exist, empty when s and t are disconnected in G'.

    Each spur search (``_spur_path``) returns the smallest path in that order
    among those that share the root ``prev[:i + 1]`` and whose next hop is not
    that of an accepted path sharing the root. Lawler's (1972) restriction
    spurs each path only from the index at which it left its parent: it shares
    the parent's nodes up to there, and the spurs below it were the parent's
    already. The spur sets then partition the paths not yet accepted (Lawler's
    branching), so each candidate is found exactly once, the heap needs no
    duplicate check, and its smallest entry is always the next path.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s == t:
        raise ValueError("source and terminal must differ")
    adj = net.adjacency()
    first = _spur_path(adj, s, t)
    if first is None:
        return []
    accepted: list[tuple[int, ...]] = [first]
    candidates: list[tuple[int, tuple[int, ...], int]] = []
    deviation = 0
    while len(accepted) < k:
        prev = accepted[-1]
        for i in range(deviation, len(prev) - 1):
            root = prev[:i + 1]
            banned_next = {p[i + 1] for p in accepted if p[:i + 1] == root}
            spur = _spur_path(adj, prev[i], t, root[:-1], banned_next)
            if spur is not None:
                cand = root[:-1] + spur
                heapq.heappush(candidates, (len(cand) - 1, cand, i))
        if not candidates:
            break
        _, best, deviation = heapq.heappop(candidates)
        accepted.append(best)
    return [Path(request_id, rank, nodes) for rank, nodes in enumerate(accepted)]


def truncate_edge_paths(keys: Sequence[PathKey], lengths: dict[PathKey, int],
                        l_max: int) -> list[PathKey]:
    """Keep at most l_max of one edge's path keys, preferring short paths.

    A path that is its request's only path on this edge is kept
    unconditionally, evicting the longest non-sole paths instead; if sole
    paths alone exceed l_max the shortest of them win. Ties in length go to
    the smaller key. Result is sorted by key.
    """
    if len(keys) <= l_max:
        return sorted(keys)
    counts = Counter(r for r, _ in keys)
    priority = lambda key: (lengths[key], key)
    soles = sorted((key for key in keys if counts[key[0]] == 1), key=priority)
    others = sorted((key for key in keys if counts[key[0]] > 1), key=priority)
    if len(soles) >= l_max:
        kept = soles[:l_max]
    else:
        kept = soles + others[:l_max - len(soles)]
    return sorted(kept)


class PathSet(dict[Edge, list[PathKey]]):
    """One window's paths, built once: H (this mapping, edge -> keys of the
    paths crossing it, in key order) plus the per-path views, keyed in key
    order, that every scheduler, the metrics and the trial record share."""

    def __init__(self, path_edges: dict[PathKey, tuple[Edge, ...]],
                 lengths: dict[PathKey, int]) -> None:
        super().__init__()
        self.path_edges = dict(sorted(path_edges.items()))
        self.lengths = {key: lengths[key] for key in self.path_edges}
        self._kept: dict[int, tuple] = {}
        for key, edges in self.path_edges.items():
            for e in edges:
                self.setdefault(e, []).append(key)

    def kept(self, l_max: int) -> tuple[dict[Edge, list[PathKey]], frozenset[PathKey]]:
        """H truncated to l_max keys per edge (edges sorted), and the paths
        kept on every edge they traverse; computed once per l_max."""
        if l_max not in self._kept:
            kept = {e: truncate_edge_paths(self[e], self.lengths, l_max) for e in sorted(self)}
            kept_on = {e: set(keys) for e, keys in kept.items()}
            live = frozenset(key for key, edges in self.path_edges.items()
                             if all(key in kept_on[e] for e in edges))
            self._kept[l_max] = (kept, live)
        return self._kept[l_max]


def build_path_info(paths: Iterable[Path]) -> PathSet:
    """Assemble H: the key of every path under each edge it traverses."""
    paths = list(paths)
    return PathSet({p.key: p.edge_keys() for p in paths},
                   {p.key: p.length for p in paths})
