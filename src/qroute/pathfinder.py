"""Loopless k-shortest-path enumeration (unit hop weights) and the per-edge
path information set."""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .netmodel import Edge, Network

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


@dataclass(frozen=True)
class PathInfoEntry:
    """Per-edge bookkeeping tuple [r, l, d, o]."""

    request_id: int
    path_rank: int
    path_length: int
    edge_order: int

    @property
    def key(self) -> PathKey:
        return (self.request_id, self.path_rank)


def _lex_shortest(adj: dict[int, list[int]], s: int, t: int,
                  banned_nodes: frozenset[int] = frozenset(),
                  banned_edges: frozenset[Edge] = frozenset()) -> tuple[int, ...] | None:
    """Lexicographically smallest shortest s-t node sequence, or None.

    BFS from t gives hop distances; walking from s and always taking the
    smallest neighbor one hop closer to t yields the lexicographic minimum
    because all shortest sequences have equal length.
    """
    if s in banned_nodes or t in banned_nodes:
        return None
    dist = {t: 0}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in dist or v in banned_nodes or edge_key(u, v) in banned_edges:
                    continue
                dist[v] = dist[u] + 1
                nxt.append(v)
        frontier = nxt
    if s not in dist:
        return None
    nodes = [s]
    u = s
    while u != t:
        for v in adj[u]:
            if v in banned_nodes or edge_key(u, v) in banned_edges:
                continue
            if dist.get(v, -1) == dist[u] - 1:
                nodes.append(v)
                u = v
                break
        else:  # unreachable when dist[s] is finite
            return None
    return tuple(nodes)


def k_shortest_paths(net: Network, s: int, t: int, k: int,
                     request_id: int = 0) -> list[Path]:
    """Yen's algorithm over active edges with deterministic tie-breaking.

    Returns up to k loopless paths ordered by (length, node sequence); fewer
    when fewer exist, empty when s and t are disconnected in G'.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s == t:
        raise ValueError("source and terminal must differ")
    adj = net.adjacency()
    first = _lex_shortest(adj, s, t)
    if first is None:
        return []
    accepted: list[tuple[int, ...]] = [first]
    candidates: list[tuple[int, tuple[int, ...]]] = []
    seen = {first}
    while len(accepted) < k:
        prev = accepted[-1]
        for i in range(len(prev) - 1):
            root = prev[:i + 1]
            banned_nodes = frozenset(root[:-1])
            banned_edges = frozenset(
                edge_key(p[i], p[i + 1]) for p in accepted if p[:i + 1] == root)
            spur = _lex_shortest(adj, root[-1], t, banned_nodes, banned_edges)
            if spur is None:
                continue
            cand = root[:-1] + spur
            if cand not in seen:
                seen.add(cand)
                heapq.heappush(candidates, (len(cand) - 1, cand))
        if not candidates:
            break
        _, best = heapq.heappop(candidates)
        accepted.append(best)
    return [Path(request_id, rank, nodes) for rank, nodes in enumerate(accepted)]


def truncate_edge_paths(entries: Sequence[PathInfoEntry], l_max: int) -> list[PathInfoEntry]:
    """Keep at most l_max entries of one edge's list, preferring short paths.

    An entry that is its request's only entry on this edge is kept
    unconditionally, evicting the longest non-sole entries instead; if sole
    entries alone exceed l_max the shortest of them win. Result is sorted by
    (request_id, rank).
    """
    order = lambda h: (h.request_id, h.path_rank)
    if len(entries) <= l_max:
        return sorted(entries, key=order)
    counts = Counter(h.request_id for h in entries)
    priority = lambda h: (h.path_length, h.request_id, h.path_rank)
    soles = sorted((h for h in entries if counts[h.request_id] == 1), key=priority)
    others = sorted((h for h in entries if counts[h.request_id] > 1), key=priority)
    if len(soles) >= l_max:
        kept = soles[:l_max]
    else:
        kept = soles + others[:l_max - len(soles)]
    return sorted(kept, key=order)


class PathSet(dict[Edge, list[PathInfoEntry]]):
    """One window's paths, built once: H (this mapping, edge -> entries) plus
    the per-path views, keyed in PathKey order, that every scheduler, the
    metrics and the trial record share."""

    def __init__(self, path_edges: dict[PathKey, tuple[Edge, ...]],
                 lengths: dict[PathKey, int]) -> None:
        super().__init__()
        self.path_edges = dict(sorted(path_edges.items()))
        self.lengths = {key: lengths[key] for key in self.path_edges}
        self._kept: dict[int, tuple] = {}
        for (r, l), edges in self.path_edges.items():
            for order, e in enumerate(edges):
                self.setdefault(e, []).append(PathInfoEntry(r, l, lengths[r, l], order))

    def kept(self, l_max: int) -> tuple[dict[Edge, list[PathInfoEntry]], frozenset[PathKey]]:
        """H truncated to l_max entries per edge (edges sorted), and the paths
        kept on every edge they traverse; computed once per l_max."""
        if l_max not in self._kept:
            entries = {e: truncate_edge_paths(self[e], l_max) for e in sorted(self)}
            kept_on = {e: {h.key for h in hs} for e, hs in entries.items()}
            live = frozenset(key for key, edges in self.path_edges.items()
                             if all(key in kept_on[e] for e in edges))
            self._kept[l_max] = (entries, live)
        return self._kept[l_max]


def build_path_info(paths: Iterable[Path]) -> PathSet:
    """Assemble H: one entry per (request, path) traversal of each edge."""
    paths = list(paths)
    return PathSet({p.key: p.edge_keys() for p in paths},
                   {p.key: p.length for p in paths})
