"""Loopless k-shortest-path enumeration (unit hop weights) and the per-edge
path information set."""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .netmodel import Edge, EdgeMasks, InvariantError, Network

#: (request_id, path rank) identifies one enumerated path
PathKey = tuple[int, int]
#: one edge's keys grouped by request: a tuple of keys per request, in key order
RequestGroups = tuple[tuple[PathKey, ...], ...]


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


def _spur_path(masks: EdgeMasks, root: tuple[int, ...], t: int, banned: int = 0,
               banned_next: int = 0) -> tuple[int, ...] | None:
    """Smallest shortest path, in (length, node sequence) order, that starts
    with ``root`` and continues from ``u = root[-1]`` to t without entering
    the nodes of ``banned`` and without a first hop in ``banned_next``; None
    when there is none.

    ``banned`` and ``banned_next`` are node bitmasks. In Yen's loop
    ``banned`` holds ``root[:-1]``, and ``banned_next`` the next hops
    ``p[i + 1]`` of the accepted paths ``p`` that share the root: every edge
    Yen bans at spur index ``i`` is ``(p[i], p[i + 1]) = (u, p[i + 1])``, so
    all of them touch ``u`` and matter only for the first hop. ``banned``
    holds neither ``u`` nor ``t``.

    A BFS from t keeps one bitmask per level. With F the frontier and M the
    mask of edge offset ``off``, one level is the OR of ``((F & M) << off) |
    ((F >> off) & M)`` over all offsets, minus the nodes already seen; banned
    nodes, t and u start seen. The search stops at the first level whose
    frontier meets u's allowed first hops, so u lies at distance ``d``, the
    number of levels kept, and every level below ``d`` is complete and
    independent of u's edges. Walking from u and always taking the smallest
    neighbour one level closer to t reads only those levels and yields the
    lexicographic minimum, because all shortest sequences have equal length.
    """
    offsets, neighbours = masks
    u = root[-1]
    first_hops = neighbours[u] & ~banned_next
    frontier = 1 << t
    unseen = ((1 << len(neighbours)) - 1) ^ (banned | frontier | 1 << u)
    levels = []
    while not frontier & first_hops:
        if not frontier:
            return None
        levels.append(frontier)
        reached = 0
        for off, mask in offsets:
            reached |= (frontier & mask) << off | (frontier >> off) & mask
        frontier = reached & unseen
        unseen ^= frontier
    levels.append(frontier)
    nodes = list(root)
    node, hops = u, first_hops
    for d in range(len(levels) - 1, -1, -1):
        hops &= levels[d]
        if not hops:
            raise InvariantError(
                f"spur walk found no neighbor of node {node} at distance {d}")
        node = (hops & -hops).bit_length() - 1
        nodes.append(node)
        hops = neighbours[node]
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
    masks = net.edge_masks()
    first = _spur_path(masks, (s,), t)
    if first is None:
        return []
    accepted: list[tuple[int, ...]] = [first]
    candidates: list[tuple[int, tuple[int, ...], int]] = []
    deviation = 0
    while len(accepted) < k:
        prev = accepted[-1]
        # the root prev[:i] as a node mask and the accepted paths sharing it,
        # both extended by one node per spur index
        banned = 0
        for node in prev[:deviation]:
            banned |= 1 << node
        sharing = [p for p in accepted if p[:deviation] == prev[:deviation]]
        for i in range(deviation, len(prev) - 1):
            u = prev[i]
            sharing = [p for p in sharing if p[i] == u]
            banned_next = 0
            for p in sharing:
                banned_next |= 1 << p[i + 1]
            cand = _spur_path(masks, prev[:i + 1], t, banned, banned_next)
            if cand is not None:
                heapq.heappush(candidates, (len(cand) - 1, cand, i))
            banned |= 1 << u
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


def request_groups(keys: Sequence[PathKey]) -> RequestGroups:
    """Keys that are already in key order, grouped by request in one pass."""
    return tuple(tuple(group) for _, group in groupby(keys, itemgetter(0)))


class KeptPaths(NamedTuple):
    """What the schedulers read of a PathSet at one l_max. It depends on
    nothing else, so ``PathSet.kept`` builds it once per l_max."""

    #: H truncated to l_max keys per edge, edges sorted
    keys: dict[Edge, list[PathKey]]
    #: ``keys`` grouped by request
    groups: dict[Edge, RequestGroups]
    #: ``keys`` without the paths that are not live; edges left with none dropped
    live_keys: dict[Edge, list[PathKey]]
    #: ``live_keys`` grouped by request
    live_groups: dict[Edge, RequestGroups]
    #: the paths kept on every edge they traverse, with their edges, in key order
    live_paths: dict[PathKey, tuple[Edge, ...]]


class PathSet(dict[Edge, list[PathKey]]):
    """One window's paths, built once: H (this mapping, edge -> keys of the
    paths crossing it, in key order) plus the per-path views, keyed in key
    order, that every scheduler, the metrics and the trial record share."""

    def __init__(self, path_edges: dict[PathKey, tuple[Edge, ...]],
                 lengths: dict[PathKey, int]) -> None:
        super().__init__()
        self.path_edges = dict(sorted(path_edges.items()))
        self.lengths = {key: lengths[key] for key in self.path_edges}
        self._kept: dict[int, KeptPaths] = {}
        for key, edges in self.path_edges.items():
            for e in edges:
                self.setdefault(e, []).append(key)

    def kept(self, l_max: int) -> KeptPaths:
        """H truncated to l_max keys per edge and the views derived from it;
        computed once per l_max."""
        if l_max not in self._kept:
            kept = {e: truncate_edge_paths(self[e], self.lengths, l_max) for e in sorted(self)}
            times_kept = Counter(key for keys in kept.values() for key in keys)
            live_paths = {key: edges for key, edges in self.path_edges.items()
                          if times_kept[key] == len(edges)}
            groups = {e: request_groups(keys) for e, keys in kept.items()}
            live_keys: dict[Edge, list[PathKey]] = {}
            live_groups: dict[Edge, RequestGroups] = {}
            for e, keys in kept.items():
                live = [key for key in keys if key in live_paths]
                if len(live) == len(keys):
                    live_keys[e], live_groups[e] = keys, groups[e]
                elif live:
                    live_keys[e], live_groups[e] = live, request_groups(live)
            self._kept[l_max] = KeptPaths(kept, groups, live_keys, live_groups, live_paths)
        return self._kept[l_max]


def build_path_info(paths: Iterable[Path]) -> PathSet:
    """Assemble H: the key of every path under each edge it traverses."""
    paths = list(paths)
    return PathSet({p.key: p.edge_keys() for p in paths},
                   {p.key: p.length for p in paths})
