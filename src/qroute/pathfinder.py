"""Loopless k-shortest-path enumeration (unit hop weights) and the per-edge
path information set over dense path and edge ids."""
from __future__ import annotations

import heapq
from itertools import chain, groupby, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .netmodel import Edge, EdgeMasks, InvariantError, Network

#: (request id, path rank) identifies one enumerated path
PathKey = tuple[int, int]
#: one edge's path ids grouped by request: a tuple of ids per request, in id order
RequestGroups = tuple[tuple[int, ...], ...]


def _reached(offsets: tuple[tuple[int, int], ...], frontier: int) -> int:
    """The nodes one active edge away from those of ``frontier``."""
    reached = 0
    for off, mask in offsets:
        reached |= (frontier & mask) << off | (frontier >> off) & mask
    return reached


def _level(offsets: tuple[tuple[int, int], ...], levels: list[int], d: int) -> int:
    """The nodes d hops from t over all active edges. ``levels[d]`` holds
    them, starting from ``[1 << t]``: one BFS from t, as node bitmasks, that
    grows in place only as deep as a call needs, and ends in 0 once it has
    run out. With F the last level and M the mask of edge offset ``off``, the
    next is the OR of ``((F & M) << off) | ((F >> off) & M)`` over all
    offsets, minus the last two levels."""
    while len(levels) <= d and levels[-1]:
        # the neighbours of the last level lie on it and the levels beside it
        seen = levels[-1] | (levels[-2] if len(levels) > 1 else 0)
        levels.append(_reached(offsets, levels[-1]) & ~seen)
    return levels[d] if d < len(levels) else 0


def _distance(offsets: tuple[tuple[int, int], ...], levels: list[int], hops: int) -> int | None:
    """The distance to t over all active edges of the nearest node of
    ``hops``; None when hops is empty or none of its nodes reaches t.
    ``levels`` are those of ``_level``."""
    if not hops:
        return None
    d = 0
    while not hops & levels[d]:
        if not levels[d]:
            return None
        d += 1
        if d == len(levels):
            _level(offsets, levels, d)
    return d


def _shortest_paths(masks: EdgeMasks, levels: list[int], s: int,
                    t: int) -> Iterator[tuple[int, ...]]:
    """Every shortest s-t path over active edges, in (length, node
    sequence) order: the s-t shortest-path DAG. ``levels`` are the BFS
    levels from t that ``_level`` grows. A depth-first walk down them from
    s that takes neighbours in ascending id never dead-ends and yields every
    shortest path once, in lexicographic order."""
    neighbours = masks.neighbours
    top = _distance(masks.offsets, levels, neighbours[s])
    if top is None:
        return
    # stack[j]: the untried nodes for nodes[1 + j], on levels[top - j]
    nodes = [s]
    stack = [neighbours[s] & levels[top]]
    while stack:
        choices = stack[-1]
        if not choices:
            stack.pop()
            nodes.pop()
            continue
        low = choices & -choices
        stack[-1] = choices ^ low
        node = low.bit_length() - 1
        d = top + 1 - len(stack)
        if not d:
            yield (*nodes, t)
            continue
        below = neighbours[node] & levels[d - 1]
        if not below:
            raise InvariantError(f"DAG walk found no neighbor of node {node} at distance {d - 1}")
        nodes.append(node)
        stack.append(below)


def _detour_paths(masks: EdgeMasks, levels: list[int], s: int, t: int,
                  length: int) -> Iterator[tuple[int, ...]]:
    """Every simple s-t path of exactly ``length`` hops over active edges,
    in node-sequence order; ``levels`` are the BFS levels from t that
    ``_level`` grows. A depth-first search from s takes neighbours in
    ascending id, so it yields the paths in lexicographic order. A step
    with h hops left may enter t only when h is 1, and otherwise a node
    other than t at most h - 1 hops from it and not on the path yet: every
    simple path of that length passes. At most two hops past the distance
    of s, as ``_yen`` asks, a partial path climbs a level at most once,
    which keeps the search polynomial."""
    offsets, neighbours = masks
    # enter[h]: the nodes a step with h hops left may enter
    enter = [0, 1 << t]
    near = 1 << t
    for h in range(2, length + 1):
        near |= _level(offsets, levels, h - 1)
        enter.append(near ^ 1 << t)
    # stack[j]: the untried nodes for nodes[1 + j], a step with length - j hops left
    nodes = [s]
    on_path = 1 << s
    stack = [neighbours[s] & enter[length]]
    while stack:
        choices = stack[-1]
        if not choices:
            stack.pop()
            on_path ^= 1 << nodes.pop()
            continue
        low = choices & -choices
        stack[-1] = choices ^ low
        h = length - len(stack)
        if not h:
            yield (*nodes, t)
            continue
        node = low.bit_length() - 1
        nodes.append(node)
        on_path |= low
        stack.append(neighbours[node] & enter[h] & ~on_path)


def _spur_search(masks: EdgeMasks, root: tuple[int, ...], t: int, banned: int,
                 banned_next: int) -> tuple[int, ...] | None:
    """The smallest path in (length, node sequence) order that starts with
    ``root`` and continues from ``u = root[-1]`` to t without entering the
    nodes of ``banned`` and without a first hop in ``banned_next``; None
    when there is none.

    ``banned`` and ``banned_next`` are node bitmasks. In Yen's loop
    ``banned`` holds ``root[:-1]``, and ``banned_next`` the next hops
    ``p[i + 1]`` of the accepted paths ``p`` that share the root: every edge
    Yen bans at spur index ``i`` is ``(p[i], p[i + 1]) = (u, p[i + 1])``, so
    all of them touch ``u`` and matter only for the first hop. ``banned``
    holds neither ``u`` nor ``t``. A BFS from t, with the nodes of
    ``banned``, t and u seen from the start, runs up to the first level that
    meets u's allowed first hops. Its levels are complete and independent of
    u's edges, and each node of a level has a neighbour on the level below,
    so the walk down them that steps to the lowest such node is the first
    path a depth-first walk in ascending id would yield.
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
        frontier = _reached(offsets, frontier) & unseen
        unseen ^= frontier
    nodes = list(root)
    below = first_hops & frontier
    for d in range(len(levels) - 1, -1, -1):
        node = (below & -below).bit_length() - 1
        nodes.append(node)
        below = neighbours[node] & levels[d]
        if not below:
            raise InvariantError(f"spur walk found no neighbor of node {node} at distance {d}")
    nodes.append(t)
    return tuple(nodes)


#: how many (s, t, k) answers each lattice keeps, oldest dropped first.
#: Pinned requests need one per request and k; random requests seldom
#: repeat, and on a lattice never fully active nothing is stored
_LATTICE_PATHS_SIZE = 64


def k_shortest_paths(net: Network, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """The k shortest loopless s-t paths over active edges, as node tuples
    ordered by (length, node sequence); fewer when fewer exist, empty when s
    and t are disconnected in G'. The first j of them are the answer for k =
    j.

    G' is a subset of its lattice's edges, so every path of G' is a path of
    the lattice. Hence when every edge of the lattice's own k smallest paths
    is active in ``net``, those paths are G''s k smallest too; and when the
    lattice holds fewer than k paths, G' holds the same ones. The lattice
    (``net.lattice()``, shared by every network on its edges) keeps the
    answers to the last ``_LATTICE_PATHS_SIZE`` keys (s, t, k) with the
    indices of the edges they cross, and a call whose network has all those
    edges active returns them without a search. Only a network with every
    lattice edge active stores an answer: its masks are the lattice's own,
    so the search's answer is the lattice's by definition. Otherwise
    ``_yen`` searches G': the shortest-path DAG, then the paths one detour
    past it, then Yen's algorithm for what those leave. The lattice tells
    it whether G' can hold a path one hop longer than the shortest: not when
    the lattice is bipartite.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    for node in (s, t):
        if not 0 <= node < net.node_count:
            raise ValueError(f"node {node} is not on the {net.rows}x{net.cols} lattice "
                             f"(nodes 0..{net.node_count - 1})")
    if s == t:
        raise ValueError("source and terminal must differ")
    lattice = net.lattice()
    key = (s, t, k)
    entry = lattice.paths.get(key)
    if entry is not None:
        crossed, paths = entry
        active = net.active
        if all(map(active.__getitem__, crossed)):
            return list(paths)
    masks = net.edge_masks()
    accepted = _yen(masks, s, t, k, lattice.bipartite)
    if masks is lattice.masks:
        stored = lattice.paths
        if len(stored) == _LATTICE_PATHS_SIZE:
            del stored[next(iter(stored))]
        by_node = lattice.edge_index
        crossed = {by_node[a][b] for p in accepted for a, b in zip(p, p[1:])}
        stored[key] = (tuple(sorted(crossed)), tuple(accepted))
    return accepted


def _yen(masks: EdgeMasks, s: int, t: int, k: int, bipartite: bool) -> list[tuple[int, ...]]:
    """``k_shortest_paths`` over the active edges of ``masks``, searched;
    ``bipartite`` tells whether the network's lattice is.

    The order is total: by length, then by node sequence. With L the
    length of the shortest paths, three steps take the paths in that order
    and stop at k:

    - ``_shortest_paths`` walks the s-t shortest-path DAG: every path of L
      hops, in order;
    - with fewer than k, ``_detour_paths`` adds every simple path of L + 1
      hops, then of L + 2, each length in order. A bipartite network has no
      path of L + 1 hops, so that length is skipped there;
    - with fewer than k still, ``_lawler_yen`` runs from the first shortest
      path and returns the k paths (fewer when fewer exist).

    All three read one BFS from t per call, grown only as deep as the
    farthest of them needs.
    """
    levels = [1 << t]
    found = list(islice(_shortest_paths(masks, levels, s, t), k))
    if 0 < len(found) < k:
        hops = len(found[0]) - 1
        detours = chain.from_iterable(_detour_paths(masks, levels, s, t, hops + extra)
                                      for extra in ((2,) if bipartite else (1, 2)))
        found += islice(detours, k - len(found))
        if len(found) < k:
            return _lawler_yen(masks, levels, found[0], t, k)
    return found


def _lawler_yen(masks: EdgeMasks, levels: list[int], first: tuple[int, ...], t: int,
                k: int) -> list[tuple[int, ...]]:
    """The k smallest s-t paths by Yen's algorithm, from ``first``, the
    smallest; ``levels`` are the BFS levels from t that ``_level`` grows.

    The spur search at index i of an accepted path ``prev``
    (``_spur_search``) gives the smallest path of its spur set: the paths
    that share the root ``prev[:i + 1]`` and whose next hop is not that of
    an accepted path sharing the root. Lawler's (1972) restriction spurs
    each path only from the index at which it left its parent: the spurs
    below it were the parent's already. The spur sets then partition the
    paths not yet accepted, so each candidate is found exactly once, the
    heap needs no duplicate check, and its smallest path is always the next
    one, once every spur set has given its smallest.

    Spur searches are deferred. Visiting an index pushes ``(bound, root)``
    with the masks of the moment instead of a path. With d the smallest
    distance to t, over all active edges, of u's allowed first hops, the
    bound is the larger of ``len(prev) - 1`` and ``i + 1 + d``; a spur with
    no such hop, or none that reaches t, has an empty set and pushes
    nothing. The entry sorts at or below every path of its set: those paths
    follow ``prev`` in the order, so none is shorter than ``len(prev) - 1``
    hops; none is shorter than ``i + 1 + d`` either; and the root, which
    holds no t, is a proper prefix of each, so it sorts first among equal
    lengths. Only the entry on top of the heap runs its search, and the path
    it finds takes the entry's place. A path on top thus sorts at or below
    every path of every set, so the paths popped are those of eager Yen, in
    the same order, and a spur whose entry never reaches the top is never
    searched. Every d reads ``levels``.
    """
    offsets, neighbours = masks
    accepted = [first]
    # (length, path, i) for a path found at spur index i, and (bound, root,
    # banned, banned_next) for a spur not searched yet
    heap: list[tuple] = []
    deviation = 0
    while len(accepted) < k:
        prev = accepted[-1]
        # the root prev[:i] as a node mask and the accepted paths sharing it,
        # both extended by one node per spur index
        banned = sum(1 << node for node in prev[:deviation])  # nodes are distinct
        sharing = [p for p in accepted if p[:deviation] == prev[:deviation]]
        for i in range(deviation, len(prev) - 1):
            u = prev[i]
            sharing = [p for p in sharing if p[i] == u]
            banned_next = 0
            for p in sharing:
                banned_next |= 1 << p[i + 1]
            d = _distance(offsets, levels, neighbours[u] & ~(banned | banned_next))
            if d is not None:
                heapq.heappush(heap, (max(len(prev) - 1, i + 1 + d), prev[:i + 1],
                                      banned, banned_next))
            banned |= 1 << u
        # only a path ends in t: search the spurs whose entries sort first
        while heap and heap[0][1][-1] != t:
            _, root, banned, banned_next = heap[0]
            cand = _spur_search(masks, root, t, banned, banned_next)
            if cand is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (len(cand) - 1, cand, len(root) - 1))
        if not heap:
            break
        _, best, deviation = heapq.heappop(heap)
        accepted.append(best)
    return accepted


def truncate_edge_paths(ids: list[int], request_of: Sequence[int],
                        lengths: Sequence[int], l_max: int) -> list[int]:
    """Keep at most l_max of one edge's path ids (ascending), preferring
    short paths; ``ids`` itself when it holds no more than l_max.

    ``request_of`` and ``lengths`` are indexed by path id, and ids are
    numbered in key order. Ids rank by (not its request's only path on this
    edge, length, id), and the first l_max are kept: a request's only path
    evicts the longest of the others, and if such paths alone exceed l_max
    the shortest of them win. The lone paths are the request groups of one
    id, and a stable sort of ascending ids on length ranks by (length, id).
    Result is ascending.
    """
    if len(ids) <= l_max:
        return ids
    groups = request_groups(ids, request_of)
    lone = [group[0] for group in groups if len(group) == 1]
    if len(lone) >= l_max:
        return sorted(sorted(lone, key=lengths.__getitem__)[:l_max])
    others = [p for group in groups if len(group) > 1 for p in group] if lone else ids
    return sorted(lone + sorted(others, key=lengths.__getitem__)[:l_max - len(lone)])


def request_groups(ids: Sequence[int], request_of: Sequence[int]) -> RequestGroups:
    """Path ids that are already in id order, grouped by request in one pass
    (``request_of`` gives each id's request).

    Ids are numbered in key order, so when the first and the last id share a
    request, every id between them does too, and they form one group.
    """
    if ids and request_of[ids[0]] == request_of[ids[-1]]:
        return (tuple(ids),)
    return tuple([tuple(group) for _, group in groupby(ids, request_of.__getitem__)])


class KeptPaths(NamedTuple):
    """What the schedulers read of a PathSet at one l_max, as path and edge
    ids. It depends on nothing else, so ``PathSet.kept`` builds it once per
    l_max. Per-edge fields are indexed by edge id; the edges that carry a
    live path are those whose ``live_keys`` are not empty."""

    #: per edge, the ids of the paths kept there (H truncated to l_max keys)
    keys: list[list[int]]
    #: ``keys`` grouped by request
    groups: list[RequestGroups]
    #: per edge, ``keys`` without the paths that are not live (empty where none)
    live_keys: list[list[int]]
    #: ``live_keys`` grouped by request
    live_groups: list[RequestGroups]
    #: ids of the live paths, which are kept on every edge they traverse
    live_paths: list[int]


class PathSet:
    """One window's paths, built once and shared by every scheduler, the
    metrics and the trial record.

    Paths are numbered 0..P-1 in key order and the edges they cross 0..E-1 in
    sorted order; each path is held once, as edge ids, and every reader
    works on these ids. ``path_edges`` is the keyed form, built from the ids
    on each read. ``build_path_info`` builds one from a network's lattice
    edge indices, and ``reports.record_from_dict`` from a record's arrays.
    Nothing changes a PathSet once it is built, so windows with equal paths
    share one.
    """

    def __init__(self, keys: tuple[PathKey, ...], lengths: list[int],
                 lattice: tuple[Edge, ...], hops: list[list[int]]) -> None:
        """The paths ``keys``, in key order, whose ``hops`` are indices into
        the sorted edge tuple ``lattice``; the edges they cross are numbered
        in lattice order, and H is built over those edges alone."""
        #: path id -> key
        self.keys = keys
        #: path id -> length in hops
        self.lengths = lengths
        # edge id -> the edge's index in ``lattice``, ascending
        lattice_index = sorted(set(chain.from_iterable(hops)))
        #: edge id -> edge, sorted
        self.edges = tuple(map(lattice.__getitem__, lattice_index))
        edge_id = dict(zip(lattice_index, range(len(self.edges))))
        #: path id -> the ids of the edges it traverses, in path order
        self.edge_ids = [tuple(map(edge_id.__getitem__, route)) for route in hops]
        self._incidence: list[list[int]] | None = _incidence(self.edge_ids, len(self.edges))
        self._kept: dict[int, KeptPaths] = {}
        self._capacities: tuple[Network, tuple[int, ...]] | None = None
        #: the schedulers' plans by key; None until ``keep_plans``
        self._plans: dict[tuple, Any] | None = None

    def __getstate__(self) -> dict:
        """Pickle the paths without H, the ``kept`` views, the plans and
        capacities, which hold a Network; they are built again on first
        read."""
        return {**vars(self), "_incidence": None, "_kept": {}, "_capacities": None,
                "_plans": None}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PathSet):
            return NotImplemented
        return ((self.keys, self.lengths, self.edges, self.edge_ids)
                == (other.keys, other.lengths, other.edges, other.edge_ids))

    @property
    def path_edges(self) -> dict[PathKey, tuple[Edge, ...]]:
        """Path key -> its edges in traversal order, in key order."""
        return {key: tuple(self.edges[e] for e in ids)
                for key, ids in zip(self.keys, self.edge_ids)}

    def values(self) -> list[list[int]]:
        """H: per edge id, the ids of the paths crossing it, ascending; built
        with the PathSet, and from ``edge_ids`` again after a release."""
        if self._incidence is None:
            self._incidence = _incidence(self.edge_ids, len(self.edges))
        return self._incidence

    def capacities(self, net: Network) -> tuple[int, ...]:
        """The capacity of every edge, by edge id; each must be active in
        ``net``, as on the network the paths were found on. Read once per
        network."""
        if self._capacities is None or self._capacities[0] is not net:
            caps = net.capacity_map()
            self._capacities = (net, tuple(caps[e] for e in self.edges))
        return self._capacities[1]

    def release_views(self) -> None:
        """Drop H, the cached ``kept`` views and capacities, and stop
        keeping plans; a later call builds the views again. ``build_path_info``
        calls it on the PathSet its memo evicts, so that at most
        ``_MEMO_SIZE`` PathSets hold views or plans."""
        self._incidence = None
        self._kept.clear()
        self._capacities = None
        self._plans = None

    def keep_plans(self) -> None:
        """From now on, ``plan`` keeps what schedulers compute from these
        paths alone for their later runs on them. ``build_path_info`` calls
        it when its memo hands the PathSet to another window: a plan pays
        only on a PathSet scheduled in more than one window, since within
        one window each (algorithm, l_max, alpha, beta) runs once."""
        if self._plans is None:
            self._plans = {}

    def plan(self, key: tuple, new: Callable[[], Any]) -> Any:
        """The plan stored under ``key``, ``new()`` the first time (see
        ``scheduler.run_algorithm``); None unless ``keep_plans`` was called
        since the PathSet was built or last released."""
        plans = self._plans
        if plans is None:
            return None
        plan = plans.get(key)
        if plan is None:
            plan = plans[key] = new()
        return plan

    def kept(self, l_max: int) -> KeptPaths:
        """H truncated to l_max keys per edge and the views derived from it;
        computed once per l_max."""
        if l_max not in self._kept:
            request_of = [r for r, _ in self.keys]
            kept = list(self.values())
            # the paths that a crowded edge drops, which are live nowhere
            dead: set[int] = set()
            for e, ids in enumerate(kept):
                if len(ids) > l_max:
                    kept[e] = truncate_edge_paths(ids, request_of, self.lengths, l_max)
                    dead.update(set(ids).difference(kept[e]))
            groups = [request_groups(ids, request_of) for ids in kept]
            if dead:
                # only the edges a dead path crosses lose paths from their views
                live_keys, live_groups = kept[:], groups[:]
                for e in {e for p in dead for e in self.edge_ids[p]}:
                    ok = [p for p in kept[e] if p not in dead]
                    if len(ok) < len(kept[e]):
                        live_keys[e], live_groups[e] = ok, request_groups(ok, request_of)
                live_paths = [p for p in range(len(request_of)) if p not in dead]
            else:
                # nothing was truncated, so every path is live on every edge
                live_keys, live_groups, live_paths = kept, groups, list(range(len(request_of)))
            self._kept[l_max] = KeptPaths(kept, groups, live_keys, live_groups, live_paths)
        return self._kept[l_max]


def _incidence(routes: Iterable[Sequence[int]], size: int) -> list[list[int]]:
    """Per index below ``size``, the positions of the routes that hold it,
    ascending."""
    on: list[list[int]] = [[] for _ in range(size)]
    for p, route in enumerate(routes):
        for j in route:
            on[j].append(p)
    return on


#: how many PathSets ``build_path_info`` keeps. With fixed requests a
#: window's paths mostly repeat one of the last two windows'; random requests
#: never hit, and there 8 entries measured slower, since each holds its views
_MEMO_SIZE = 2
#: (lattice edges, paths by request) -> its PathSet, least recently used first
_memo: dict[tuple, PathSet] = {}


def build_path_info(net: Network, paths: Mapping[int, Sequence[tuple[int, ...]]],
                    l_max: int) -> PathSet:
    """The window's PathSet of the paths found on ``net``, given as request
    id -> its node tuples by rank; path ``(r, rank)`` is ``paths[r][rank]``,
    and keys are numbered in request-id order. Its ``kept(l_max)`` view is
    built before it returns, so that its cost counts as path information.

    A PathSet depends only on ``net.edges`` and the paths, so the last
    ``_MEMO_SIZE`` built are kept, views and all, and a call with equal
    edges and paths returns the same object: windows with equal paths share
    it. A PathSet handed out again keeps PS and PU plans from then on
    (``keep_plans``), so later windows reuse what the earlier ones computed
    from the paths alone. The memo decides how long views and plans live:
    the PathSet it evicts releases them before the next one is built. Each
    hop is read by its index in ``net.edges``, whose order is the sorted
    edge order, so no edge key is built."""
    ranked = tuple((r, tuple(paths[r])) for r in sorted(paths))
    key = (net.edges, ranked)
    info = _memo.pop(key, None)
    if info is not None:
        info.keep_plans()
    else:
        if len(_memo) == _MEMO_SIZE:
            _memo.pop(next(iter(_memo))).release_views()
        routes = [nodes for _, by_rank in ranked for nodes in by_rank]
        by_node = net.lattice().edge_index
        hops = [[by_node[a][b] for a, b in zip(p, p[1:])] for p in routes]
        info = PathSet(tuple((r, rank) for r, by_rank in ranked for rank in range(len(by_rank))),
                       [len(p) - 1 for p in routes], net.edges, hops)
    _memo[key] = info
    info.kept(l_max)
    return info
