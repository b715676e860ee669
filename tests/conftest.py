"""Shared test helpers: one reference oracle per stage of a window, plus
instance generators and adapters.

Each oracle is written from the definition it checks and runs beside the
fast path on the same instances (README, "Tests and acceptance suite", maps
each stage to its oracles and tests):

- lattice: ``expected_edge_count`` for ``build_lattice``, and
  ``reference_edge_masks`` for ``Network.edge_masks``;
- purification: ``reference_purify_network``;
- k shortest paths: the exhaustive ``enumerate_loopless_paths``,
  ``reference_k_shortest_paths`` (eager Yen, which runs the BFS
  ``_lex_shortest`` at every spur index, where ``k_shortest_paths`` takes
  the shortest-path DAG's paths and those one detour past it first, and
  runs Yen only for the rest, deferring each search until its bound
  reaches the top of the heap), and ``yen_spurs`` (the spurs Yen visits
  from the first shortest path, read from its output, where the eager Yen
  runs a search each);
- H, its truncation and the two-stage rules, and PS:
  ``reference_truncate_edge_paths``, ``reference_two_stage_weights``,
  ``reference_largest_remainder``, ``reference_apportion_two_stage``,
  ``reference_kept`` and ``reference_proportional_share``;
- PF: ``unit_progressive_fill``; PU: ``unit_propagatory_core`` (unit
  steps) and ``reference_propagatory_core`` (bulk steps, fast enough for
  whole windows);
- metrics: ``reference_evaluate``;
- windows and sweeps: ``reference_run_trial``, ``reference_grid_search`` and
  ``reference_request_sweep``;
- records and configs: ``reference_record_to_dict`` and
  ``reference_config_from_mapping``.
"""
import heapq
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

import numpy as np
import pytest

from qroute import netmodel
from qroute.config import ConfigError, _fail
from qroute.harness import (METRIC_FIELDS, AlgorithmResult, ExperimentConfig,
                            ObjectiveWeights, RequestSpec, TrialContext, TrialRecord,
                            _resolve_requests, _summarize, aggregate_reports, objective_value,
                            parameter_grid)
from qroute.metrics import MetricsReport, zero_report
from qroute.netmodel import (TOPOLOGIES, Edge, EdgeMasks, InvariantError, Network, Request,
                             ScenarioParams, build_lattice, deactivate_low_capacity_edges,
                             sample_edge_states)
from qroute.pathfinder import PathKey, PathSet, build_path_info, truncate_edge_paths
from qroute.purification import pump_fidelity
from qroute.scheduler import (ALGORITHMS, RoutingOutcome, RoutingParams, _progressive_fill,
                              _propagatory_core, compute_f_min, run_algorithm)


# ------------------------------------------------------------ isolation

@pytest.fixture(autouse=True)
def empty_lattice_paths():
    """Each test starts with no lattice holding k shortest paths: one that an
    earlier test left on the same lattice would answer ``k_shortest_paths``
    in place of the search a test spies on. Networks built from here on get
    a new ``LatticeIndex``, with an empty ``paths``."""
    netmodel.build_lattice.cache_clear()
    netmodel._lattice_index.cache_clear()


# ------------------------------------------------------------ instances

def abstract_network(capacity):
    """Network over disjoint abstract edges keyed by the given capacity map."""
    edges = tuple(sorted(capacity))
    n = len(edges)
    return Network(1, 2 * n, "square", edges, tuple(capacity[e] for e in edges),
                   (0.9,) * n, (True,) * n, "purified")


def line_network(capacities):
    """Path graph 0-1-2-... with the given edge capacities; zero-capacity
    edges are inactive."""
    n = len(capacities)
    return Network(1, n + 1, "square", tuple((i, i + 1) for i in range(n)),
                   tuple(capacities), (0.9,) * n, tuple(c > 0 for c in capacities),
                   "purified")


def info_from_path_edges(path_edges, lengths=None):
    """The PathSet of a keyed form: path key -> its edges in path order, and
    path key -> its length (the edge count where ``lengths`` has none)."""
    keys = sorted(path_edges)
    edges = tuple(sorted({e for route in path_edges.values() for e in route}))
    index = {e: j for j, e in enumerate(edges)}
    lengths = lengths or {}
    return PathSet(tuple(keys), [lengths.get(key, len(path_edges[key])) for key in keys],
                   edges, [list(map(index.__getitem__, path_edges[key])) for key in keys])


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


# ------------------------------------------------------------ key-to-id adapters
# The schedulers work on path and edge ids. These call them with plain
# path-key and edge dicts, numbering keys and edges as a PathSet does, so the
# key-based oracles below can check them.

def by_key(info: PathSet, ids: Iterable[int], values: Iterable) -> dict[PathKey, Any]:
    """Values listed per path id, keyed by the paths' keys."""
    return {info.keys[p]: value for p, value in zip(ids, values)}


def keyed_allocations(outcome: RoutingOutcome, l_max: int) -> dict[Edge, dict[PathKey, int]]:
    """PS's allocation rows keyed as the keyed oracles hold them: row e by
    the edge ``info.edges[e]``, its entries by the paths
    ``info.kept(l_max).keys[e]``."""
    info = outcome.paths
    return {e: dict(zip(map(info.keys.__getitem__, ids), row, strict=True))
            for e, ids, row in zip(info.edges, info.kept(l_max).keys, outcome.allocations,
                                   strict=True)}


def truncate_keys(keys: Sequence[PathKey], lengths: dict[PathKey, int],
                  l_max: int) -> list[PathKey]:
    """``truncate_edge_paths`` over path keys, numbered in key order."""
    order = sorted(lengths)
    ids = {key: p for p, key in enumerate(order)}
    kept = truncate_edge_paths(sorted(ids[key] for key in keys), [r for r, _ in order],
                               [lengths[key] for key in order], l_max)
    return [order[p] for p in kept]


def progressive_fill_by_key(path_edges, capacity):
    """PF's core over paths given as key -> edges and capacities by edge."""
    info = info_from_path_edges(path_edges)
    return dict(zip(info.keys, _progressive_fill(info, [capacity[e] for e in info.edges])))


def propagatory_core_by_key(info: PathSet, l_max, capacity, f_min, alpha, beta):
    """PU's core with capacities by edge; desired capacities of the live paths by key."""
    kept = info.kept(l_max)
    f_max = _propagatory_core(info, kept, [capacity[e] for e in info.edges], f_min,
                              alpha, beta)
    return {info.keys[p]: f_max[p] for p in kept.live_paths}


# ------------------------------------------------------------ checks

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


def assert_kept_views(info: PathSet, l_max: int) -> None:
    """``info.kept(l_max)`` against the definitions of its fields, each
    rebuilt from H and the paths' edges and requests."""
    request_of = [r for r, _ in info.keys]
    kept, groups, live_keys, live_groups, live_paths = info.kept(l_max)
    assert len(kept) == len(info.edges)
    for ids, kept_ids in zip(info.values(), kept):
        assert kept_ids == truncate_edge_paths(ids, request_of, info.lengths, l_max)
    live = {p for p, edges in enumerate(info.edge_ids) if all(p in kept[e] for e in edges)}
    assert live_paths == sorted(live)
    assert live_keys == [[p for p in ids if p in live] for ids in kept]
    for view, grouped in ((kept, groups), (live_keys, live_groups)):
        assert len(grouped) == len(view)
        for ids, group in zip(view, grouped):
            requests = sorted({request_of[p] for p in ids})
            assert group == tuple(tuple(p for p in ids if request_of[p] == r)
                                  for r in requests)


# ------------------------------------------------------------ lattice

def expected_edge_count(rows: int, cols: int, kind: str) -> int:
    """Closed-form edge count for each topology kind."""
    horizontal = rows * (cols - 1)
    if kind == "square":
        return horizontal + cols * (rows - 1)
    if kind == "hexagonal":
        # brick wall: verticals only where (x + y) is even
        vertical = sum(1 for y in range(rows - 1) for x in range(cols) if (x + y) % 2 == 0)
        return horizontal + vertical
    if kind == "triangular":
        return horizontal + cols * (rows - 1) + (rows - 1) * (cols - 1)
    raise ValueError(f"unknown topology kind {kind!r}")


def reference_edge_masks(net: Network) -> EdgeMasks:
    """``Network.edge_masks`` built from scratch: each active edge ORed
    into its offset class and both endpoints' neighbour masks."""
    by_offset: dict[int, int] = {}
    neighbours = [0] * net.node_count
    for (u, v), on in zip(net.edges, net.active):
        if on:
            by_offset[v - u] = by_offset.get(v - u, 0) | 1 << u
            neighbours[u] |= 1 << v
            neighbours[v] |= 1 << u
    return EdgeMasks(tuple(sorted(by_offset.items())), tuple(neighbours))


# ------------------------------------------------------------ k shortest paths

def adjacency(net: Network) -> dict[int, list[int]]:
    """Sorted adjacency lists over the active edges of ``net``."""
    adj: dict[int, list[int]] = {n: [] for n in range(net.node_count)}
    for u, v in net.active_edges():
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj.values():
        lst.sort()
    return adj


def edge_keys(nodes: Sequence[int]) -> tuple[Edge, ...]:
    """The edges along the node sequence ``nodes``, each as (smaller, larger)."""
    return tuple((a, b) if a < b else (b, a) for a, b in zip(nodes, nodes[1:]))


def enumerate_loopless_paths(net, s, t):
    """Exhaustive DFS oracle: every simple s-t path over active edges,
    sorted by (length, node sequence)."""
    adj = adjacency(net)
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
    # a banned edge is banned in either direction
    banned_edges = banned_edges | {(b, a) for a, b in banned_edges}
    dist = {t: 0}
    frontier = [t]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in dist or v in banned_nodes or (u, v) in banned_edges:
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
            if v in banned_nodes or (u, v) in banned_edges:
                continue
            if dist.get(v, -1) == dist[u] - 1:
                nodes.append(v)
                u = v
                break
        else:  # unreachable when dist[s] is finite
            return None
    return tuple(nodes)


def reference_k_shortest_paths(net: Network, s: int, t: int, k: int) -> list[tuple[int, ...]]:
    """Reference Yen: full BFS per spur, banned edges as tuples, every spur
    index of every accepted path (no deviation-index restriction).

    Returns up to k loopless paths as node tuples, ordered by (length, node
    sequence); fewer when fewer exist, empty when s and t are disconnected in
    G'.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if s == t:
        raise ValueError("source and terminal must differ")
    adj = adjacency(net)
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
                edge_keys(p[i:i + 2])[0] for p in accepted if p[:i + 1] == root)
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
    return accepted


def yen_spurs(paths: Sequence[tuple[int, ...]],
              k: int) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """The spurs that Yen with Lawler's restriction visits, in visiting
    order, when its k shortest paths are ``paths`` (node tuples, in order):
    per spur index of an accepted path p, the root ``p[:i + 1]`` and the
    banned next hops, those of the paths accepted so far that share the
    root. Empty when the shortest-path DAG holds k paths and answers alone.

    Yen spurs every path it accepts but the k-th, each from the index at
    which it left its parent: the earlier path it shares the longest prefix
    with (index 0 for the first path). An eager Yen runs one spur search per
    spur, with these masks.
    """
    if not paths or (len(paths) == k and len(paths[-1]) == len(paths[0])):
        return []
    spurs = []
    for j, p in enumerate(paths if len(paths) < k else paths[:-1]):
        shared = [next((n for n, (a, b) in enumerate(zip(p, q)) if a != b), len(p))
                  for q in paths[:j]]
        for i in range(max(shared, default=1) - 1, len(p) - 1):
            root = p[:i + 1]
            spurs.append((root, frozenset(q[i + 1] for q in paths[:j + 1] if q[:i + 1] == root)))
    return spurs


# ------------------------------------------------------------ H and its rules
# Truncation, the two-stage rules and PS over path keys and edges. They
# check ``truncate_edge_paths``, the two-stage rules of ``qroute.scheduler``,
# ``PathSet.kept`` (through the schedulers) and PS through ``run_algorithm``.

def ordered_sum(values: Iterable[float]) -> float:
    """Floats added left to right from 0.0, as CPython 3.11's ``sum()`` adds
    them (3.12's compensates); the oracles add floats only this way."""
    total = 0.0
    for x in values:
        total += x
    return total


def reference_truncate_edge_paths(keys: Iterable[PathKey], lengths: dict[PathKey, int],
                                  l_max: int) -> list[PathKey]:
    """Keep at most l_max of one edge's path keys, preferring short paths.

    A path that is its request's only path on this edge is kept
    unconditionally, evicting the longest non-sole paths instead; if sole
    paths alone exceed l_max the shortest of them win. Result is in key order.
    """
    keys = sorted(keys)
    if len(keys) <= l_max:
        return keys
    counts = Counter(r for r, _ in keys)
    priority = lambda key: (lengths[key], key)
    soles = sorted((key for key in keys if counts[key[0]] == 1), key=priority)
    others = sorted((key for key in keys if counts[key[0]] > 1), key=priority)
    if len(soles) >= l_max:
        kept = soles[:l_max]
    else:
        kept = soles + others[:l_max - len(soles)]
    return sorted(kept)


def _by_request(keys: Iterable[PathKey]) -> dict[int, list[PathKey]]:
    """Keys grouped by request, requests and keys in key order."""
    by_request: dict[int, list[PathKey]] = {}
    for key in sorted(keys):
        by_request.setdefault(key[0], []).append(key)
    return by_request


def reference_two_stage_weights(keys: Iterable[PathKey], lengths: dict[PathKey, int],
                                alpha: float, beta: float) -> dict[PathKey, float]:
    """Real-valued per-path weights: request share ~ n_r^beta, then within a
    request shorter paths take more (share ~ d^-alpha). Weights sum to 1."""
    by_request = _by_request(keys)
    if not by_request:
        raise ValueError("empty key list")
    request_raw = {r: float(len(group)) ** beta for r, group in by_request.items()}
    request_total = ordered_sum(request_raw.values())
    weights: dict[PathKey, float] = {}
    for r, group in by_request.items():
        path_raw = [float(lengths[key]) ** -alpha for key in group]
        path_total = ordered_sum(path_raw)
        for key, raw in zip(group, path_raw):
            weights[key] = (request_raw[r] / request_total) * (raw / path_total)
    return weights


def reference_largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    """Hamilton apportionment of ``total`` units from its definition: each
    position takes its quota's floor, and the ``short = total - sum(floors)``
    positions with the largest remainders take one unit more, picked one at
    a time, a tie to the lower position."""
    base = [math.floor(q) for q in quotas]
    remainders = [q - b for q, b in zip(quotas, base)]
    picked: set[int] = set()
    for _ in range(total - sum(base)):
        picked.add(max((i for i in range(len(base)) if i not in picked),
                       key=lambda i: (remainders[i], -i)))
    return [b + (i in picked) for i, b in enumerate(base)]


def reference_apportion_two_stage(keys: Iterable[PathKey], lengths: dict[PathKey, int],
                                  total: int, path_exp: float,
                                  beta: float) -> dict[PathKey, int]:
    """Stage-wise integer apportionment: units go to requests by n_r^beta
    (ties by request id), then within each request by d^path_exp (ties by rank)."""
    by_request = _by_request(keys)
    request_raw = [float(len(group)) ** beta for group in by_request.values()]
    raw_total = ordered_sum(request_raw)
    request_units = reference_largest_remainder(
        [total * w / raw_total for w in request_raw], total)
    shares: dict[PathKey, int] = {}
    for group, units in zip(by_request.values(), request_units):
        path_raw = [float(lengths[key]) ** path_exp for key in group]
        path_total = ordered_sum(path_raw)
        path_units = reference_largest_remainder(
            [units * w / path_total for w in path_raw], units)
        shares.update(zip(group, path_units))
    return shares


def reference_kept(path_edges: dict[PathKey, tuple[Edge, ...]], lengths: dict[PathKey, int],
                   l_max: int) -> tuple[dict[Edge, list[PathKey]], dict[Edge, list[PathKey]],
                                        dict[PathKey, tuple[Edge, ...]]]:
    """H truncated to l_max keys per edge (edges sorted), the same without the
    paths that are not live (edges left with none dropped), and the live
    paths, those kept on every edge they cross, with their edges in key order."""
    on_edge: dict[Edge, list[PathKey]] = {}
    for key, edges in path_edges.items():
        for e in edges:
            on_edge.setdefault(e, []).append(key)
    kept = {e: reference_truncate_edge_paths(on_edge[e], lengths, l_max)
            for e in sorted(on_edge)}
    times_kept = Counter(key for keys in kept.values() for key in keys)
    live_paths = {key: edges for key, edges in sorted(path_edges.items())
                  if times_kept[key] == len(edges)}
    live_keys = {e: live for e, keys in kept.items()
                 if (live := [key for key in keys if key in live_paths])}
    return kept, live_keys, live_paths


def reference_proportional_share(net: Network, kept: dict[Edge, list[PathKey]],
                                 lengths: dict[PathKey, int],
                                 params: RoutingParams) -> dict[Edge, dict[PathKey, int]]:
    """Edge-local allocation over the kept keys: every kept path gets the
    f_min floor, the rest of the capacity is split by the two-stage
    proportional rule."""
    f_min = params.require_f_min()
    caps = net.capacity_map()
    allocations: dict[Edge, dict[PathKey, int]] = {}
    for e, keys in kept.items():
        spare = caps[e] - f_min * len(keys)
        if spare < 0:
            raise InvariantError(
                f"edge {e} kept below l_max * f_min; was Step 1 skipped?")
        extra = reference_apportion_two_stage(keys, lengths, spare, -params.alpha,
                                              params.beta)
        allocations[e] = {key: f_min + extra[key] for key in keys}
    return allocations


def reference_flow_determination(allocations: dict[Edge, dict[PathKey, int]],
                                 path_edges: dict[PathKey, tuple[Edge, ...]]
                                 ) -> dict[PathKey, int]:
    """Short-board constraint: a path's flow is its minimum per-edge allocation."""
    return {key: min(allocations.get(e, {}).get(key, 0) for e in edges)
            for key, edges in path_edges.items()}


# ------------------------------------------------------------ PF and PU
# PF by unit rounds, as the paper states it. PU twice: by unit steps, and by
# bulk steps that give the same result and are fast enough for whole windows.
# Both PU oracles take the live paths' keys per edge and their edges.

def unit_progressive_fill(path_edges, capacity):
    """Reference PF, one unit per round, as the paper states it.

    Before each round, any edge whose slack is below its active-path count
    saturates and freezes those paths; the sub-count leftover stays
    unallocated. Remaining active paths then all gain one unit.
    """
    flows = {key: 0 for key in sorted(path_edges)}
    on_edge = {}
    for key, edges in path_edges.items():
        for e in edges:
            on_edge.setdefault(e, []).append(key)
    usage = {e: 0 for e in on_edge}
    active = set(flows)
    while active:
        frozen = set()
        for e, keys in on_edge.items():
            n_active = sum(1 for key in keys if key in active)
            if n_active and capacity[e] - usage[e] < n_active:
                frozen.update(key for key in keys if key in active)
        active -= frozen
        for key in active:
            flows[key] += 1
            for e in path_edges[key]:
                usage[e] += 1
    return flows


def unit_propagatory_core(capacity, keys_by_edge, lengths, path_edges, f_min, alpha,
                          beta, hits=None):
    """Reference PU, one unit per residual deduction and per raise, in full
    passes over every edge until a pass changes nothing.

    ``hits`` (a Counter, optional) counts the units taken by the residual
    loop under "residual", the deductions whose residual took units from
    paths that started it at more than one level under "residual levels",
    and the units raised under "raise".
    """
    f_max = {key: min(capacity[e] for e in path_edges[key])
             for key in sorted(path_edges)}
    usage = {e: sum(f_max[key] for key in keys)
             for e, keys in keys_by_edge.items()}
    edges = sorted(keys_by_edge)

    def deduct(e):
        keys = keys_by_edge[e]
        excess = usage[e] - capacity[e]
        assigned = reference_apportion_two_stage(keys, lengths, excess, alpha, beta)
        removed = 0
        for key in keys:
            cut = min(assigned[key], f_max[key] - f_min)
            if cut > 0:
                f_max[key] -= cut
                for e2 in path_edges[key]:
                    usage[e2] -= cut
                removed += cut
        start = {}  # each key's desired capacity when the residual first took from it
        while removed < excess:
            # residual lands on the currently largest desired capacity
            key = min((key for key in keys if f_max[key] > f_min),
                      key=lambda k: (-f_max[k], k))
            start.setdefault(key, f_max[key])
            f_max[key] -= 1
            for e2 in path_edges[key]:
                usage[e2] -= 1
            removed += 1
            if hits is not None:
                hits["residual"] += 1
        if hits is not None:
            hits["residual levels"] += len(set(start.values())) > 1

    def raise_entries(e):
        weights = reference_two_stage_weights(keys_by_edge[e], lengths, alpha, beta)
        order = sorted(weights, key=lambda k: (-weights[k], k))
        changed = False
        while usage[e] < capacity[e]:
            for key in order:
                if all(usage[e2] + 1 <= capacity[e2] for e2 in path_edges[key]):
                    f_max[key] += 1
                    for e2 in path_edges[key]:
                        usage[e2] += 1
                    changed = True
                    if hits is not None:
                        hits["raise"] += 1
                    break
            else:
                break
        return changed

    changed = True
    while changed:
        # one full pass, most oversubscribed edges first; ratio recomputed each pass
        changed = False
        for e in sorted(edges, key=lambda e: (-usage[e] / capacity[e], e)):
            if usage[e] > capacity[e]:
                deduct(e)
                changed = True
            elif usage[e] < capacity[e]:
                changed = raise_entries(e) or changed
    return f_max


def reference_propagatory_core(capacity, keys_by_edge, lengths, path_edges, f_min,
                               alpha, beta):
    """Reference PU with bulk steps, in full passes over every edge until a
    pass changes nothing: a deduction cuts the tied top group in whole
    rounds, and a raise gives a path all its room at once. Every raise
    scans the path's edges for room and recomputes the edge's weight order.
    ``keys_by_edge`` must only contain live paths."""
    f_max = {key: min(capacity[e] for e in path_edges[key])
             for key in sorted(path_edges)}
    usage = {e: sum(f_max[key] for key in keys) for e, keys in keys_by_edge.items()}
    edges = sorted(keys_by_edge)

    def deduct(e):
        keys = keys_by_edge[e]
        excess = usage[e] - capacity[e]
        assigned = reference_apportion_two_stage(keys, lengths, excess, alpha, beta)
        removed = 0
        for key in keys:
            cut = min(assigned[key], f_max[key] - f_min)
            if cut > 0:
                f_max[key] -= cut
                for e2 in path_edges[key]:
                    usage[e2] -= cut
                removed += cut
        need = excess - removed
        while need:
            levels = sorted({f_max[key] for key in keys if f_max[key] > f_min},
                            reverse=True)
            if not levels:
                raise InvariantError(
                    f"edge {e}: {need} units of excess cannot be deducted above "
                    f"f_min = {f_min}")
            top = levels[0]
            group = sorted(key for key in keys if f_max[key] == top)
            if need < len(group):
                group, cut = group[:need], 1
            else:
                floor = levels[1] if len(levels) > 1 else f_min
                cut = min(top - floor, need // len(group))
            for key in group:
                f_max[key] -= cut
                for e2 in path_edges[key]:
                    usage[e2] -= cut
                need -= cut

    def raise_paths(e):
        weights = reference_two_stage_weights(keys_by_edge[e], lengths, alpha, beta)
        order = sorted(weights, key=lambda k: (-weights[k], k))
        changed = False
        for key in order:
            if usage[e] >= capacity[e]:
                break
            room = min(capacity[e2] - usage[e2] for e2 in path_edges[key])
            if room > 0:
                f_max[key] += room
                for e2 in path_edges[key]:
                    usage[e2] += room
                changed = True
        return changed

    changed = True
    while changed:
        # one full pass, most oversubscribed edges first; ratio recomputed each pass
        changed = False
        for e in sorted(edges, key=lambda e: (-usage[e] / capacity[e], e)):
            if usage[e] > capacity[e]:
                deduct(e)
                changed = True
            elif usage[e] < capacity[e]:
                changed = raise_paths(e) or changed
    return f_max


# ------------------------------------------------------------ purification

def reference_purify_network(net: Network, f_th: float) -> Network:
    """``purify_network`` as a loop over the edges with the per-edge rule
    written out: while an active edge is below f_th and holds two pairs,
    halve its capacity and pump its fidelity once; one still below f_th
    ends with zero capacity and is deactivated."""
    capacity, fidelity, active = [], [], []
    for c, f, on in zip(net.capacity, net.fidelity, net.active):
        if on:
            while f < f_th and c >= 2:
                c //= 2
                f = pump_fidelity(f)
            if f < f_th:
                c = 0
            on = c > 0
        capacity.append(c)
        fidelity.append(f)
        active.append(on)
    return replace(net, capacity=tuple(capacity), fidelity=tuple(fidelity),
                   active=tuple(active), phase="purified")


# ------------------------------------------------------------ metrics
# Every measure by its own pass over the flows by path key.

@dataclass
class KeyedOutcome:
    """An outcome as the keyed metrics read it: flows, lengths and edges by key."""

    flows: dict[PathKey, int]
    lengths: dict[PathKey, int]
    path_edges: dict[PathKey, tuple[Edge, ...]]

    @classmethod
    def of(cls, outcome: RoutingOutcome) -> "KeyedOutcome":
        paths = outcome.paths
        return cls(outcome.flows, dict(zip(paths.keys, paths.lengths)), paths.path_edges)

    def request_ids(self) -> list[int]:
        return sorted({r for r, _ in self.flows})

    def request_flow(self, request_id: int) -> int:
        return sum(f for (r, _), f in self.flows.items() if r == request_id)

    def edge_usage(self) -> dict[Edge, int]:
        usage: dict[Edge, int] = {}
        for key, flow in self.flows.items():
            if flow <= 0:
                continue
            for e in self.path_edges[key]:
                usage[e] = usage.get(e, 0) + flow
        return dict(sorted(usage.items()))


def reference_per_request_throughput(outcome: KeyedOutcome, requests: Sequence[Request],
                                     p_in: float) -> dict[int, float]:
    """w_r * sum_l f^{r,l} * p_in^(d-1) for every request (0 when pathless)."""
    terms = {r.id: 0.0 for r in requests}
    weights = {r.id: r.weight for r in requests}
    for (r, l), flow in outcome.flows.items():
        if flow > 0:
            d = outcome.lengths[(r, l)]
            terms[r] += weights[r] * flow * p_in ** (d - 1)
    return terms


def reference_utilization_stats(outcome: KeyedOutcome,
                                net: Network) -> tuple[float, float, bool]:
    """U_ave and U_var over used/capacity of the edges carrying flow, in
    edge order, and whether there are none."""
    caps = net.capacity_map()
    usage = outcome.edge_usage()
    u = {e: used / caps[e] for e, used in usage.items() if used > 0}
    if not u:
        return 0.0, 0.0, True
    values = np.fromiter(u.values(), dtype=float)
    return float(values.mean()), float(values.var()), False


def reference_stretch_factor(outcome: KeyedOutcome) -> tuple[dict[int, float], float, bool]:
    per_request: dict[int, float] = {}
    for r in outcome.request_ids():
        total = weighted = 0
        for (rid, l), flow in outcome.flows.items():
            if rid == r and flow > 0:
                total += flow
                weighted += flow * outcome.lengths[(rid, l)]
        if total > 0:
            per_request[r] = weighted / (outcome.lengths[(r, 0)] * total)
    if not per_request:
        return {}, 0.0, True
    return per_request, float(np.mean(list(per_request.values()))), False


def reference_jain_requests(outcome: KeyedOutcome,
                            requests: Sequence[Request]) -> tuple[float, bool]:
    if not requests:
        raise ValueError("at least one request is required")
    shares = [r.weight * outcome.request_flow(r.id) for r in requests]
    denom = len(requests) * ordered_sum(s * s for s in shares)
    if denom == 0:
        return 0.0, True
    return ordered_sum(shares) ** 2 / denom, False


def reference_jain_paths(outcome: KeyedOutcome,
                         requests: Sequence[Request]) -> tuple[float, float, bool]:
    if not requests:
        raise ValueError("at least one request is required")
    weights = {r.id: r.weight for r in requests}
    numer = ordered_sum(weights[r] * f for (r, _), f in outcome.flows.items()) ** 2
    sq = ordered_sum(weights[r] ** 2 * f * f for (r, _), f in outcome.flows.items())
    if sq == 0:
        return 0.0, 0.0, True
    n_paths = len(outcome.flows)
    return numer / (len(requests) * sq), numer / (n_paths * sq), False


def reference_evaluate(outcome: KeyedOutcome, net: Network, requests: Sequence[Request],
                       p_in: float) -> MetricsReport:
    """Every measure by its own pass over the keyed flows."""
    flags: list[str] = []
    u_ave, u_var, no_traffic = reference_utilization_stats(outcome, net)
    if no_traffic:
        flags.append("no_traffic")
    per_req_stretch, stretch, stretch_undef = reference_stretch_factor(outcome)
    if stretch_undef:
        flags.append("stretch_undefined")
    j_req, j_req_undef = reference_jain_requests(outcome, requests)
    if j_req_undef:
        flags.append("jain_req_undefined")
    j_path, j_path_norm, j_path_undef = reference_jain_paths(outcome, requests)
    if j_path_undef:
        flags.append("jain_path_undefined")
    elif j_path > 1.0:
        flags.append("jain_path_above_one")
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in must be in [0, 1], got {p_in}")
    terms = reference_per_request_throughput(outcome, requests, p_in)
    return MetricsReport(
        throughput=ordered_sum(terms.values()),
        min_flow=min(terms.values()),
        u_ave=u_ave,
        u_var=u_var,
        stretch_per_request=per_req_stretch,
        stretch=stretch,
        jain_requests=j_req,
        jain_paths=j_path,
        jain_paths_normalized=j_path_norm,
        demand_satisfied={r.id: outcome.request_flow(r.id) >= r.demand for r in requests},
        flags=tuple(flags),
    )


# ------------------------------------------------------------ one window
# Steps 0-2 in one function, with the reference Yen, then every algorithm
# on the window's one PathSet. It is the oracle for ``harness.run_trial`` and,
# through the per-point sweeps below, for the sweep engine. The demand warning
# is left out; records are what it checks, without their wall-clock fields.

def reference_prepare_trial(config: ExperimentConfig, seed: int) -> TrialContext:
    """Steps 0-2: initialize, purify, revise topology, and enumerate paths."""
    rng = np.random.default_rng(seed)
    net = build_lattice(config.rows, config.cols, config.kind)
    net = sample_edge_states(net, config.scenario, rng)
    requests = _resolve_requests(config, net, rng)
    purified = reference_purify_network(net, config.scenario.f_th)
    revised = deactivate_low_capacity_edges(purified, config.routing.l_max)
    f_min = compute_f_min(revised, config.routing.l_max) if revised.active_edges() else 0
    return reference_with_paths(TrialContext(seed, revised, requests,
                                             replace(config.routing, f_min=f_min), {}))


def reference_with_paths(ctx: TrialContext) -> TrialContext:
    """``harness._with_paths`` through the reference Yen
    (``reference_k_shortest_paths``) per request on the context's network."""
    if not ctx.revised.active_edges():
        return replace(ctx, reason="no_active_edges")
    paths = {r.id: reference_k_shortest_paths(ctx.revised, r.source, r.terminal, ctx.params.k)
             for r in ctx.requests}
    return replace(ctx, paths=paths, reason=None if any(paths.values()) else "no_paths")


def reference_route_all(net: Network, paths: dict[int, list[tuple[int, ...]]],
                        requests: Sequence[Request], params: RoutingParams,
                        algorithms: Sequence[str],
                        p_in: float) -> dict[str, AlgorithmResult]:
    """Steps 3-5 for every selected algorithm on one realized network, each
    scored by ``reference_evaluate``; the outcomes share the window's one
    PathSet."""
    info = build_path_info(net, paths, params.l_max)
    results: dict[str, AlgorithmResult] = {}
    for name in algorithms:
        outcome = run_algorithm(name, net, info, params)
        report = reference_evaluate(KeyedOutcome.of(outcome), net, requests, p_in)
        results[name] = AlgorithmResult(outcome, report)
    return results


def reference_zero_results(algorithms: Sequence[str], requests: Sequence[Request],
                           reason: str) -> dict[str, AlgorithmResult]:
    return {name: AlgorithmResult(RoutingOutcome(name, {}, info_from_path_edges({}, {})),
                                  zero_report(requests, reason))
            for name in algorithms}


def reference_run_trial(config: ExperimentConfig, seed: int) -> TrialRecord:
    """One full processing window, Steps 0-5, on a paired realized network."""
    ctx = reference_prepare_trial(config, seed)
    summary = _summarize(ctx.revised)
    if ctx.reason is not None:
        results = reference_zero_results(config.algorithms, ctx.requests, ctx.reason)
    else:
        results = reference_route_all(ctx.revised, ctx.paths, ctx.requests, ctx.params,
                                      config.algorithms, config.scenario.p_in)
    paths = next(iter(results.values())).outcome.paths
    caps = ctx.revised.capacity_map()
    return TrialRecord(seed, ctx.params, ctx.requests, summary, results, reason=ctx.reason,
                       capacities=tuple(caps[e] for e in paths.edges))


def reference_replicate(config: ExperimentConfig) -> tuple[
        list[TrialRecord], dict[str, dict[str, tuple[float, float]]]]:
    """``replicate`` over ``reference_run_trial``: seeds base_seed + i."""
    records = [reference_run_trial(config, config.base_seed + i)
               for i in range(config.replications)]
    return records, aggregate_reports({name: [rec.results[name].report for rec in records]
                                       for name in config.algorithms})


# ------------------------------------------------------------ record encoding
# Every dict is re-encoded and sorted where it is written. It is the oracle
# for the one-pass serializer ``reports.record_to_dict``.

def reference_outcome_to_dict(outcome: RoutingOutcome, l_max: int) -> dict:
    data = {
        "algorithm": outcome.algorithm,
        "flows": [v for _, v in sorted(outcome.flows.items())],
    }
    if outcome.allocations is not None:
        # PS's rows keyed by the edges and kept keys of ``reference_kept``,
        # then one list per edge, in edge order, of its allocations in key order
        paths = outcome.paths
        kept = reference_kept(paths.path_edges, dict(zip(paths.keys, paths.lengths)),
                              l_max)[0]
        alloc = {e: dict(zip(keys, row, strict=True))
                 for (e, keys), row in zip(kept.items(), outcome.allocations, strict=True)}
        data["allocations"] = [[v for _, v in sorted(a.items())]
                               for _, a in sorted(alloc.items())]
    return data


def reference_report_to_dict(report: MetricsReport) -> dict:
    return {
        "throughput": report.throughput,
        "min_flow": report.min_flow,
        "u_ave": report.u_ave,
        "u_var": report.u_var,
        "stretch_per_request": {str(r): g for r, g
                                in sorted(report.stretch_per_request.items())},
        "stretch": report.stretch,
        "jain_requests": report.jain_requests,
        "jain_paths": report.jain_paths,
        "jain_paths_normalized": report.jain_paths_normalized,
        "demand_satisfied": {str(r): ok for r, ok in sorted(report.demand_satisfied.items())},
        "flags": list(report.flags),
    }


def reference_record_to_dict(record: TrialRecord) -> dict:
    # a record's outcomes share one path set, so its paths are written once:
    # keys in sorted order, the sorted set of their edges, and each path's
    # edges as indices into it
    paths = sorted(next(iter(record.results.values())).outcome.paths.path_edges.items())
    edges = sorted({e for _, route in paths for e in route})
    index = {e: j for j, e in enumerate(edges)}
    return {
        "seed": record.seed,
        "params": {"k": record.params.k, "l_max": record.params.l_max,
                   "alpha": record.params.alpha, "beta": record.params.beta,
                   "f_min": record.params.f_min},
        "requests": [{"id": r.id, "source": r.source, "terminal": r.terminal,
                      "demand": r.demand, "weight": r.weight}
                     for r in record.requests],
        "network": vars(record.network).copy(),
        "paths": {
            "keys": [[r, rank] for (r, rank), _ in paths],
            "edges": [[u, v] for u, v in edges],
            "edge_ids": [[index[e] for e in route] for _, route in paths],
            "capacities": list(record.capacities),
        },
        "results": {name: {"outcome": reference_outcome_to_dict(res.outcome, record.params.l_max),
                           "report": reference_report_to_dict(res.report),
                           "schedule_seconds": 0.0}
                    for name, res in record.results.items()},
        "stage_seconds": {},
        "reason": record.reason,
    }


# ------------------------------------------------------------ per-point sweeps
# Every grid point (or request count) re-runs whole windows through
# ``reference_replicate``. They are the oracles for
# ``harness.grid_search_parameters`` and ``harness.request_sweep``.

def reference_grid_search(config: ExperimentConfig) -> tuple[
        dict[str, tuple[RoutingParams, float]], list[dict]]:
    """Brute-force argmax of the objective's replication mean per grid point.

    Returns the per-algorithm best point and the full evaluation table.
    """
    points = parameter_grid(config)
    if not points:
        raise ValueError("empty parameter grid")
    best: dict[str, tuple[RoutingParams, float]] = {}
    table: list[dict] = []
    for params in points:
        cfg = replace(config, routing=params, routing_grid={})
        records, agg = reference_replicate(cfg)
        for name in config.algorithms:
            values = [objective_value(rec.results[name].report, config.objective)
                      for rec in records]
            mean_obj = float(np.mean(values))
            row = {"algorithm": name, "l_max": params.l_max, "k": params.k,
                   "alpha": params.alpha, "beta": params.beta,
                   "objective": mean_obj}
            for m in METRIC_FIELDS:
                row[f"{m}_mean"], row[f"{m}_stderr"] = agg[name][m]
            table.append(row)
            if name not in best or mean_obj > best[name][1]:
                best[name] = (params, mean_obj)
    return best, table


def reference_request_sweep(config: ExperimentConfig,
                            counts: Iterable[int] = range(2, 11)) -> list[dict]:
    """Replicated trials per request count with arbitrary [s, t] pairs."""
    rows = []
    for count in counts:
        spec = replace(config.requests, count=count, distance=None, pairs=None)
        cfg = replace(config, requests=spec)
        _, agg = reference_replicate(cfg)
        for name in config.algorithms:
            row = {"requests": count, "algorithm": name}
            for m in METRIC_FIELDS:
                row[f"{m}_mean"], row[f"{m}_stderr"] = agg[name][m]
            row["F_per_request"] = row["F_mean"] / count
            rows.append(row)
    return rows


# ------------------------------------------------------------ config parsing
# One hand-written get/check pair per key, defaults repeated from the
# dataclasses. It is the oracle for the table-driven parser
# ``qroute.config.config_from_mapping``.

def _scalar(value, path, lines, kind, lo=None, hi=None, lo_open=False):
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(path, lines, f"expected an integer, got {value!r}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, lines, f"expected a number, got {value!r}")
        value = float(value)
    if lo is not None and (value <= lo if lo_open else value < lo):
        _fail(path, lines, f"value {value} below allowed range")
    if hi is not None and value > hi:
        _fail(path, lines, f"value {value} above allowed range")
    return value


def _scalar_or_grid(value, path, lines, kind, lo=None):
    """Routing parameters accept a single value or a list (sweep grid)."""
    if isinstance(value, list):
        if not value:
            _fail(path, lines, "grid list must not be empty")
        return tuple(sorted({_scalar(v, path, lines, kind, lo=lo) for v in value}))
    return _scalar(value, path, lines, kind, lo=lo)


_SECTIONS = ("lattice", "scenario", "routing", "requests", "experiment")
_KEYS = {
    "lattice": ("rows", "cols", "kind"),
    "scenario": ("c0", "f_mean", "f_std", "f_th", "p_in", "p_out"),
    "routing": ("k", "l_max", "alpha", "beta"),
    "requests": ("count", "distance", "pairs", "demand", "weight"),
    "experiment": ("algorithms", "replications", "base_seed", "pi1", "pi2", "pi3"),
}


def reference_config_from_mapping(doc: dict, lines: dict[str, int] | None = None,
                        source: str = "file") -> ExperimentConfig:
    """Validate a parsed document and fill missing keys from the defaults."""
    lines = lines or {}
    if not isinstance(doc, dict):
        raise ConfigError("top level must be a mapping of sections")
    for section in doc:
        if section not in _SECTIONS:
            _fail(section, lines, "unknown section")
        body = doc[section]
        if body is None:
            body = {}
        if not isinstance(body, dict):
            _fail(section, lines, "section must be a mapping")
        for key in body:
            if key not in _KEYS[section]:
                _fail(f"{section}.{key}", lines, "unknown key")

    provenance: dict[str, str] = {
        f"{section}.{key}": "default" for section in _SECTIONS
        for key in _KEYS[section]}

    def get(section, key, default):
        body = doc.get(section) or {}
        if key in body:
            provenance[f"{section}.{key}"] = source
            return body[key], f"{section}.{key}"
        return default, f"{section}.{key}"

    rows, p = get("lattice", "rows", 8)
    rows = _scalar(rows, p, lines, int, lo=2)
    cols, p = get("lattice", "cols", 8)
    cols = _scalar(cols, p, lines, int, lo=2)
    kind, p = get("lattice", "kind", "square")
    if kind not in TOPOLOGIES:
        _fail(p, lines, f"expected one of {TOPOLOGIES}, got {kind!r}")

    sc: dict[str, Any] = {}
    sc["c0"], p = get("scenario", "c0", 100)
    sc["c0"] = _scalar(sc["c0"], p, lines, int, lo=1)
    for key, default, bounds in (("f_mean", 0.8, (0.0, 1.0)),
                                 ("f_std", 0.1, (0.0, None)),
                                 ("p_in", 0.9, (0.0, 1.0)),
                                 ("p_out", 0.8, (0.0, 1.0))):
        value, p = get("scenario", key, default)
        sc[key] = _scalar(value, p, lines, float, lo=bounds[0], hi=bounds[1])
    value, p = get("scenario", "f_th", 0.8)
    sc["f_th"] = _scalar(value, p, lines, float, lo=0.0, hi=1.0, lo_open=True)
    scenario = ScenarioParams(**sc)

    grid: dict[str, tuple] = {}
    routing_values: dict[str, Any] = {}
    for key, default, kind_, lo in (("k", 10, int, 1), ("l_max", 10, int, 1),
                                    ("alpha", 1.0, float, None),
                                    ("beta", 1.0, float, None)):
        value, p = get("routing", key, default)
        parsed = _scalar_or_grid(value, p, lines, kind_, lo=lo)
        if isinstance(parsed, tuple):
            grid[key] = parsed
            routing_values[key] = parsed[0]
        else:
            routing_values[key] = parsed
    routing = RoutingParams(**routing_values)

    count, p = get("requests", "count", 2)
    count = _scalar(count, p, lines, int, lo=1)
    pairs, p = get("requests", "pairs", None)
    if pairs is not None:
        if (not isinstance(pairs, list) or not pairs
                or not all(isinstance(pair, list) and len(pair) == 2
                           and all(isinstance(n, int) for n in pair) for pair in pairs)):
            _fail(p, lines, "expected a list of [source, terminal] node pairs")
        for s, t in pairs:
            for node in (s, t):
                if not 0 <= node < rows * cols:
                    _fail(p, lines, f"node {node} is outside the {rows}x{cols} lattice")
            if s == t:
                _fail(p, lines, f"source and terminal must differ, got [{s}, {t}]")
        pairs = tuple((s, t) for s, t in pairs)
    distance, p = get("requests", "distance", 3)
    if distance is not None:
        distance = _scalar(distance, p, lines, int, lo=1)
        # the distance only matters when requests are drawn, not pinned
        if pairs is None and distance > min(rows, cols) - 1:
            _fail(p, lines, f"no node pair at offset ({distance}, {distance}) "
                            f"in a {rows}x{cols} lattice")
    demand, p = get("requests", "demand", 10)
    demand = _scalar(demand, p, lines, int, lo=1)
    weight, p = get("requests", "weight", 1.0)
    weight = _scalar(weight, p, lines, float, lo=0.0, lo_open=True)
    requests = RequestSpec(count, distance, pairs, demand, weight)

    algorithms, p = get("experiment", "algorithms", list(ALGORITHMS))
    if (not isinstance(algorithms, list) or not algorithms
            or any(a not in ALGORITHMS for a in algorithms)):
        _fail(p, lines, f"expected a non-empty subset of {ALGORITHMS}")
    replications, p = get("experiment", "replications", 200)
    replications = _scalar(replications, p, lines, int, lo=1)
    base_seed, p = get("experiment", "base_seed", 7)
    base_seed = _scalar(base_seed, p, lines, int)
    pis = []
    for key in ("pi1", "pi2", "pi3"):
        value, p = get("experiment", key, 1.0)
        pis.append(_scalar(value, p, lines, float))

    return ExperimentConfig(
        rows=rows, cols=cols, kind=kind, scenario=scenario, routing=routing,
        routing_grid=grid, requests=requests, algorithms=tuple(algorithms),
        replications=replications, base_seed=base_seed,
        objective=ObjectiveWeights(*pis), provenance=provenance)
