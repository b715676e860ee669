"""Shared test helpers: independent oracles and instance generators."""
import heapq
from collections import Counter
from dataclasses import replace
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from qroute.config import ConfigError, _fail
from qroute.harness import (METRIC_FIELDS, ExperimentConfig, ObjectiveWeights, RequestSpec,
                            objective_value, parameter_grid, replicate)
from qroute.netmodel import TOPOLOGIES, Edge, Network, ScenarioParams
from qroute.pathfinder import Path, PathKey, PathSet, edge_key
from qroute.scheduler import (ALGORITHMS, RoutingParams, _apportion_two_stage,
                              largest_remainder, two_stage_weights)


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


def reference_k_shortest_paths(net: Network, s: int, t: int, k: int,
                               request_id: int = 0) -> list[Path]:
    """Reference Yen: full BFS per spur, banned edges as tuples, every spur
    index of every accepted path (no deviation-index restriction).

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
    """Reference PU, one unit per residual deduction and per raise.

    ``hits`` (a Counter, optional) counts the units taken by the residual
    loop under "residual" and the units raised under "raise".
    """
    f_max = {key: min(capacity[e] for e in path_edges[key])
             for key in sorted(path_edges)}
    usage = {e: sum(f_max[key] for key in keys)
             for e, keys in keys_by_edge.items()}
    edges = sorted(keys_by_edge)

    def deduct(e):
        keys = keys_by_edge[e]
        excess = usage[e] - capacity[e]
        assigned = _apportion_two_stage(keys, lengths, excess, alpha, beta)
        removed = 0
        for key in keys:
            cut = min(assigned[key], f_max[key] - f_min)
            if cut > 0:
                f_max[key] -= cut
                for e2 in path_edges[key]:
                    usage[e2] -= cut
                removed += cut
        while removed < excess:
            # residual lands on the currently largest desired capacity
            key = min((key for key in keys if f_max[key] > f_min),
                      key=lambda k: (-f_max[k], k))
            f_max[key] -= 1
            for e2 in path_edges[key]:
                usage[e2] -= 1
            removed += 1
            if hits is not None:
                hits["residual"] += 1

    def raise_entries(e):
        weights = two_stage_weights(keys_by_edge[e], lengths, alpha, beta)
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

    silent = 0
    while edges and silent < len(edges):
        # most oversubscribed edges first; ratio recomputed each pass
        order = sorted(edges, key=lambda e: (-usage[e] / capacity[e], e))
        for e in order:
            if usage[e] > capacity[e]:
                deduct(e)
                changed = True
            elif usage[e] < capacity[e]:
                changed = raise_entries(e)
            else:
                changed = False
            silent = 0 if changed else silent + 1
            if silent >= len(edges):
                break
    return f_max


# ------------------------------------------------------------ entry-based H
# Truncation and the two-stage rules as they were when H held one
# [r, l, d, o] entry per path and edge, copied unchanged over a local entry
# tuple. They are the oracles for the key-based versions in ``qroute``.

class Entry(NamedTuple):
    """Per-edge bookkeeping tuple [r, l, d, o]."""

    request_id: int
    path_rank: int
    path_length: int
    edge_order: int

    @property
    def key(self) -> PathKey:
        return (self.request_id, self.path_rank)


def reference_truncate_edge_paths(entries: Sequence[Entry], l_max: int) -> list[Entry]:
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


def reference_two_stage_weights(entries: Sequence[Entry], alpha: float,
                                beta: float) -> dict[PathKey, float]:
    """Real-valued per-entry weights: request share ~ n_r^beta, then within a
    request shorter paths take more (share ~ d^-alpha). Weights sum to 1."""
    if not entries:
        raise ValueError("empty entry list")
    by_request: dict[int, list[Entry]] = {}
    for h in sorted(entries, key=lambda h: h.key):
        by_request.setdefault(h.request_id, []).append(h)
    request_raw = {r: float(len(group)) ** beta for r, group in by_request.items()}
    request_total = sum(request_raw.values())
    weights: dict[PathKey, float] = {}
    for r, group in by_request.items():
        path_raw = [float(h.path_length) ** -alpha for h in group]
        path_total = sum(path_raw)
        for h, raw in zip(group, path_raw):
            weights[h.key] = (request_raw[r] / request_total) * (raw / path_total)
    return weights


def reference_apportion_two_stage(entries: Sequence[Entry], total: int,
                                  path_exp: float, beta: float) -> dict[PathKey, int]:
    """Stage-wise integer apportionment: units go to requests by n_r^beta
    (ties by request id), then within each request by d^path_exp (ties by rank)."""
    ordered = sorted(entries, key=lambda h: h.key)
    by_request: dict[int, list[Entry]] = {}
    for h in ordered:
        by_request.setdefault(h.request_id, []).append(h)
    requests = list(by_request)
    request_raw = [float(len(by_request[r])) ** beta for r in requests]
    raw_total = sum(request_raw)
    request_units = largest_remainder(
        [total * w / raw_total for w in request_raw], total)
    shares: dict[PathKey, int] = {}
    for r, units in zip(requests, request_units):
        group = by_request[r]
        path_raw = [float(h.path_length) ** path_exp for h in group]
        path_total = sum(path_raw)
        path_units = largest_remainder(
            [units * w / path_total for w in path_raw], units)
        for h, x in zip(group, path_units):
            shares[h.key] = x
    return shares


# ------------------------------------------------------------ per-point sweeps
# The grid loops as they were before the sweep engine: every grid point (or
# request count) re-runs whole windows through ``replicate``. They are the
# oracles for ``harness.grid_search_parameters`` and ``harness.request_sweep``.

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
        records, agg = replicate(cfg)
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
        _, agg = replicate(cfg)
        for name in config.algorithms:
            row = {"requests": count, "algorithm": name}
            for m in METRIC_FIELDS:
                row[f"{m}_mean"], row[f"{m}_stderr"] = agg[name][m]
            row["F_per_request"] = row["F_mean"] / count
            rows.append(row)
    return rows


# ------------------------------------------------------------ config parsing
# ``config_from_mapping`` as it was before the key table: one hand-written
# get/check pair per key, defaults repeated from the dataclasses. It is the
# oracle for the table-driven parser in ``qroute.config``.

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
