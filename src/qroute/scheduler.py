"""Capacity-allocation scheduling: proportional share (PS), progressive
filling (PF), propagatory update (PU), and the short-board flow determination."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .netmodel import Edge, InvariantError, Network
from .pathfinder import PathKey, PathSet

ALGORITHMS = ("PS", "PF", "PU")


@dataclass
class RoutingParams:
    """Free parameters X = {l_max, k, alpha, beta}; f_min is derived per window."""

    k: int = 10
    l_max: int = 10
    alpha: float = 1.0
    beta: float = 1.0
    f_min: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.l_max < 1:
            raise ValueError(f"l_max must be >= 1, got {self.l_max}")

    def require_f_min(self) -> int:
        if self.f_min is None:
            raise ValueError("f_min has not been derived; call compute_f_min first")
        return self.f_min


@dataclass
class ScheduleTable:
    """PS/PU per-edge, per-path allocated capacities; PU also keeps the desired table."""

    allocations: dict[Edge, dict[PathKey, int]]
    desired: dict[PathKey, int] | None = None


@dataclass
class RoutingOutcome:
    """Integer flows per path plus the bookkeeping metrics need."""

    algorithm: str
    flows: dict[PathKey, int]
    lengths: dict[PathKey, int]
    path_edges: dict[PathKey, tuple[Edge, ...]]
    schedule: ScheduleTable | None = field(default=None, compare=False)

    def request_ids(self) -> list[int]:
        return sorted({r for r, _ in self.flows})

    def request_flow(self, request_id: int) -> int:
        return sum(f for (r, _), f in self.flows.items() if r == request_id)

    def edge_usage(self) -> dict[Edge, int]:
        """Flow per utilized edge, sorted by edge; computed once per outcome,
        so callers must not mutate it (or ``flows``) afterwards."""
        return self._edge_usage

    @cached_property
    def _edge_usage(self) -> dict[Edge, int]:
        usage: dict[Edge, int] = {}
        for key, flow in self.flows.items():
            if flow <= 0:
                continue
            for e in self.path_edges[key]:
                usage[e] = usage.get(e, 0) + flow
        return dict(sorted(usage.items()))


def compute_f_min(net: Network, l_max: int) -> int:
    """Guaranteed per-path floor: floor(min active capacity / l_max).

    Call after deactivate_low_capacity_edges so the result is >= 1.
    """
    caps = net.capacity_map().values()
    if not caps:
        raise ValueError("no active edges")
    return min(caps) // l_max


def _by_request(keys: Sequence[PathKey]) -> dict[int, list[PathKey]]:
    """Keys in key order, grouped by request id (requests in id order)."""
    by_request: dict[int, list[PathKey]] = {}
    for key in sorted(keys):
        by_request.setdefault(key[0], []).append(key)
    return by_request


def two_stage_weights(keys: Sequence[PathKey], lengths: dict[PathKey, int],
                      alpha: float, beta: float) -> dict[PathKey, float]:
    """Real-valued per-path weights: request share ~ n_r^beta, then within a
    request shorter paths take more (share ~ d^-alpha). Weights sum to 1."""
    if not keys:
        raise ValueError("empty key list")
    by_request = _by_request(keys)
    request_raw = {r: float(len(group)) ** beta for r, group in by_request.items()}
    request_total = sum(request_raw.values())
    weights: dict[PathKey, float] = {}
    for r, group in by_request.items():
        path_raw = [float(lengths[key]) ** -alpha for key in group]
        path_total = sum(path_raw)
        for key, raw in zip(group, path_raw):
            weights[key] = (request_raw[r] / request_total) * (raw / path_total)
    return weights


def largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    """Hamilton apportionment of ``total`` units; ties favor earlier positions."""
    base = [math.floor(q) for q in quotas]
    short = total - sum(base)
    if not 0 <= short <= len(base):
        raise InvariantError(f"quotas {list(quotas)} do not sum to total {total}")
    order = sorted(range(len(base)), key=lambda i: (base[i] - quotas[i], i))
    for i in order[:short]:
        base[i] += 1
    return base


def _apportion_two_stage(keys: Sequence[PathKey], lengths: dict[PathKey, int],
                         total: int, path_exp: float, beta: float) -> dict[PathKey, int]:
    """Stage-wise integer apportionment: units go to requests by n_r^beta
    (ties by request id), then within each request by d^path_exp (ties by rank)."""
    by_request = _by_request(keys)
    requests = list(by_request)
    request_raw = [float(len(by_request[r])) ** beta for r in requests]
    raw_total = sum(request_raw)
    request_units = largest_remainder(
        [total * w / raw_total for w in request_raw], total)
    shares: dict[PathKey, int] = {}
    for r, units in zip(requests, request_units):
        group = by_request[r]
        path_raw = [float(lengths[key]) ** path_exp for key in group]
        path_total = sum(path_raw)
        path_units = largest_remainder(
            [units * w / path_total for w in path_raw], units)
        for key, x in zip(group, path_units):
            shares[key] = x
    return shares


def proportional_share(net: Network, info: PathSet,
                       params: RoutingParams) -> ScheduleTable:
    """Edge-local allocation: every kept path gets the f_min floor, the rest
    of the capacity is split by the two-stage proportional rule."""
    f_min = params.require_f_min()
    caps = net.capacity_map()
    allocations: dict[Edge, dict[PathKey, int]] = {}
    for e, kept in info.kept(params.l_max)[0].items():
        spare = caps[e] - f_min * len(kept)
        if spare < 0:
            raise InvariantError(
                f"edge {e} kept below l_max * f_min; was Step 1 skipped?")
        extra = _apportion_two_stage(kept, info.lengths, spare, -params.alpha, params.beta)
        allocations[e] = {key: f_min + extra[key] for key in kept}
    return ScheduleTable(allocations)


def flow_determination(table: ScheduleTable, info: PathSet) -> RoutingOutcome:
    """Short-board constraint: a path's flow is its minimum per-edge allocation."""
    flows = {key: min(table.allocations.get(e, {}).get(key, 0) for e in edges)
             for key, edges in info.path_edges.items()}
    return RoutingOutcome("PS", flows, info.lengths, info.path_edges, schedule=table)


def _progressive_fill(info: PathSet, capacity: dict[Edge, int]) -> dict[PathKey, int]:
    """Progressive filling with integer saturation, one freeze event at a time.

    The defining rule runs in rounds: before each round, any edge whose slack
    is below its active-path count saturates and freezes those paths (the
    sub-count leftover stays unallocated); the remaining active paths then
    all gain one unit. Between two freeze events the rounds only repeat, and
    the next event comes after ``min_e floor(slack_e / n_active_e)`` rounds,
    so this jumps there at once and gives the same flows as the round-by-round
    rule in at most #paths + 1 steps.
    """
    path_edges = info.path_edges
    flows = dict.fromkeys(path_edges, 0)
    usage = dict.fromkeys(info, 0)
    n_active = {e: len(keys) for e, keys in info.items()}
    active = set(flows)
    while active:
        frozen = {key for e, keys in info.items()
                  if capacity[e] - usage[e] < n_active[e]
                  for key in keys if key in active}
        active -= frozen
        for key in frozen:
            for e in path_edges[key]:
                n_active[e] -= 1
        # every edge still carrying active paths has slack >= n_active here
        rounds = min(((capacity[e] - usage[e]) // n for e, n in n_active.items() if n),
                     default=0)
        for key in active:
            flows[key] += rounds
            for e in path_edges[key]:
                usage[e] += rounds
    return flows


def progressive_filling(net: Network, info: PathSet) -> RoutingOutcome:
    """Round-based water filling over all enumerated paths (no truncation,
    no f_min); the short-board constraint is built in."""
    flows = _progressive_fill(info, net.capacity_map())
    return RoutingOutcome("PF", flows, info.lengths, info.path_edges)


def _propagatory_core(capacity: dict[Edge, int],
                      keys_by_edge: dict[Edge, list[PathKey]],
                      lengths: dict[PathKey, int],
                      path_edges: dict[PathKey, tuple[Edge, ...]],
                      f_min: int, alpha: float, beta: float) -> dict[PathKey, int]:
    """Iterate deduction/update passes over the desired-capacity table until a
    full pass changes nothing. ``keys_by_edge`` must only contain live paths."""
    f_max = {key: min(capacity[e] for e in path_edges[key])
             for key in sorted(path_edges)}
    usage = {e: sum(f_max[key] for key in keys) for e, keys in keys_by_edge.items()}
    edges = sorted(keys_by_edge)

    def deduct(e: Edge) -> None:
        """Cut the apportioned excess (never below f_min), then the residual.

        The residual rule takes one unit at a time from the largest desired
        capacity, ties to the smallest key: a group tied at the top loses one
        unit each in key order, round after round, until it meets the next
        level down. So whole rounds are taken at once, then what is left.
        """
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

    def raise_paths(e: Edge) -> bool:
        """Hand free units of e to its paths, heaviest weight first.

        The rule gives one unit at a time to the first key in order whose
        edges all have room. Raises only add usage, so a key that does not
        fit never fits again, and each key in turn takes all its room at once.
        """
        weights = two_stage_weights(keys_by_edge[e], lengths, alpha, beta)
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

    silent = 0
    while edges and silent < len(edges):
        # most oversubscribed edges first; ratio recomputed each pass
        order = sorted(edges, key=lambda e: (-usage[e] / capacity[e], e))
        for e in order:
            if usage[e] > capacity[e]:
                deduct(e)
                changed = True
            elif usage[e] < capacity[e]:
                changed = raise_paths(e)
            else:
                changed = False
            silent = 0 if changed else silent + 1
            if silent >= len(edges):
                break
    return f_max


def propagatory_update(net: Network, info: PathSet,
                       params: RoutingParams) -> RoutingOutcome:
    """Global schedule-table allocation: per-path desired capacities start at
    the bottleneck value, oversubscribed edges deduct (two-stage weights with
    longer paths deducted more, never below f_min), undersubscribed edges
    propagate freed capacity back by raising paths while every edge of the
    raised path stays within capacity."""
    f_min = params.require_f_min()
    caps = net.capacity_map()
    kept, live = info.kept(params.l_max)
    keys_by_edge = {e: [key for key in keys if key in live] for e, keys in kept.items()}
    keys_by_edge = {e: keys for e, keys in keys_by_edge.items() if keys}
    live_edges = {key: info.path_edges[key] for key in sorted(live)}
    if live_edges:
        f_max = _propagatory_core(caps, keys_by_edge, info.lengths, live_edges,
                                  f_min, params.alpha, params.beta)
    else:
        f_max = {}
    flows = {key: f_max.get(key, 0) for key in info.path_edges}
    allocations = {e: {key: f_max[key] for key in keys}
                   for e, keys in keys_by_edge.items()}
    table = ScheduleTable(allocations, desired=dict(sorted(f_max.items())))
    return RoutingOutcome("PU", flows, info.lengths, info.path_edges, schedule=table)


def run_algorithm(name: str, net: Network, info: PathSet,
                  params: RoutingParams) -> RoutingOutcome:
    if name == "PS":
        outcome = flow_determination(proportional_share(net, info, params), info)
    elif name == "PF":
        outcome = progressive_filling(net, info)
    elif name == "PU":
        outcome = propagatory_update(net, info, params)
    else:
        raise ValueError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    _assert_feasible(outcome, net)
    return outcome


def _assert_feasible(outcome: RoutingOutcome, net: Network) -> None:
    caps = net.capacity_map()
    for e, used in outcome.edge_usage().items():
        if used > caps[e]:
            raise InvariantError(
                f"{outcome.algorithm}: usage {used} exceeds capacity {caps[e]} on edge {e}")
