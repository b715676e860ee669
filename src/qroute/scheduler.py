"""Capacity-allocation scheduling: proportional share (PS), progressive
filling (PF), propagatory update (PU), and the short-board flow determination."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

from .netmodel import Edge, InvariantError, Network
from .pathfinder import KeptPaths, PathKey, PathSet, RequestGroups

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
class RoutingOutcome:
    """Integer flows per path, over the PathSet they were scheduled on, and
    PS's per-edge allocations (PF's and PU's tables are their flows).

    ``flows`` holds every path of ``paths`` in key order, so its values line
    up with path ids.
    """

    algorithm: str
    flows: dict[PathKey, int]
    paths: PathSet
    allocations: dict[Edge, dict[PathKey, int]] | None = None

    def __post_init__(self) -> None:
        if tuple(self.flows) != self.paths.keys:
            raise ValueError("flows must hold every path of the PathSet, in key order")

    @property
    def path_edges(self) -> dict[PathKey, tuple[Edge, ...]]:
        return self.paths.path_edges

    @cached_property
    def usage(self) -> list[int]:
        """Flow per edge id; computed once per outcome, so callers must not
        mutate it (or ``flows``) afterwards."""
        usage = [0] * len(self.paths.edges)
        for flow, ids in zip(self.flows.values(), self.paths.edge_ids):
            if flow > 0:
                for e in ids:
                    usage[e] += flow
        return usage

    def edge_usage(self) -> dict[Edge, int]:
        """Flow per utilized edge, sorted by edge; built once per outcome."""
        return self._edge_usage

    @cached_property
    def _edge_usage(self) -> dict[Edge, int]:
        return {e: used for e, used in zip(self.paths.edges, self.usage) if used}


def compute_f_min(net: Network, l_max: int) -> int:
    """Guaranteed per-path floor: floor(min active capacity / l_max).

    Call after deactivate_low_capacity_edges so the result is >= 1.
    """
    caps = net.capacity_map().values()
    if not caps:
        raise ValueError("no active edges")
    return min(caps) // l_max


def left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """Float sum from ``start``, left to right, the order in which CPython
    3.11's ``sum()`` adds; since 3.12 ``sum()`` compensates float sums and
    may round differently."""
    return reduce(operator.add, values, start)


def two_stage_weights(groups: RequestGroups, lengths: Sequence[float],
                      alpha: float, beta: float) -> list[float]:
    """Real-valued per-path weights over one edge's path ids grouped by
    request, in group order: request share ~ n_r^beta, then within a request
    shorter paths take more (share ~ d^-alpha). Weights sum to 1."""
    if not groups:
        raise ValueError("empty key list")
    request_raw = [float(len(group)) ** beta for group in groups]
    request_total = left_sum(request_raw)
    weights: list[float] = []
    for group, r_raw in zip(groups, request_raw):
        path_raw = [float(lengths[p]) ** -alpha for p in group]
        path_total = left_sum(path_raw)
        weights.extend((r_raw / request_total) * (raw / path_total) for raw in path_raw)
    return weights


def largest_remainder(quotas: Sequence[float], total: int) -> list[int]:
    """Hamilton apportionment of ``total`` units; ties favor earlier positions."""
    base = [math.floor(q) for q in quotas]
    short = total - sum(base)
    if not 0 <= short <= len(base):
        raise InvariantError(f"quotas {list(quotas)} do not sum to total {total}")
    if short:
        for _, i in sorted([(b - q, i) for i, (b, q) in enumerate(zip(base, quotas))])[:short]:
            base[i] += 1
    return base


def _even(total: int, n: int) -> list[int]:
    """``largest_remainder`` over n equal quotas: each takes total // n, and
    the earliest total % n positions one more."""
    q, r = divmod(total, n)
    return [q + 1] * r + [q] * (n - r)


def _apportion_two_stage(groups: RequestGroups, lengths: Sequence[float],
                         total: int, path_exp: float, beta: float) -> list[int]:
    """Stage-wise integer apportionment over one edge's path ids grouped by
    request, in group order: units go to requests by n_r^beta (ties by
    request id), then within each request by d^path_exp (ties by rank).

    A lone request or a lone path takes all its units. When a stage's weights
    all tie (beta == 0 or groups of one size; path_exp == 0 or paths of one
    length), ``_even`` splits its units without computing weights. That is
    exact: equal weights give bitwise-equal quotas, which
    ``largest_remainder`` floors to one base before handing the units left
    over to the earliest positions.
    """
    n = len(groups)
    if n == 1:
        request_units = [total]
    elif beta == 0 or len({len(group) for group in groups}) == 1:
        request_units = _even(total, n)
    else:
        request_raw = [float(len(group)) ** beta for group in groups]
        raw_total = left_sum(request_raw)
        request_units = largest_remainder(
            [total * w / raw_total for w in request_raw], total)
    shares: list[int] = []
    for group, units in zip(groups, request_units):
        if len(group) == 1:
            shares.append(units)
        elif path_exp == 0 or len({lengths[p] for p in group}) == 1:
            shares.extend(_even(units, len(group)))
        else:
            path_raw = [float(lengths[p]) ** path_exp for p in group]
            path_total = left_sum(path_raw)
            shares.extend(largest_remainder([units * w / path_total for w in path_raw],
                                            units))
    return shares


def proportional_share(net: Network, info: PathSet, params: RoutingParams) -> RoutingOutcome:
    """Edge-local allocation: every kept path gets the f_min floor, the rest
    of the capacity is split by the two-stage proportional rule. A path's
    flow is its smallest allocation (the short-board constraint), and 0 when
    it is not kept on every edge it crosses."""
    f_min = params.require_f_min()
    caps = info.capacities(net)
    kept = info.kept(params.l_max)
    keys, lengths = info.keys, info.lengths
    flows = [0] * len(keys)
    for p in kept.live_paths:
        flows[p] = math.inf
    allocations: dict[Edge, dict[PathKey, int]] = {}
    for e, (ids, groups) in enumerate(zip(kept.keys, kept.groups)):
        spare = caps[e] - f_min * len(ids)
        if spare < 0:
            raise InvariantError(
                f"edge {info.edges[e]} kept below l_max * f_min; was Step 1 skipped?")
        extra = _apportion_two_stage(groups, lengths, spare, -params.alpha, params.beta)
        alloc = allocations[info.edges[e]] = {}
        for p, x in zip(ids, extra):
            alloc[keys[p]] = share = f_min + x
            if share < flows[p]:
                flows[p] = share
    return RoutingOutcome("PS", dict(zip(keys, flows)), info, allocations)


def _progressive_fill(info: PathSet, capacity: Sequence[int]) -> list[int]:
    """Progressive filling with integer saturation, one freeze event at a
    time; flows by path id, ``capacity`` by edge id.

    The defining rule runs in rounds: before each round, any edge whose slack
    is below its active-path count saturates and freezes those paths (the
    sub-count leftover stays unallocated); the remaining active paths then
    all gain one unit. Between two freeze events the rounds only repeat, and
    the next event comes after ``min_e floor(slack_e / n_active_e)`` rounds,
    so this jumps there at once and gives the same flows as the round-by-round
    rule in at most #paths + 1 steps. Every active path holds the same flow,
    the number of rounds so far, so a path's flow is that count when it freezes.
    """
    path_edges, on_edge = info.edge_ids, info.values()
    flows = [0] * len(path_edges)
    slack = list(capacity)
    n_active = [len(ids) for ids in on_edge]
    active = [True] * len(path_edges)
    left = len(path_edges)
    level = 0
    while left:
        frozen = [p for e, n in enumerate(n_active) if slack[e] < n
                  for p in on_edge[e] if active[p]]
        for p in frozen:
            if active[p]:
                active[p] = False
                flows[p] = level
                left -= 1
                for e in path_edges[p]:
                    n_active[e] -= 1
        # every edge still carrying active paths has slack >= n_active here
        rounds = min((slack[e] // n for e, n in enumerate(n_active) if n), default=0)
        level += rounds
        for e, n in enumerate(n_active):
            if n:
                slack[e] -= rounds * n
    return flows


def progressive_filling(net: Network, info: PathSet) -> RoutingOutcome:
    """Round-based water filling over all enumerated paths (no truncation,
    no f_min); the short-board constraint is built in."""
    flows = _progressive_fill(info, info.capacities(net))
    return RoutingOutcome("PF", dict(zip(info.keys, flows)), info)


def _propagatory_core(info: PathSet, kept: KeptPaths, capacity: Sequence[int],
                      f_min: int, alpha: float, beta: float) -> list[int]:
    """Iterate deduction/update passes over the desired-capacity table of the
    live paths until a full pass changes nothing; desired capacities by path
    id (0 off the live paths), ``capacity`` by edge id.

    A path has room to grow iff no edge of its route is saturated (usage >=
    capacity). Each path keeps the count of saturated edges on its route,
    updated only when an edge's usage crosses its capacity, so raises skip
    paths with a nonzero count unread.
    """
    path_edges, lengths = info.edge_ids, info.lengths
    keys_by_edge, groups = kept.live_keys, kept.live_groups
    edges = [e for e, ids in enumerate(keys_by_edge) if ids]
    f_max = [0] * len(path_edges)
    for p in kept.live_paths:
        f_max[p] = min(map(capacity.__getitem__, path_edges[p]))
    usage = [sum(map(f_max.__getitem__, ids)) for ids in keys_by_edge]
    # per path, the number of edges on its route at or over capacity
    blocked = [0] * len(path_edges)
    for e in edges:
        if usage[e] >= capacity[e]:
            for p in keys_by_edge[e]:
                blocked[p] += 1
    orders: dict[int, list[int]] = {}
    idle = [-1] * len(capacity)
    deductions = 0

    def add(p: int, delta: int) -> None:
        """Raise one desired capacity by delta units."""
        f_max[p] += delta
        for e in path_edges[p]:
            cap = capacity[e]
            was_full = usage[e] >= cap
            usage[e] += delta
            if usage[e] >= cap and not was_full:
                for other in keys_by_edge[e]:
                    blocked[other] += 1

    def deduct(e: int) -> None:
        """Cut the apportioned excess (never below f_min), then the residual.

        Both rules read only desired capacities, so the cuts lower ``f_max``
        first and usage drops after, in one pass over the cut paths' edges;
        cuts only lower usage, so an edge leaves saturation at most once.
        The residual rule takes one unit at a time from the largest desired
        capacity, ties to the smallest id. So the top levels sink together to
        a water level, and the units left take one more from each of the
        first ids tied there, in id order.
        """
        ids = keys_by_edge[e]
        before = list(map(f_max.__getitem__, ids))
        need = usage[e] - capacity[e]
        for p, assigned in zip(ids, _apportion_two_stage(groups[e], lengths, need,
                                                          alpha, beta)):
            room = f_max[p] - f_min
            cut = assigned if assigned < room else room
            if cut > 0:
                f_max[p] -= cut
                need -= cut
        if need:
            # largest first; whole levels sink together, so ties need no order
            top = sorted([p for p in ids if f_max[p] > f_min], key=f_max.__getitem__,
                         reverse=True)
            short = need - sum(f_max[p] - f_min for p in top)
            if short > 0:
                raise InvariantError(f"edge {info.edges[e]}: {short} units of excess "
                                     f"cannot be deducted above f_min = {f_min}")
            # sink the first n ids to the next one's level while need covers it
            level = f_max[top[0]]
            for n in range(1, len(top) + 1):
                floor = f_max[top[n]] if n < len(top) else f_min
                if need < n * (level - floor):
                    break
                need, level = need - n * (level - floor), floor
            drop, extra = divmod(need, n)
            for i, p in enumerate(sorted(top[:n])):
                f_max[p] = level - drop - (i < extra)
        for p, old in zip(ids, before):
            cut = old - f_max[p]
            if cut:
                for e2 in path_edges[p]:
                    was = usage[e2]
                    usage[e2] = was - cut
                    if was >= capacity[e2] > was - cut:
                        for other in keys_by_edge[e2]:
                            blocked[other] -= 1

    def raise_paths(e: int) -> bool:
        """Hand free units of e to its paths, heaviest weight first.

        The rule gives one unit at a time to the first path in order whose
        edges all have room. Raises only add usage, so a path that does not
        fit never fits again, and each path in turn takes all its room at once.
        For the same reason an edge that raised nothing raises nothing again
        until a deduction has run, and the weight order, which depends only
        on the edge's paths, is built the first time one of them has room.
        """
        if idle[e] == deductions:
            return False
        ids = keys_by_edge[e]
        changed = False
        if not all(map(blocked.__getitem__, ids)):
            if e not in orders:
                weights = two_stage_weights(groups[e], lengths, alpha, beta)
                orders[e] = [p for _, p in sorted(zip([-w for w in weights], ids))]
            for p in orders[e]:
                if usage[e] >= capacity[e]:
                    break
                if not blocked[p]:
                    add(p, min(capacity[e2] - usage[e2] for e2 in path_edges[p]))
                    changed = True
        if not changed:
            idle[e] = deductions
        return changed

    silent = 0
    while edges and silent < len(edges):
        # most oversubscribed edges first, ties by id (a stable sort of the
        # ascending edges); ratio recomputed each pass
        ratio = {e: -usage[e] / capacity[e] for e in edges}
        order = sorted(edges, key=ratio.__getitem__)
        for e in order:
            if usage[e] > capacity[e]:
                deduct(e)
                deductions += 1
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
    f_max = _propagatory_core(info, info.kept(params.l_max), info.capacities(net),
                              params.require_f_min(), params.alpha, params.beta)
    return RoutingOutcome("PU", dict(zip(info.keys, f_max)), info)


def run_algorithm(name: str, net: Network, info: PathSet,
                  params: RoutingParams) -> RoutingOutcome:
    if name == "PS":
        outcome = proportional_share(net, info, params)
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
    for e, used in zip(outcome.paths.edges, outcome.usage):
        if used > 0 and used > caps[e]:
            raise InvariantError(
                f"{outcome.algorithm}: usage {used} exceeds capacity {caps[e]} on edge {e}")
