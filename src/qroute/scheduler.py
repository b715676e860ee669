"""Capacity-allocation scheduling: proportional share (PS), progressive
filling (PF), propagatory update (PU), and the short-board flow determination."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .netmodel import Edge, InvariantError, Network
from .pathfinder import KeptPaths, PathKey, PathSet, RequestGroups

ALGORITHMS = ("PS", "PF", "PU")

#: kept edges from which ``_proportional_share`` runs ``_share_arrays``: the
#: crossover measured on tie-dominated windows, below which the arrays' fixed
#: cost exceeds the loop's interpreter work
_SHARE_ARRAYS_MIN_EDGES = 96


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
    """What ``run_algorithm`` returns once it has checked feasibility:
    integer flows per path, over the PathSet they were scheduled on, and
    PS's per-edge allocations (PF's and PU's tables are their flows).

    ``flows`` holds every path of ``paths`` in key order, so its values line
    up with path ids. ``allocations`` holds one row per edge id, the units of
    the paths ``paths.kept(l_max).keys[e]`` in that order, as the trial
    record stores them.
    """

    algorithm: str
    flows: dict[PathKey, int]
    paths: PathSet
    allocations: tuple[tuple[int, ...], ...] | None = None

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
        below = [b - q for b, q in zip(base, quotas)]
        for i in sorted(range(len(base)), key=below.__getitem__)[:short]:
            base[i] += 1
    return base


def _requests_tie(groups: RequestGroups, beta: float) -> bool:
    """Whether the request stage's weights n_r^beta all tie: one group,
    beta == 0 (either sign), or groups of one size."""
    return len(groups) == 1 or beta == 0 or len({len(group) for group in groups}) == 1


def _paths_tie(lengths: Iterable[float], path_exp: float) -> bool:
    """Whether the path stage's weights d^path_exp all tie over ``lengths``:
    path_exp == 0 (either sign), or at most one length."""
    return path_exp == 0 or len(set(lengths)) <= 1


def _even(total: int, n: int, floor: int = 0) -> tuple[int, ...]:
    """``largest_remainder`` over n equal quotas, plus ``floor`` on each: each
    takes total // n, and the earliest total % n positions one more."""
    q, r = divmod(total, n)
    q += floor
    return (q + 1,) * r + (q,) * (n - r)


def _even_split(groups: RequestGroups, total: int, floor: int = 0) -> tuple[int, ...]:
    """``_apportion`` of a ``_split`` whose stages all tie, plus ``floor``
    on each path: ``_even`` over the requests, then over each one's paths."""
    if len(groups) == 1:
        return _even(total, len(groups[0]), floor)
    return tuple([x for group, units in zip(groups, _even(total, len(groups)))
                  for x in _even(units, len(group), floor)])


def _split(groups: RequestGroups, lengths: Sequence[float], path_exp: float,
           beta: float) -> tuple[int | tuple, list]:
    """The two-stage apportionment over one edge's path ids grouped by
    request, but for the total, which ``_apportion`` takes: units go to
    requests by n_r^beta (ties by request id), then within each request by
    d^path_exp (ties by rank). It is ``(requests, paths)``, the request stage
    and one path stage per group. A stage with one share or whose weights
    all tie (``_requests_tie``, ``_paths_tie``) is its number of shares,
    which ``_even`` splits exactly: equal weights give bitwise-equal quotas,
    which ``largest_remainder`` floors to one base before handing the units
    left over to the earliest positions. Any other stage is the left sum of
    its raw weights and the weights, the lists it computed, not copies. It
    reads only the paths, the exponent and beta, so a plan can keep it."""
    if _requests_tie(groups, beta):
        requests: int | tuple = len(groups)
    else:
        request_raw = [float(len(group)) ** beta for group in groups]
        requests = (left_sum(request_raw), request_raw)
    paths: list[int | tuple[float, list[float]]] = []
    for group in groups:
        if len(group) == 1 or _paths_tie(map(lengths.__getitem__, group), path_exp):
            paths.append(len(group))
        else:
            path_raw = [float(lengths[p]) ** path_exp for p in group]
            paths.append((left_sum(path_raw), path_raw))
    return requests, paths


def _apportion(split: tuple, total: int, floor: int = 0) -> list[int]:
    """``total`` units apportioned by a ``_split``, plus ``floor`` on each
    path: ``largest_remainder`` over ``total * w / raw_total`` per request,
    then over ``units * w / path_total`` per path of each request, and
    ``_even`` for a stage whose weights tie."""
    requests, paths = split
    if isinstance(requests, int):
        request_units = (total,) if requests == 1 else _even(total, requests)
    else:
        raw_total, request_raw = requests
        request_units = largest_remainder([total * w / raw_total for w in request_raw],
                                          total)
    shares: list[int] = []
    for stage, units in zip(paths, request_units):
        if stage == 1:
            shares.append(units + floor)
        elif isinstance(stage, int):
            shares.extend(_even(units, stage, floor))
        else:
            path_total, path_raw = stage
            path_units = largest_remainder([units * w / path_total for w in path_raw], units)
            shares.extend([floor + x for x in path_units] if floor else path_units)
    return shares


def _apportion_rows(totals: np.ndarray, counts: np.ndarray, values: np.ndarray,
                    distinct: Iterable[int], exponent: float) -> np.ndarray:
    """One stage of ``_apportion`` on every segment at once: segment s holds
    the next ``counts[s]`` elements of ``values`` (group sizes or path
    lengths, each at least 1) and splits ``totals[s]`` units over them by
    ``value ** exponent``. The units by element, bit for bit those of
    ``_apportion``.

    Each segment is a row of a zero-padded matrix. A row whose weights all
    tie (exponent 0, or one value) takes ``_even``'s split in integers; the
    others are weighed. Their raw weights are Python's ``**``, once per
    ``distinct`` value, and a row's total is the last column of its
    ``cumsum``, which adds left to right as ``left_sum`` does
    (``np.add.reduce`` adds pairwise and rounds differently from 3 terms
    up). ``largest_remainder`` then floors ``total * w / raw_total``, and a
    stable sort of each row on floor - quota ranks the remainders, ties to
    the lower position."""
    mask = np.arange(counts.max()) < counts[:, None]
    even, extra = np.divmod(totals, counts)
    units = even[:, None] + (np.arange(mask.shape[1]) < extra[:, None])
    if exponent == 0:
        return units[mask]
    padded = np.zeros(mask.shape, np.int64)
    padded[mask] = values
    weighed = np.flatnonzero(((padded != padded[:, :1]) & mask).any(axis=1))
    if weighed.size:
        distinct = sorted(distinct)
        table = np.zeros(distinct[-1] + 1)
        table[distinct] = [float(x) ** exponent for x in distinct]
        weights = table[padded[weighed]]
        totals = totals[weighed]
        quotas = totals[:, None] * weights / np.cumsum(weights, axis=1)[:, -1:]
        floors = np.floor(quotas)
        shares = floors.astype(np.int64)
        short = totals - shares.sum(axis=1)
        bad = np.flatnonzero((short < 0) | (short > counts[weighed]))
        if bad.size:
            s = bad[0]
            raise InvariantError(f"quotas {quotas[s, :counts[weighed[s]]].tolist()} do "
                                 f"not sum to total {totals[s]}")
        # floor - quota is at most 0, so the padding's 1.0 ranks last
        rank = np.argsort(np.argsort(np.where(mask[weighed], floors - quotas, 1.0), axis=1,
                                     kind="stable"), axis=1)
        units[weighed] = shares + (rank < short[:, None])
    return units[mask]


def _share_arrays(info: PathSet, kept: KeptPaths, capacity: Sequence[int], f_min: int,
                  alpha: float, beta: float
                  ) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """``_proportional_share`` on arrays, every edge at once: bit for bit
    the flows and rows of its loop.

    The kept incidences are read as flat segments: groups by edge, and
    paths by group. A group starts where an edge starts or the request
    changes, as in ``request_groups``, so no group is built.
    ``_apportion_rows`` splits each edge's spare capacity over its groups by
    n_r^beta, then each group's units over its paths by d^-alpha. It takes
    no plan: it tests every tie and weighs every edge in a few array
    passes."""
    paths_per_edge = np.fromiter(map(len, kept.keys), np.intp, len(kept.keys))
    ends = np.cumsum(paths_per_edge)
    ids = np.fromiter(chain.from_iterable(kept.keys), np.intp, ends[-1])
    spare = np.array(capacity, dtype=np.int64) - f_min * paths_per_edge
    if (spare < 0).any():
        e = np.flatnonzero(spare < 0)[0]
        raise InvariantError(
            f"edge {info.edges[e]} kept below l_max * f_min; was Step 1 skipped?")
    requests = np.array(info.request_of)[ids]
    starts = np.empty(ids.size, bool)
    starts[0] = True
    np.not_equal(requests[1:], requests[:-1], out=starts[1:])
    starts[ends[:-1]] = True
    firsts = np.flatnonzero(starts)
    sizes = np.diff(firsts, append=ids.size)
    units = _apportion_rows(spare, np.diff(np.searchsorted(firsts, ends), prepend=0), sizes,
                            set(sizes.tolist()), beta)
    shares = f_min + _apportion_rows(units, sizes, np.array(info.lengths)[ids],
                                     set(info.lengths), -alpha)
    lowest = np.full(len(info.keys), np.iinfo(np.int64).max)
    np.minimum.at(lowest, ids, shares)
    flows = np.zeros_like(lowest)
    flows[kept.live_paths] = lowest[kept.live_paths]
    flat, bounds = shares.tolist(), ends.tolist()
    return flows.tolist(), tuple([tuple(flat[a:b]) for a, b in zip([0, *bounds], bounds)])


def _proportional_share(info: PathSet, kept: KeptPaths, capacity: Sequence[int],
                        f_min: int, alpha: float, beta: float, plan: list | None = None
                        ) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Edge-local allocation: every kept path gets the f_min floor, the rest
    of the capacity is split by the two-stage proportional rule. A path's
    flow is its smallest allocation (the short-board constraint), and 0 when
    it is not kept on every edge it crosses. Flows by path id and one
    allocation row per edge id, in ``kept.keys`` order; ``capacity`` by
    edge id.

    A lone path takes the edge's capacity, and an edge whose weights all tie
    takes ``_even_split``; only the others compute weights. Whether every
    path stage ties is decided once per call, over all the lengths.

    Which of these an edge takes, its branch, reads only the paths, alpha
    and beta, not the capacities: None for a lone path, True for
    ``_even_split``, else the edge's ``_split``, which ``_apportion``
    evaluates at the edge's spare capacity. A run records the branches as
    it goes and, given an empty ``plan``, puts them there once every row is
    built, so a run that raises leaves it empty; a run on a filled ``plan``
    reads them back and tests no tie and computes no weight.

    From ``_SHARE_ARRAYS_MIN_EDGES`` kept edges on, ``_share_arrays`` gives
    the same flows and rows on arrays and runs instead of the loop, with no
    plan: on ``large_lattice`` windows its cold run costs less than the
    loop's replay.
    """
    if len(kept.keys) >= _SHARE_ARRAYS_MIN_EDGES:
        return _share_arrays(info, kept, capacity, f_min, alpha, beta)
    lengths = info.lengths
    replay = bool(plan)
    branches = plan if replay else [None] * len(kept.keys)
    paths_tie = not replay and _paths_tie(lengths, -alpha)
    flows = [0] * len(info.keys)
    for p in kept.live_paths:
        flows[p] = math.inf
    allocations = []
    for e, (ids, groups) in enumerate(zip(kept.keys, kept.groups)):
        spare = capacity[e] - f_min * len(ids)
        if spare < 0:
            raise InvariantError(
                f"edge {info.edges[e]} kept below l_max * f_min; was Step 1 skipped?")
        if replay:
            branch = branches[e]
            if branch is None:
                row = (capacity[e],)
            elif branch is True:
                row = _even_split(groups, spare, f_min)
            else:
                row = tuple(_apportion(branch, spare, f_min))
        elif len(ids) == 1:
            row = (capacity[e],)
        elif _requests_tie(groups, beta) and (
                paths_tie or len(groups) == 1 and _paths_tie(map(lengths.__getitem__, ids),
                                                             -alpha)):
            branches[e] = True
            row = _even_split(groups, spare, f_min)
        else:
            branch = branches[e] = _split(groups, lengths, -alpha, beta)
            row = tuple(_apportion(branch, spare, f_min))
        for p, share in zip(ids, row):
            if share < flows[p]:
                flows[p] = share
        allocations.append(row)
    if plan is not None and not replay:
        plan[:] = branches
    return flows, tuple(allocations)


def _progressive_fill(info: PathSet, capacity: Sequence[int]) -> list[int]:
    """Progressive filling with integer saturation, one freeze event at a
    time; flows by path id, ``capacity`` by edge id.

    The defining rule runs in rounds: before each round, any edge whose slack
    is below its active-path count saturates and freezes those paths (the
    sub-count leftover stays unallocated); the remaining active paths then
    all gain one unit. Between two freeze events the rounds only repeat, and
    the next event comes after ``min_e floor(slack_e / n_active_e)`` rounds
    over the open edges, those with active paths, so this jumps there at once
    (0 rounds if an edge holds more paths than units), in at most #paths + 1
    events. The jump leaves exactly the edges that attain the min with slack
    below their count, and freezing only lowers the others' counts, so an
    event freezes the active paths of those edges alone, at the level all hold.
    """
    path_edges, on_edge = info.edge_ids, info.values()
    flows = [0] * len(path_edges)
    slack = list(capacity)
    n_active = [len(ids) for ids in on_edge]
    active = [True] * len(path_edges)
    open_edges = list(range(len(on_edge)))  # every edge of a PathSet carries a path
    level = 0
    while open_edges:
        rounds = min([slack[e] // n_active[e] for e in open_edges])
        level += rounds
        for e in open_edges:
            slack[e] -= rounds * n_active[e]
        for e in [e for e in open_edges if slack[e] < n_active[e]]:
            for p in on_edge[e]:
                if active[p]:
                    active[p] = False
                    flows[p] = level
                    for e2 in path_edges[p]:
                        n_active[e2] -= 1
        open_edges = [e for e in open_edges if n_active[e]]
    return flows


def _propagatory_core(info: PathSet, kept: KeptPaths, capacity: Sequence[int],
                      f_min: int, alpha: float, beta: float,
                      plan: tuple[dict, dict] | None = None) -> list[int]:
    """Global schedule-table allocation: each live path's desired capacity
    starts at its bottleneck; oversubscribed edges deduct (two-stage weights
    with longer paths deducted more, never below f_min), undersubscribed
    edges raise paths while every edge of the raised path stays within
    capacity. Passes run until one changes nothing; desired capacities by
    path id (0 off the live paths), ``capacity`` by edge id.

    A pass deducts on every edge over capacity and raises on every edge
    under it. A deduction leaves its edge at capacity and a raise takes no
    edge past it, so only the first pass deducts. A visited edge is left full
    or with every path blocked; raises keep it so, and only a deduction can
    reopen it. So a pass after the first visits only the edges up to the
    previous pass's last deduction: the second visits those of the first, if
    it deducted, and there is no third.

    A path has room to grow iff no edge of its route is saturated (usage >=
    capacity). Each path keeps the count of saturated edges on its route,
    updated only when an edge's usage crosses its capacity, so raises skip
    paths with a nonzero count unread.

    An edge's deduction ``_split`` and raise order read only its paths,
    alpha and beta, not the capacities. ``plan`` holds them by edge id, in
    two dicts: each is computed the first time its edge deducts or raises in
    a run on the plan, and later runs read it back. A run without a plan
    keeps them in two dicts of its own.
    """
    path_edges, lengths = info.edge_ids, info.lengths
    keys_by_edge, groups = kept.live_keys, kept.live_groups
    f_max = [0] * len(path_edges)
    for p in kept.live_paths:
        f_max[p] = min(map(capacity.__getitem__, path_edges[p]))
    usage = [sum(map(f_max.__getitem__, ids)) for ids in keys_by_edge]
    # per path, the number of edges on its route at or over capacity
    blocked = [0] * len(path_edges)
    for e, ids in enumerate(keys_by_edge):
        if usage[e] >= capacity[e]:
            for p in ids:
                blocked[p] += 1
    splits, orders = plan if plan is not None else ({}, {})

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
        split = splits.get(e)
        if split is None:
            split = splits[e] = _split(groups[e], lengths, alpha, beta)
        for p, assigned in zip(ids, _apportion(split, need)):
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

    def raise_paths(e: int) -> None:
        """Hand free units of e to its paths, heaviest weight first.

        The rule gives one unit at a time to the first path in order whose
        edges all have room. Raises only add usage, so a path that does not
        fit never fits again, and each path in turn takes all its room at
        once: its smallest slack, which fills at least one edge of its route
        and no edge past capacity. The weight order reads only the edge's
        paths, alpha and beta, so the plan keeps it: the first run on the
        plan in which the edge raises with a path that has room builds it,
        and later runs read it back.
        """
        ids = keys_by_edge[e]
        if all(map(blocked.__getitem__, ids)):
            return
        order = orders.get(e)
        if order is None:
            weights = two_stage_weights(groups[e], lengths, alpha, beta)
            order = orders[e] = [p for _, p in sorted(zip([-w for w in weights], ids))]
        for p in order:
            if usage[e] >= capacity[e]:
                break
            if not blocked[p]:
                route = path_edges[p]
                delta = min(capacity[e2] - usage[e2] for e2 in route)
                f_max[p] += delta
                # p is unblocked, so its edges all had room and none passes capacity
                for e2 in route:
                    usage[e2] += delta
                    if usage[e2] == capacity[e2]:
                        for other in keys_by_edge[e2]:
                            blocked[other] += 1

    todo = [e for e, ids in enumerate(keys_by_edge) if ids]
    while todo:
        # most oversubscribed edges first, ties by id (a stable sort of the
        # ascending edges); ratio recomputed each pass. Edges after the last
        # deduction are done
        ratio = {e: -usage[e] / capacity[e] for e in todo}
        order = sorted(todo, key=ratio.__getitem__)
        last = 0
        for i, e in enumerate(order, 1):
            if usage[e] > capacity[e]:
                deduct(e)
                last = i
            elif usage[e] < capacity[e]:
                raise_paths(e)
        todo = sorted(order[:last])
    return f_max


def schedule_key(name: str, info: PathSet, params: RoutingParams) -> tuple:
    """What ``run_algorithm(name, net, info, params)`` reads of ``params``:
    runs on one network and PathSet with equal keys give equal outcomes. PF
    reads none of it; PS and PU read l_max, f_min and beta, and alpha unless
    every path of ``info`` has one length and the core is PS, or PU at beta 0.

    With one length, ``_split`` ties every path stage (``_paths_tie``), so
    neither PS nor PU's deduction reads alpha. PU's raise order sorts
    ``two_stage_weights``; at beta == 0, on an edge of G groups, a path in a
    group of n weighs fl(1/G) * fl(x / S_n(x)), with x = d**-alpha and S_n
    the left sum of n x's. Groups of one size weigh the same bit for bit;
    sizes n < m differ by a factor of at least (n+1)/n, far above the n ulps
    x can move them while n is far below 2**26 and x is finite and nonzero
    (the config's bound on alpha). So the order is (group size, id) at every
    alpha. At beta != 0 groups of different sizes can tie (beta = 1), and x
    breaks the tie.
    """
    if name == "PF":
        return (name,)
    tied = (name == "PS" or params.beta == 0) and len(set(info.lengths)) <= 1
    return (name, params.l_max, params.f_min, None if tied else params.alpha, params.beta)


def run_algorithm(name: str, net: Network, info: PathSet,
                  params: RoutingParams) -> RoutingOutcome:
    """The one scheduling call: schedule ``info`` on ``net`` with ``name``
    (PS, PF or PU), then check that no edge carries more than its capacity
    and, for PS and PU, that every live path holds at least f_min and every
    other path nothing; explicit checks that also run under ``python -O``.
    PS and PU schedule the paths kept at ``params.l_max`` above the f_min
    floor; PF fills every enumerated path, with neither.

    PS and PU run on ``info``'s plan under (name, l_max, alpha, beta) once
    the PathSet keeps plans (``PathSet.keep_plans``), so a window that the
    memo hands an earlier window's PathSet computes no weight, tie or raise
    order an earlier run did; PS's arrays, which run on large windows, take
    no plan. alpha and beta may be -0.0 or 0.0, which are
    equal keys and share a plan: ``_paths_tie`` and ``_requests_tie`` test
    ``== 0``, and ``x ** -0.0 == x ** 0.0 == 1.0``.
    """
    if name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    capacity = info.capacities(net)
    allocations = None
    if name == "PF":
        flows = _progressive_fill(info, capacity)
    else:
        kept, f_min = info.kept(params.l_max), params.require_f_min()
        plan = info.plan((name, params.l_max, params.alpha, params.beta),
                         list if name == "PS" else _pu_plan)
        args = (info, kept, capacity, f_min, params.alpha, params.beta, plan)
        if name == "PS":
            flows, allocations = _proportional_share(*args)
        else:
            flows = _propagatory_core(*args)
        _assert_floor(name, info, flows, kept.live_paths, f_min)
    outcome = RoutingOutcome(name, dict(zip(info.keys, flows)), info, allocations)
    _assert_feasible(outcome, capacity)
    return outcome


def _pu_plan() -> tuple[dict, dict]:
    """An empty PU plan: deduction splits and raise orders by edge id."""
    return {}, {}


def _assert_floor(name: str, info: PathSet, flows: Sequence[int],
                  live_paths: Sequence[int], f_min: int) -> None:
    """Every live path holds at least f_min of ``flows``, and every other
    path nothing."""
    off_live = list(flows)
    for p in live_paths:
        if flows[p] < f_min:
            raise InvariantError(f"{name}: live path {info.keys[p]} has flow {flows[p]} "
                                 f"below f_min = {f_min}")
        off_live[p] = 0
    if any(off_live):
        p = next(p for p, flow in enumerate(off_live) if flow)
        raise InvariantError(f"{name}: path {info.keys[p]} is not live but has flow "
                             f"{flows[p]}")


def _assert_feasible(outcome: RoutingOutcome, capacity: Sequence[int]) -> None:
    """No edge of ``outcome`` carries more than ``capacity``, by edge id."""
    for e, (used, cap) in enumerate(zip(outcome.usage, capacity)):
        if used > cap:
            raise InvariantError(f"{outcome.algorithm}: usage {used} exceeds capacity "
                                 f"{cap} on edge {outcome.paths.edges[e]}")
