"""Routing performance measures: throughput, traffic, delay, and fairness."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .netmodel import Network, Request
from .scheduler import RoutingOutcome, left_sum


@dataclass
class MetricsReport:
    """All measures for one routing outcome; degenerate cases carry flags
    instead of raising so that sweeps never abort."""

    throughput: float
    min_flow: float
    u_ave: float
    u_var: float
    stretch_per_request: dict[int, float]
    stretch: float
    jain_requests: float
    jain_paths: float
    jain_paths_normalized: float
    demand_satisfied: dict[int, bool]
    flags: tuple[str, ...] = field(default_factory=tuple)


class FlowTally(NamedTuple):
    """What the measures read of an outcome's flows, from one pass over them
    in key order. Per-request dicts follow the order of the weights passed in,
    except ``stretch``, which follows the flows."""

    #: per request: its total flow
    flow: dict[int, int]
    #: per request: w_r * sum_l f^{r,l} * p_in^(d-1), 0 when pathless
    terms: dict[int, float]
    #: per request carrying flow: its flow-weighted path length over its shortest
    stretch: dict[int, float]
    #: per path: w_r * f, and (w_r f)^2 computed as w_r**2 * f * f
    shares: list[float]
    squares: list[float]


def tally(outcome: RoutingOutcome, weights: dict[int, float], p_in: float) -> FlowTally:
    """One pass over the flows, in key order (so each request's paths are
    consecutive and its first path is its shortest). ``weights`` maps every
    request of the flows to w_r."""
    flow = dict.fromkeys(weights, 0)
    terms = dict.fromkeys(weights, 0.0)
    stretch: dict[int, float] = {}
    shares: list[float] = []
    squares: list[float] = []
    # the current request's accumulators, stored when its last path is read;
    # p_in^(d-1) is recomputed only when d changes
    current = length = decay = None
    for ((r, _), f), d in zip(outcome.flows.items(), outcome.paths.lengths):
        if r != current:
            if current is not None:
                flow[current], terms[current] = total, term
                if total:
                    stretch[current] = weighted / (shortest * total)
            current, shortest, total, weighted, term = r, d, 0, 0, 0.0
            w = weights[r]
            w2 = w ** 2
        shares.append(w * f)
        squares.append(w2 * f * f)
        if f > 0:
            if d != length:
                length, decay = d, p_in ** (d - 1)
            term += w * f * decay
            total += f
            weighted += f * d
    if current is not None:
        flow[current], terms[current] = total, term
        if total:
            stretch[current] = weighted / (shortest * total)
    return FlowTally(flow, terms, stretch, shares, squares)


def _fsum(values: Sequence[float], start: int = 0, n: int | None = None) -> float:
    """The float64 sum of ``values[start:start + n]`` (all of them by
    default) in numpy's pairwise order, so that it equals ``np.add.reduce``
    bit for bit: below 8 values, a left-to-right loop from 0.0; up to 128,
    eight interleaved accumulators combined as a tree, then the tail; above,
    a split at a multiple of 8 near the middle and a sum of the two halves.

    Explicit loops, not ``sum()``, which compensates float sums since
    CPython 3.12."""
    if n is None:
        n = len(values)
    if n < 8:
        return left_sum(values[start:start + n])
    if n <= 128:
        stop = start + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        for i in range(start + 8, stop, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        return left_sum(values[stop:start + n], total)
    half = n // 2
    half -= half % 8
    return _fsum(values, start, half) + _fsum(values, start + half, n - half)


def _mean_var(values: Sequence[float]) -> tuple[float, float]:
    """``ndarray.mean()`` and ``ndarray.var()`` of float64 values, bit for
    bit; (0.0, 0.0) when there are none."""
    if not values:
        return 0.0, 0.0
    n = len(values)
    mean = _fsum(values) / n
    return mean, _fsum([(x - mean) * (x - mean) for x in values]) / n


def _check_p_in(p_in: float) -> None:
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in must be in [0, 1], got {p_in}")


def throughput(outcome: RoutingOutcome, requests: Sequence[Request],
               p_in: float) -> float:
    """F = sum_r w_r * sum_l f^{r,l} * p_in^(d-1); the ``throughput`` field
    of ``evaluate``'s report, for callers that need F alone."""
    _check_p_in(p_in)
    return left_sum(tally(outcome, {r.id: r.weight for r in requests}, p_in).terms.values())


def evaluate(outcome: RoutingOutcome, net: Network, requests: Sequence[Request],
             p_in: float) -> MetricsReport:
    """Every measure of one routing outcome, from one pass over its flows.

    F and F_min are the sum and minimum of the per-request terms of ``tally``;
    U_ave and U_var are the mean and variance of used/capacity over the edges
    carrying flow, in edge-id order; gamma is the mean per-request stretch;
    J_req is Jain's index over weighted per-request flows and J_path the
    per-path index as printed (|R| normalizer, may exceed 1), next to a
    variant normalized by the number of paths. An undefined measure reads 0
    and is flagged instead of raising.
    """
    if not requests:
        raise ValueError("at least one request is required")
    _check_p_in(p_in)
    weights = {r.id: r.weight for r in requests}
    t = tally(outcome, weights, p_in)
    n = len(requests)
    caps = net.capacity_map()
    u = [used / caps[e] for e, used in zip(outcome.paths.edges, outcome.usage) if used > 0]
    u_ave, u_var = _mean_var(u)
    stretches = list(t.stretch.values())
    shares = [w * t.flow[r] for r, w in weights.items()]
    denom = n * left_sum(s * s for s in shares)
    numer = left_sum(t.shares) ** 2
    sq = left_sum(t.squares)
    j_path = numer / (n * sq) if sq else 0.0
    flags = (("no_traffic", not u), ("stretch_undefined", not t.stretch),
             ("jain_req_undefined", denom == 0), ("jain_path_undefined", sq == 0),
             ("jain_path_above_one", j_path > 1.0))
    return MetricsReport(
        throughput=left_sum(t.terms.values()),
        min_flow=min(t.terms.values()),
        u_ave=u_ave,
        u_var=u_var,
        stretch_per_request=t.stretch,
        stretch=_fsum(stretches) / len(stretches) if stretches else 0.0,
        jain_requests=left_sum(shares) ** 2 / denom if denom else 0.0,
        jain_paths=j_path,
        jain_paths_normalized=numer / (len(t.shares) * sq) if sq else 0.0,
        demand_satisfied={r.id: t.flow[r.id] >= r.demand for r in requests},
        flags=tuple(flag for flag, raised in flags if raised),
    )


def zero_report(requests: Sequence[Request], reason: str) -> MetricsReport:
    """All-zero report for trials that could not route (no edges / no paths)."""
    return MetricsReport(
        throughput=0.0, min_flow=0.0, u_ave=0.0, u_var=0.0,
        stretch_per_request={}, stretch=0.0, jain_requests=0.0,
        jain_paths=0.0, jain_paths_normalized=0.0,
        demand_satisfied={r.id: False for r in requests},
        flags=("no_traffic", reason),
    )
