"""Routing performance measures: throughput, traffic, delay, and fairness."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .netmodel import Edge, Network, Request
from .scheduler import RoutingOutcome


@dataclass
class MetricsReport:
    """All measures for one routing outcome; degenerate cases carry flags
    instead of raising so that sweeps never abort."""

    throughput: float
    min_flow: float
    utilization: dict[Edge, float]
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
    current = shortest = total = weighted = None
    for ((r, _), f), d in zip(outcome.flows.items(), outcome.paths.lengths):
        if r != current:
            if total:
                stretch[current] = weighted / (shortest * total)
            current, shortest, total, weighted = r, d, 0, 0
        w = weights[r]
        shares.append(w * f)
        squares.append(w ** 2 * f * f)
        if f > 0:
            flow[r] += f
            terms[r] += w * f * p_in ** (d - 1)
            total += f
            weighted += f * d
    if total:
        stretch[current] = weighted / (shortest * total)
    return FlowTally(flow, terms, stretch, shares, squares)


def _weights(requests: Sequence[Request], required: bool = False) -> dict[int, float]:
    if required and not requests:
        raise ValueError("at least one request is required")
    return {r.id: r.weight for r in requests}


def _check_p_in(p_in: float) -> None:
    if not 0.0 <= p_in <= 1.0:
        raise ValueError(f"p_in must be in [0, 1], got {p_in}")


def per_request_throughput(outcome: RoutingOutcome, requests: Sequence[Request],
                           p_in: float) -> dict[int, float]:
    """w_r * sum_l f^{r,l} * p_in^(d-1) for every request (0 when pathless)."""
    return tally(outcome, _weights(requests), p_in).terms


def throughput(outcome: RoutingOutcome, requests: Sequence[Request],
               p_in: float) -> float:
    _check_p_in(p_in)
    return sum(per_request_throughput(outcome, requests, p_in).values())


def min_flow(outcome: RoutingOutcome, requests: Sequence[Request],
             p_in: float) -> float:
    return min(per_request_throughput(outcome, requests, p_in).values())


def utilization_stats(outcome: RoutingOutcome,
                      net: Network) -> tuple[dict[Edge, float], float, float, bool]:
    """Utilization per utilized edge, sorted by edge, plus population
    mean/variance.

    Edges carrying zero flow are excluded; returns (u, 0, 0, True) when no
    edge is utilized.
    """
    caps = net.capacity_map()
    u = {e: used / caps[e] for e, used in zip(outcome.paths.edges, outcome.usage) if used > 0}
    if not u:
        return {}, 0.0, 0.0, True
    values = np.fromiter(u.values(), dtype=float)
    return u, float(values.mean()), float(values.var()), False


def _stretch(t: FlowTally) -> tuple[dict[int, float], float, bool]:
    if not t.stretch:
        return {}, 0.0, True
    return t.stretch, float(np.mean(list(t.stretch.values()))), False


def stretch_factor(outcome: RoutingOutcome) -> tuple[dict[int, float], float, bool]:
    """Flow-weighted path length over the shortest length, per request and
    averaged; zero-flow requests are excluded, and an all-zero outcome is
    reported as (-, 0, flagged)."""
    return _stretch(tally(outcome, {r: 1.0 for r, _ in outcome.flows}, 1.0))


def _jain_requests(t: FlowTally, weights: dict[int, float],
                   n_requests: int) -> tuple[float, bool]:
    shares = [w * t.flow[r] for r, w in weights.items()]
    denom = n_requests * sum(s * s for s in shares)
    if denom == 0:
        return 0.0, True
    return sum(shares) ** 2 / denom, False


def jain_requests(outcome: RoutingOutcome, requests: Sequence[Request]) -> tuple[float, bool]:
    """Jain's index over weighted per-request flows; 0/0 reported as (0, flagged)."""
    weights = _weights(requests, required=True)
    return _jain_requests(tally(outcome, weights, 1.0), weights, len(requests))


def _jain_paths(t: FlowTally, n_requests: int) -> tuple[float, float, bool]:
    numer = sum(t.shares) ** 2
    sq = sum(t.squares)
    if sq == 0:
        return 0.0, 0.0, True
    n_paths = len(t.shares)
    return numer / (n_requests * sq), numer / (n_paths * sq), False


def jain_paths(outcome: RoutingOutcome,
               requests: Sequence[Request]) -> tuple[float, float, bool]:
    """Per-path fairness, as printed (|R| normalizer, may exceed 1) and a
    normalized variant dividing by the total number of enumerated paths."""
    return _jain_paths(tally(outcome, _weights(requests, required=True), 1.0), len(requests))


def _demand(t: FlowTally, requests: Sequence[Request]) -> dict[int, bool]:
    return {r.id: t.flow[r.id] >= r.demand for r in requests}


def evaluate_demand(outcome: RoutingOutcome,
                    requests: Sequence[Request]) -> dict[int, bool]:
    """Satisfied iff the realized aggregate flow covers the demand."""
    return _demand(tally(outcome, _weights(requests), 1.0), requests)


def evaluate(outcome: RoutingOutcome, net: Network, requests: Sequence[Request],
             p_in: float) -> MetricsReport:
    weights = _weights(requests, required=True)
    _check_p_in(p_in)
    t = tally(outcome, weights, p_in)
    flags: list[str] = []
    u, u_ave, u_var, no_traffic = utilization_stats(outcome, net)
    if no_traffic:
        flags.append("no_traffic")
    per_req_stretch, stretch, stretch_undef = _stretch(t)
    if stretch_undef:
        flags.append("stretch_undefined")
    j_req, j_req_undef = _jain_requests(t, weights, len(requests))
    if j_req_undef:
        flags.append("jain_req_undefined")
    j_path, j_path_norm, j_path_undef = _jain_paths(t, len(requests))
    if j_path_undef:
        flags.append("jain_path_undefined")
    elif j_path > 1.0:
        flags.append("jain_path_above_one")
    return MetricsReport(
        throughput=sum(t.terms.values()),
        min_flow=min(t.terms.values()),
        utilization=u,
        u_ave=u_ave,
        u_var=u_var,
        stretch_per_request=per_req_stretch,
        stretch=stretch,
        jain_requests=j_req,
        jain_paths=j_path,
        jain_paths_normalized=j_path_norm,
        demand_satisfied=_demand(t, requests),
        flags=tuple(flags),
    )


def zero_report(requests: Sequence[Request], reason: str) -> MetricsReport:
    """All-zero report for trials that could not route (no edges / no paths)."""
    return MetricsReport(
        throughput=0.0, min_flow=0.0, utilization={}, u_ave=0.0, u_var=0.0,
        stretch_per_request={}, stretch=0.0, jain_requests=0.0,
        jain_paths=0.0, jain_paths_normalized=0.0,
        demand_satisfied={r.id: False for r in requests},
        flags=("no_traffic", reason),
    )
