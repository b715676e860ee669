"""Seeded trials, replication, parameter search, and the experiment suites."""
from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .metrics import MetricsReport, evaluate, throughput, zero_report
from .netmodel import (Network, Request, ScenarioParams, build_lattice,
                       deactivate_low_capacity_edges, generate_requests,
                       inject_failures, sample_edge_states)
from .pathfinder import Path, PathSet, build_path_info, k_shortest_paths
from .purification import purify_network
from .scheduler import (RoutingOutcome, RoutingParams, compute_f_min,
                        run_algorithm)

logger = logging.getLogger(__name__)

#: environment variable controlling the replication worker count
WORKERS_ENV = "QROUTE_WORKERS"

METRIC_FIELDS = ("F", "F_min", "U_ave", "U_var", "gamma", "J_req", "J_path")


@dataclass
class RequestSpec:
    """How to obtain the window's requests: explicit pairs, or random draws
    (optionally pinned to one lattice offset)."""

    count: int = 2
    distance: int | None = 3
    pairs: tuple[tuple[int, int], ...] | None = None
    demand: int = 10
    weight: float = 1.0


@dataclass
class ObjectiveWeights:
    """Relative weights of U_ave, U_var, and gamma in the search objective."""

    pi1: float = 1.0
    pi2: float = 1.0
    pi3: float = 1.0


@dataclass
class ExperimentConfig:
    rows: int = 8
    cols: int = 8
    kind: str = "square"
    scenario: ScenarioParams = field(default_factory=ScenarioParams)
    routing: RoutingParams = field(default_factory=RoutingParams)
    routing_grid: dict[str, tuple] = field(default_factory=dict)
    requests: RequestSpec = field(default_factory=RequestSpec)
    algorithms: tuple[str, ...] = ("PS", "PF", "PU")
    replications: int = 200
    base_seed: int = 7
    objective: ObjectiveWeights = field(default_factory=ObjectiveWeights)
    provenance: dict[str, str] = field(default_factory=dict, compare=False)


@dataclass
class NetworkSummary:
    total_edges: int
    active_edges: int
    min_capacity: int
    max_capacity: int
    f_min: int


@dataclass
class AlgorithmResult:
    outcome: RoutingOutcome
    report: MetricsReport
    schedule_seconds: float = field(default=0.0, compare=False)


@dataclass
class TrialRecord:
    """Everything one seeded window produced; reproducible from (config, seed)."""

    seed: int
    params: RoutingParams
    requests: tuple[Request, ...]
    network: NetworkSummary
    results: dict[str, AlgorithmResult]
    stage_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    reason: str | None = None


@dataclass
class TrialContext:
    """Intermediate pipeline products, kept so failure experiments can re-route."""

    seed: int
    revised: Network
    requests: tuple[Request, ...]
    params: RoutingParams
    paths: tuple[Path, ...]
    reason: str | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)


def _resolve_requests(config: ExperimentConfig, net: Network,
                      rng: np.random.Generator) -> tuple[Request, ...]:
    spec = config.requests
    if spec.pairs is not None:
        return tuple(Request(i, s, t, spec.demand, spec.weight)
                     for i, (s, t) in enumerate(spec.pairs))
    return tuple(generate_requests(net, spec.count, spec.distance, rng,
                                   demand=spec.demand, weight=spec.weight))


def enumerate_paths(net: Network, requests: Sequence[Request],
                    k: int) -> tuple[Path, ...]:
    """k shortest paths for every request; disconnected requests contribute none."""
    paths: list[Path] = []
    for r in requests:
        paths.extend(k_shortest_paths(net, r.source, r.terminal, k, request_id=r.id))
    return tuple(paths)


def prepare_trial(config: ExperimentConfig, seed: int) -> TrialContext:
    """Steps 0-2: initialize, purify, revise topology, and enumerate paths."""
    rng = np.random.default_rng(seed)
    stage: dict[str, float] = {}
    t0 = time.perf_counter()
    net = build_lattice(config.rows, config.cols, config.kind)
    net = sample_edge_states(net, config.scenario, rng)
    requests = _resolve_requests(config, net, rng)
    stage["initialize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    purified = purify_network(net, config.scenario.f_th)
    revised = deactivate_low_capacity_edges(purified, config.routing.l_max)
    stage["purify"] = time.perf_counter() - t0

    if not revised.active_edges():
        params = replace(config.routing, f_min=0)
        return TrialContext(seed, revised, requests, params, (),
                            reason="no_active_edges", stage_seconds=stage)
    f_min = compute_f_min(revised, config.routing.l_max)
    params = replace(config.routing, f_min=f_min)

    t0 = time.perf_counter()
    paths = enumerate_paths(revised, requests, params.k)
    stage["paths"] = time.perf_counter() - t0
    if not paths:
        return TrialContext(seed, revised, requests, params, (),
                            reason="no_paths", stage_seconds=stage)
    return TrialContext(seed, revised, requests, params, paths, stage_seconds=stage)


def _uncovered_requests(ctx: TrialContext, k: int) -> int:
    """Requests of the window whose demand k*f_min cannot cover even in principle."""
    if ctx.reason == "no_active_edges":
        return 0
    return sum(k * ctx.params.f_min < r.demand for r in ctx.requests)


def route_all(net: Network, paths: Sequence[Path], requests: Sequence[Request],
              params: RoutingParams, algorithms: Sequence[str],
              p_in: float) -> dict[str, AlgorithmResult]:
    """Steps 3-5 for every selected algorithm on one realized network; the
    outcomes share the window's one PathSet."""
    info = build_path_info(paths)
    results: dict[str, AlgorithmResult] = {}
    for name in algorithms:
        t0 = time.perf_counter()
        outcome = run_algorithm(name, net, info, params)
        dt = time.perf_counter() - t0
        results[name] = AlgorithmResult(outcome, evaluate(outcome, net, requests, p_in), dt)
    return results


def _zero_results(algorithms: Sequence[str], requests: Sequence[Request],
                  reason: str) -> dict[str, AlgorithmResult]:
    return {name: AlgorithmResult(RoutingOutcome(name, {}, {}, {}),
                                  zero_report(requests, reason))
            for name in algorithms}


def _summarize(net: Network, f_min: int) -> NetworkSummary:
    caps = net.capacity_map().values()
    return NetworkSummary(
        total_edges=len(net.edges), active_edges=len(caps),
        min_capacity=min(caps, default=0), max_capacity=max(caps, default=0),
        f_min=f_min)


def run_trial(config: ExperimentConfig, seed: int) -> TrialRecord:
    """One full processing window, Steps 0-5, on a paired realized network.

    Degenerate windows (no surviving edges, no paths) are recorded with zero
    metrics and a reason code rather than aborted.
    """
    ctx = prepare_trial(config, seed)
    uncovered = _uncovered_requests(ctx, ctx.params.k)
    if uncovered:
        logger.warning("seed %d: k*f_min = %d cannot cover demand even in "
                       "principle for %d request(s)", seed,
                       ctx.params.k * ctx.params.f_min, uncovered)
    summary = _summarize(ctx.revised, ctx.params.f_min or 0)
    if ctx.reason is not None:
        results = _zero_results(config.algorithms, ctx.requests, ctx.reason)
        return TrialRecord(seed, ctx.params, ctx.requests, summary, results,
                           ctx.stage_seconds, ctx.reason)
    results = route_all(ctx.revised, ctx.paths, ctx.requests, ctx.params,
                        config.algorithms, config.scenario.p_in)
    return TrialRecord(seed, ctx.params, ctx.requests, summary, results,
                       ctx.stage_seconds, None)


def _trial_task(args: tuple[ExperimentConfig, int]) -> TrialRecord:
    return run_trial(*args)


def worker_count() -> int:
    """Replication worker processes: QROUTE_WORKERS, a positive integer (default 1)."""
    text = os.environ.get(WORKERS_ENV, "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {text!r}")
    return int(text)


def _map_seeds(task, args: list[tuple]) -> list:
    """Seeds are independent work units; QROUTE_WORKERS > 1 fans them out to
    one process pool. Results always come back in the order of ``args``."""
    workers = worker_count()
    if workers > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, args))
    return [task(a) for a in args]


def run_trials(config: ExperimentConfig, seeds: Sequence[int]) -> list[TrialRecord]:
    """One trial per seed, in seed order."""
    return _map_seeds(_trial_task, [(config, s) for s in seeds])


def report_values(rep: MetricsReport) -> dict[str, float]:
    return {"F": rep.throughput, "F_min": rep.min_flow, "U_ave": rep.u_ave,
            "U_var": rep.u_var, "gamma": rep.stretch, "J_req": rep.jain_requests,
            "J_path": rep.jain_paths}


def metric_values(record: TrialRecord, algorithm: str) -> dict[str, float]:
    return report_values(record.results[algorithm].report)


def aggregate(records: Sequence[TrialRecord],
              algorithms: Sequence[str]) -> dict[str, dict[str, tuple[float, float]]]:
    """Per-algorithm (mean, standard error) of every metric.

    Records are reduced in seed order so the result is bit-identical no
    matter how the trials were scheduled.
    """
    ordered = sorted(records, key=lambda r: r.seed)
    return aggregate_reports({name: [rec.results[name].report for rec in ordered]
                              for name in algorithms})


def aggregate_reports(reports: dict[str, Sequence[MetricsReport]]
                      ) -> dict[str, dict[str, tuple[float, float]]]:
    """(mean, standard error) of every metric over each algorithm's reports,
    reduced in the order given."""
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for name, reps in reports.items():
        table = {m: [] for m in METRIC_FIELDS}
        for rep in reps:
            for m, v in report_values(rep).items():
                table[m].append(v)
        stats = {}
        for m, vals in table.items():
            arr = np.asarray(vals, dtype=float)
            stderr = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
            stats[m] = (float(arr.mean()), stderr)
        out[name] = stats
    return out


def replicate(config: ExperimentConfig) -> tuple[list[TrialRecord],
                                                 dict[str, dict[str, tuple[float, float]]]]:
    """Seeded replications (seed = base_seed + index) with aggregated statistics."""
    if config.replications < 1:
        raise ValueError("replications must be >= 1")
    seeds = [config.base_seed + i for i in range(config.replications)]
    records = run_trials(config, seeds)
    return records, aggregate(records, config.algorithms)


# ---------------------------------------------------------------- sweep engine

#: one sweep cell: each algorithm's reports, one per seed, in seed order
CellReports = dict[str, list[MetricsReport]]


def sweep_reports(config: ExperimentConfig, specs: Sequence[RequestSpec],
                  points: Sequence[RoutingParams]) -> list[list[CellReports]]:
    """Replicated reports for every (request spec, routing point) cell,
    indexed ``[spec][point]``; seeds are ``base_seed + i`` as in ``replicate``.

    Each stage runs once per key it depends on. Per (spec, l_max, seed) the
    window is prepared once with the group's largest k; a point's paths are
    the first k ranks of each request (Yen's output is prefix-stable in k).
    The PathSet and PF (which reads no alpha, beta or f_min) run once per k;
    PS and PU run per point. Every report equals the one ``run_trial`` gives
    for the point, so reductions over them match ``replicate``'s.
    """
    if config.replications < 1:
        raise ValueError("replications must be >= 1")
    seeds = [config.base_seed + i for i in range(config.replications)]
    per_seed = _map_seeds(_sweep_seed, [(config, tuple(specs), tuple(points), s)
                                        for s in seeds])
    uncovered = sum(count for _, count in per_seed)
    if uncovered:
        logger.warning("k*f_min cannot cover demand even in principle for %d "
                       "(point, seed, request) triples", uncovered)
    return [[{name: [cells[si][pi][name] for cells, _ in per_seed]
              for name in config.algorithms}
             for pi in range(len(points))]
            for si in range(len(specs))]


def _score(name: str, ctx: TrialContext, info: PathSet, params: RoutingParams,
           p_in: float) -> MetricsReport:
    outcome = run_algorithm(name, ctx.revised, info, params)
    return evaluate(outcome, ctx.revised, ctx.requests, p_in)


def _sweep_seed(args: tuple) -> tuple[list[list[dict[str, MetricsReport]]], int]:
    """One seed of ``sweep_reports``: the report per [spec][point][algorithm],
    and how many (point, request) pairs k*f_min cannot cover."""
    config, specs, points, seed = args
    groups: dict[int, dict[int, list[int]]] = {}  # l_max -> k -> point indices
    for i, point in enumerate(points):
        groups.setdefault(point.l_max, {}).setdefault(point.k, []).append(i)
    p_in = config.scenario.p_in
    out = []
    uncovered = 0
    for spec in specs:
        cells: list[dict[str, MetricsReport]] = [{} for _ in points]
        for by_k in groups.values():
            first = points[next(iter(by_k.values()))[0]]
            cfg = replace(config, requests=spec, routing=replace(first, k=max(by_k)))
            ctx = prepare_trial(cfg, seed)
            for k, indices in by_k.items():
                uncovered += len(indices) * _uncovered_requests(ctx, k)
                if ctx.reason is not None:
                    for i in indices:
                        cells[i] = {name: zero_report(ctx.requests, ctx.reason)
                                    for name in config.algorithms}
                    continue
                info = build_path_info(p for p in ctx.paths if p.rank < k)
                shared = ({"PF": _score("PF", ctx, info, ctx.params, p_in)}
                          if "PF" in config.algorithms else {})
                for i in indices:
                    params = replace(points[i], f_min=ctx.params.f_min)
                    cells[i] = {name: shared[name] if name in shared
                                else _score(name, ctx, info, params, p_in)
                                for name in config.algorithms}
        out.append(cells)
    return out, uncovered


# ---------------------------------------------------------------- parameter search

def parameter_grid(config: ExperimentConfig) -> list[RoutingParams]:
    """Cartesian grid over {l_max, k, alpha, beta}; scalars give a single point.

    Points are ordered lexicographically by (l_max, k, alpha, beta) so that
    argmax ties resolve deterministically.
    """
    axes = {}
    for name in ("l_max", "k", "alpha", "beta"):
        values = config.routing_grid.get(name)
        if values is None:
            values = (getattr(config.routing, name),)
        axes[name] = tuple(sorted(set(values)))
    points = []
    for l_max, k, alpha, beta in product(axes["l_max"], axes["k"],
                                         axes["alpha"], axes["beta"]):
        points.append(RoutingParams(k=int(k), l_max=int(l_max),
                                    alpha=float(alpha), beta=float(beta)))
    return points


def objective_value(report: MetricsReport, weights: ObjectiveWeights) -> float:
    """F + pi1*U_ave - pi2*U_var - pi3*gamma."""
    return (report.throughput + weights.pi1 * report.u_ave
            - weights.pi2 * report.u_var - weights.pi3 * report.stretch)


def grid_search_parameters(config: ExperimentConfig) -> tuple[
        dict[str, tuple[RoutingParams, float]], list[dict]]:
    """Brute-force argmax of the objective's replication mean per grid point.

    Returns the per-algorithm best point and the full evaluation table.
    """
    points = parameter_grid(config)
    if not points:
        raise ValueError("empty parameter grid")
    best: dict[str, tuple[RoutingParams, float]] = {}
    table: list[dict] = []
    for params, reports in zip(points, sweep_reports(config, [config.requests], points)[0]):
        agg = aggregate_reports(reports)
        for name in config.algorithms:
            values = [objective_value(rep, config.objective) for rep in reports[name]]
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


# ---------------------------------------------------------------- failure suite

def shared_utilized(results: dict[str, AlgorithmResult], mode: str,
                    requests: Sequence[Request]) -> list:
    """Failure candidates every algorithm relies on: utilized edges, or the
    non-endpoint stations on them. Using the shared pool keeps the
    before/after comparison paired across algorithms."""
    pools = []
    for res in results.values():
        usage = res.outcome.edge_usage()
        if mode == "edge":
            pools.append(set(usage))
        else:
            endpoints = {r.source for r in requests} | {r.terminal for r in requests}
            pools.append({n for e in usage for n in e} - endpoints)
    return sorted(set.intersection(*pools)) if pools else []


def degrade_outcome(outcome: RoutingOutcome,
                    dead_edges: set) -> RoutingOutcome:
    """Zero the flow of every path that traverses a dead edge.

    This is the within-window view of a failure: the schedule was already
    broadcast, so flow on broken virtual circuits is lost while intact paths
    keep their allocation.
    """
    flows = {key: (0 if any(e in dead_edges for e in outcome.path_edges[key]) else f)
             for key, f in outcome.flows.items()}
    return replace(outcome, flows=flows)


def default_failure_modes() -> list[tuple[str, int]]:
    return [(mode, count) for mode in ("edge", "node") for count in range(1, 5)]


def failure_experiment(config: ExperimentConfig,
                       modes: Sequence[tuple[str, int]] | None = None,
                       replications: int | None = None) -> list[dict]:
    """Compare throughput before and after injected failures.

    Failures are post-purification events hitting elements utilized by every
    algorithm. ``F_after`` evaluates the already-scheduled flows with broken
    paths zeroed; ``F_replanned`` re-runs Steps 2-5 on the failed graph with
    the same requests and window parameters. A count of 0 is a no-op
    comparison (after equals before).
    """
    if modes is None:
        modes = default_failure_modes()
    n_reps = replications if replications is not None else config.replications
    seeds = [config.base_seed + i for i in range(n_reps)]
    samples: dict[tuple[str, int, str], list[tuple[float, float, float]]] = {
        (mode, count, alg): [] for mode, count in modes for alg in config.algorithms}
    mode_index = {"edge": 0, "node": 1}
    for seed in seeds:
        ctx = prepare_trial(config, seed)
        if ctx.reason is not None:
            continue
        before = route_all(ctx.revised, ctx.paths, ctx.requests, ctx.params,
                           config.algorithms, config.scenario.p_in)
        for mode, count in modes:
            key = (mode, count)
            if count == 0:
                for alg in config.algorithms:
                    f = before[alg].report.throughput
                    samples[key + (alg,)].append((f, f, f))
                continue
            pool = shared_utilized(before, mode, ctx.requests)
            if count > len(pool):
                continue
            rng = np.random.default_rng([seed, mode_index[mode], count])
            failed = inject_failures(ctx.revised, mode, count, pool, rng)
            dead = ctx.revised.capacity_map().keys() - failed.capacity_map().keys()
            for alg in config.algorithms:
                res = before[alg]
                survived = degrade_outcome(res.outcome, dead)
                f_after = throughput(survived, ctx.requests, config.scenario.p_in)
                f_replanned = _reroute_throughput(failed, ctx.requests, ctx.params,
                                                  config, alg)
                samples[key + (alg,)].append(
                    (res.report.throughput, f_after, f_replanned))
    rows = []
    for (mode, count), alg in product(modes, config.algorithms):
        triples = samples[(mode, count, alg)]
        if not triples:
            continue
        arr = np.asarray(triples, dtype=float)
        before_mean, after_mean, replanned_mean = arr.mean(axis=0)
        n = len(triples)
        stderrs = arr.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(3)
        rows.append({
            "mode": mode, "count": count, "algorithm": alg, "n": n,
            "F_before_mean": float(before_mean), "F_before_stderr": float(stderrs[0]),
            "F_after_mean": float(after_mean), "F_after_stderr": float(stderrs[1]),
            "F_replanned_mean": float(replanned_mean),
            "retention": float(after_mean / before_mean) if before_mean > 0 else 0.0,
        })
    return rows


def _reroute_throughput(failed: Network, requests: Sequence[Request],
                        params: RoutingParams, config: ExperimentConfig,
                        algorithm: str) -> float:
    # Steps 2-5 only: the window's f_min (a Step-1 parameter) is kept, and it
    # stays feasible because the failed graph's edges are a subset of G'.
    if not failed.active_edges():
        return 0.0
    paths = enumerate_paths(failed, requests, params.k)
    if not paths:
        return 0.0
    results = route_all(failed, paths, requests, params, [algorithm],
                        config.scenario.p_in)
    return results[algorithm].report.throughput


# ---------------------------------------------------------------- request sweep

def request_sweep(config: ExperimentConfig,
                  counts: Iterable[int] = range(2, 11)) -> list[dict]:
    """Replicated trials per request count with arbitrary [s, t] pairs."""
    counts = list(counts)
    specs = [replace(config.requests, count=count, distance=None, pairs=None)
             for count in counts]
    rows = []
    for count, (reports,) in zip(counts, sweep_reports(config, specs, [config.routing])):
        agg = aggregate_reports(reports)
        for name in config.algorithms:
            row = {"requests": count, "algorithm": name}
            for m in METRIC_FIELDS:
                row[f"{m}_mean"], row[f"{m}_stderr"] = agg[name][m]
            row["F_per_request"] = row["F_mean"] / count
            rows.append(row)
    return rows


# ---------------------------------------------------------------- Monte Carlo

def swap_monte_carlo(outcome: RoutingOutcome, requests: Sequence[Request],
                     p_in: float, trials: int,
                     rng: np.random.Generator) -> tuple[float, float]:
    """Empirical throughput from simulated swap chains.

    Each allocated pair on a d-hop path survives d-1 successive Bernoulli(p_in)
    swaps, simulated as stage-wise binomial thinning. Returns (estimate,
    standard error of the mean).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    weights = {r.id: r.weight for r in requests}
    totals = np.zeros(trials)
    for (r, l), flow in sorted(outcome.flows.items()):
        if flow <= 0:
            continue
        survivors = np.full(trials, flow, dtype=np.int64)
        for _ in range(outcome.lengths[(r, l)] - 1):
            survivors = rng.binomial(survivors, p_in)
        totals += weights[r] * survivors
    estimate = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return estimate, stderr
