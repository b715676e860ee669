"""Seeded trials, replication, parameter search, and the experiment suites."""
from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .metrics import MetricsReport, _check_p_in, evaluate, throughput, zero_report
from .netmodel import (Network, Request, ScenarioParams, build_lattice,
                       deactivate_low_capacity_edges, generate_requests,
                       inject_failures, sample_edge_states)
from .pathfinder import PathSet, build_path_info, k_shortest_paths
from .purification import purify_network
from .scheduler import (ALGORITHMS, RoutingOutcome, RoutingParams, compute_f_min,
                        run_algorithm, schedule_key)

logger = logging.getLogger(__name__)

#: environment variable controlling the replication worker count
WORKERS_ENV = "QROUTE_WORKERS"

METRIC_FIELDS = ("F", "F_min", "U_ave", "U_var", "gamma", "J_req", "J_path")

#: why a window could not route (``TrialRecord.reason``); each of its reports
#: is a ``zero_report`` that carries the reason among its flags
DEGENERATE_REASONS = frozenset({"no_active_edges", "no_paths"})


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


@dataclass
class AlgorithmResult:
    outcome: RoutingOutcome
    report: MetricsReport


@dataclass
class TrialRecord:
    """Everything one seeded window produced; reproducible from (config, seed)."""

    seed: int
    params: RoutingParams
    requests: tuple[Request, ...]
    network: NetworkSummary
    results: dict[str, AlgorithmResult]
    reason: str | None = None
    #: the capacity of each edge of the results' PathSet, by edge id; () when
    #: the window is degenerate
    capacities: tuple[int, ...] = ()


@dataclass
class TrialContext:
    """One prepared window (Steps 0-2), the input of ``route_window``."""

    seed: int
    revised: Network
    requests: tuple[Request, ...]
    params: RoutingParams
    #: request id -> its k shortest paths as node tuples, by rank
    paths: dict[int, list[tuple[int, ...]]]
    reason: str | None = None


def _resolve_requests(config: ExperimentConfig, net: Network,
                      rng: np.random.Generator) -> tuple[Request, ...]:
    spec = config.requests
    if spec.pairs is not None:
        return tuple(Request(i, s, t, spec.demand, spec.weight)
                     for i, (s, t) in enumerate(spec.pairs))
    return tuple(generate_requests(net, spec.count, spec.distance, rng,
                                   demand=spec.demand, weight=spec.weight))


def prepare_trial(config: ExperimentConfig, seed: int) -> TrialContext:
    """Steps 0-2: initialize, purify, revise topology, and enumerate paths."""
    rng = np.random.default_rng(seed)
    net = build_lattice(config.rows, config.cols, config.kind)
    net = sample_edge_states(net, config.scenario, rng)
    requests = _resolve_requests(config, net, rng)
    purified = purify_network(net, config.scenario.f_th)
    revised = deactivate_low_capacity_edges(purified, config.routing.l_max)
    f_min = compute_f_min(revised, config.routing.l_max) if revised.active_edges() else 0
    return _with_paths(TrialContext(seed, revised, requests,
                                    replace(config.routing, f_min=f_min), {}))


def _with_paths(ctx: TrialContext) -> TrialContext:
    """The context with the k shortest paths of every request on its network
    (none for a disconnected request), or the reason it has none."""
    if not ctx.revised.active_edges():
        return replace(ctx, reason="no_active_edges")
    paths = {r.id: k_shortest_paths(ctx.revised, r.source, r.terminal, ctx.params.k)
             for r in ctx.requests}
    return replace(ctx, paths=paths, reason=None if any(paths.values()) else "no_paths")


def _uncovered_requests(record: TrialRecord) -> int:
    """Requests of the window whose demand k*f_min cannot cover even in principle."""
    if record.reason == "no_active_edges":
        return 0
    return sum(record.params.k * record.params.f_min < r.demand for r in record.requests)


def _warn_uncovered(count: int, units: str) -> None:
    if count:
        logger.warning("k*f_min cannot cover demand even in principle for %d %s",
                       count, units)


def _summarize(net: Network) -> NetworkSummary:
    caps = net.capacity_map().values()
    return NetworkSummary(
        total_edges=len(net.edges), active_edges=len(caps),
        min_capacity=min(caps, default=0), max_capacity=max(caps, default=0))


def route_window(ctx: TrialContext, points: Sequence[RoutingParams],
                 algorithms: Sequence[str], p_in: float) -> list[TrialRecord]:
    """Steps 3-5 on one prepared window: one record per routing point.

    Every point has the context's l_max and a k no larger than the one its
    paths were enumerated with; a point's paths are the first k ranks of each
    request (Yen's output is prefix-stable in k). Per k the PathSet is built
    and its capacities read once; ``build_path_info`` returns an earlier
    window's PathSet when the paths are equal, and its memo, not the window,
    decides when the views go. Each algorithm runs once per
    ``schedule_key``: PF once, PS and PU once per (alpha, beta), or per beta
    when every path has one length (PU at beta = 0 only); a point whose key
    repeats reuses that result. An outcome with the flows of an earlier one
    of its k reuses that one's report: ``evaluate`` reads only the flows, the
    PathSet and the window. A degenerate context gives zero reports with its
    reason. Empty, unknown or repeated algorithms raise ValueError.
    """
    if not algorithms or sorted(set(algorithms) & set(ALGORITHMS)) != sorted(algorithms):
        raise ValueError(f"algorithms must name some of {ALGORITHMS} once each, got {algorithms}")
    summary = _summarize(ctx.revised)
    infos: dict[int, PathSet] = {}
    schedules: dict[tuple, AlgorithmResult] = {}  # result per (k, schedule_key)
    scores: dict[tuple, MetricsReport] = {}  # report per (k, flows)
    records = []
    for point in points:
        if point.l_max != ctx.params.l_max or point.k > ctx.params.k:
            raise ValueError(f"point {point} does not fit the window's {ctx.params}")
        params = replace(point, f_min=ctx.params.f_min)
        results: dict[str, AlgorithmResult] = {}
        for name in algorithms:
            if ctx.reason is not None:
                results[name] = AlgorithmResult(RoutingOutcome(name, {}, PathSet((), [], (), [])),
                                                zero_report(ctx.requests, ctx.reason))
                continue
            if point.k not in infos:
                infos[point.k] = build_path_info(
                    ctx.revised, {r: p[:point.k] for r, p in ctx.paths.items()}, point.l_max)
            key = (point.k, schedule_key(name, infos[point.k], params))
            if key not in schedules:
                outcome = run_algorithm(name, ctx.revised, infos[point.k], params)
                scored = (point.k, tuple(outcome.flows.values()))
                if scored not in scores:
                    scores[scored] = evaluate(outcome, ctx.revised, ctx.requests, p_in)
                schedules[key] = AlgorithmResult(outcome, scores[scored])
            results[name] = schedules[key]
        capacities = () if ctx.reason is not None else infos[point.k].capacities(ctx.revised)
        records.append(TrialRecord(ctx.seed, params, ctx.requests, summary, results,
                                   ctx.reason, capacities))
    return records


def run_trial(config: ExperimentConfig, seed: int) -> TrialRecord:
    """One full processing window, Steps 0-5, on a paired realized network.

    Degenerate windows (no surviving edges, no paths) are recorded with zero
    metrics and a reason code rather than aborted.
    """
    return route_trial(config, prepare_trial(config, seed))


def route_trial(config: ExperimentConfig, ctx: TrialContext) -> TrialRecord:
    """Steps 3-5 of ``run_trial`` on its prepared window, with one warning
    when k*f_min cannot cover some request's demand."""
    (record,) = route_window(ctx, [config.routing], config.algorithms, config.scenario.p_in)
    uncovered = _uncovered_requests(record)
    if uncovered:
        logger.warning("seed %d: k*f_min = %d cannot cover demand even in "
                       "principle for %d request(s)", ctx.seed,
                       record.params.k * record.params.f_min, uncovered)
    return record


def _trial_task(args: tuple[ExperimentConfig, int]) -> TrialRecord:
    config, seed = args
    return route_window(prepare_trial(config, seed), [config.routing],
                        config.algorithms, config.scenario.p_in)[0]


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
        # imported here, where workers run, so that `import qroute` skips it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, args))
    return [task(a) for a in args]


def _seeds(config: ExperimentConfig) -> list[int]:
    """Replication seeds ``base_seed + i``."""
    if config.replications < 1:
        raise ValueError("replications must be >= 1")
    return [config.base_seed + i for i in range(config.replications)]


def report_values(rep: MetricsReport) -> dict[str, float]:
    return {"F": rep.throughput, "F_min": rep.min_flow, "U_ave": rep.u_ave,
            "U_var": rep.u_var, "gamma": rep.stretch, "J_req": rep.jain_requests,
            "J_path": rep.jain_paths}


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
    """Seeded replications (seed = base_seed + index), in seed order, with
    each algorithm's (mean, standard error) of every metric reduced in that
    order, and one warning for the (seed, request) pairs whose demand k*f_min
    cannot cover."""
    records = _map_seeds(_trial_task, [(config, s) for s in _seeds(config)])
    _warn_uncovered(sum(map(_uncovered_requests, records)), "(seed, request) pairs")
    return records, aggregate_reports({name: [rec.results[name].report for rec in records]
                                       for name in config.algorithms})


# ---------------------------------------------------------------- sweep engine

#: one sweep cell: each algorithm's reports, one per seed, in seed order
CellReports = dict[str, list[MetricsReport]]


def all_degenerate(swept: Iterable[Iterable[CellReports]]) -> bool:
    """Whether no window of a sweep (``sweep_reports`` cells, by spec and
    point) routed: every report carries a ``DEGENERATE_REASONS`` flag."""
    return all(DEGENERATE_REASONS.intersection(rep.flags) for cells in swept
               for cell in cells for reps in cell.values() for rep in reps)


def sweep_reports(config: ExperimentConfig, specs: Sequence[RequestSpec],
                  points: Sequence[RoutingParams]) -> list[list[CellReports]]:
    """Replicated reports for every (request spec, routing point) cell,
    indexed ``[spec][point]``; seeds are ``base_seed + i`` as in ``replicate``.

    Each stage runs once per key it depends on. Per (spec, l_max, seed) the
    window is prepared once with the group's largest k, and ``route_window``
    routes every point of the group on it. Every report equals the one
    ``run_trial`` gives for the point, so reductions over them match
    ``replicate``'s.
    """
    per_seed = _map_seeds(_sweep_seed, [(config, tuple(specs), tuple(points), s)
                                        for s in _seeds(config)])
    _warn_uncovered(sum(count for _, count in per_seed), "(point, seed, request) triples")
    return [[{name: [cells[si][pi][name] for cells, _ in per_seed]
              for name in config.algorithms}
             for pi in range(len(points))]
            for si in range(len(specs))]


def _sweep_seed(args: tuple) -> tuple[list[list[dict[str, MetricsReport]]], int]:
    """One seed of ``sweep_reports``: the report per [spec][point][algorithm],
    and how many (point, request) pairs k*f_min cannot cover."""
    config, specs, points, seed = args
    groups: dict[int, list[int]] = {}  # l_max -> point indices
    for i, point in enumerate(points):
        groups.setdefault(point.l_max, []).append(i)
    out = []
    uncovered = 0
    for spec in specs:
        cells: list[dict[str, MetricsReport]] = [{} for _ in points]
        for indices in groups.values():
            group = [points[i] for i in indices]
            cfg = replace(config, requests=spec,
                          routing=replace(group[0], k=max(p.k for p in group)))
            records = route_window(prepare_trial(cfg, seed), group, config.algorithms,
                                   config.scenario.p_in)
            for i, record in zip(indices, records):
                uncovered += _uncovered_requests(record)
                cells[i] = {name: res.report for name, res in record.results.items()}
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


def grid_search_parameters(config: ExperimentConfig,
                           cells: Sequence[CellReports] | None = None) -> tuple[
        dict[str, tuple[RoutingParams, float]], list[dict]]:
    """Brute-force argmax of the objective's replication mean per grid point.

    Returns the per-algorithm best point and the full evaluation table.
    ``cells``, when given, are the grid's ``sweep_reports``, already run.
    """
    points = parameter_grid(config)
    if not points:
        raise ValueError("empty parameter grid")
    if cells is None:
        (cells,) = sweep_reports(config, [config.requests], points)
    best: dict[str, tuple[RoutingParams, float]] = {}
    table: list[dict] = []
    for params, reports in zip(points, cells):
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
    dead = [e in dead_edges for e in outcome.paths.edges]
    flows = {key: (0 if any(dead[e] for e in ids) else f)
             for (key, f), ids in zip(outcome.flows.items(), outcome.paths.edge_ids)}
    return replace(outcome, flows=flows)


FAILURE_MODES = ("edge", "node")


def default_failure_modes(max_count: int = 4) -> list[tuple[str, int]]:
    return [(mode, count) for mode in FAILURE_MODES for count in range(1, max_count + 1)]


def failure_experiment(config: ExperimentConfig,
                       modes: Sequence[tuple[str, int]] | None = None) -> list[dict]:
    """Compare throughput before and after injected failures.

    Failures are post-purification events hitting elements utilized by every
    algorithm. ``F_after`` evaluates the already-scheduled flows with broken
    paths zeroed; ``F_replanned`` re-runs Steps 2-5 on the failed graph with
    the same requests and window parameters. A count of 0 is a no-op
    comparison (after equals before). Each seed is one ``_map_seeds`` task.
    """
    if modes is None:
        modes = default_failure_modes()
    for mode, count in modes:
        if mode not in FAILURE_MODES or count < 0:
            raise ValueError(f"failure mode {(mode, count)!r}: expected one of "
                             f"{FAILURE_MODES} and a count >= 0")
    seeds = _seeds(config)
    samples: dict[tuple[str, int, str], list[tuple[float, float, float]]] = {
        (mode, count, alg): [] for mode, count in modes for alg in config.algorithms}
    for seed_samples in _map_seeds(_failure_seed, [(config, tuple(modes), seed)
                                                   for seed in seeds]):
        for key, triple in seed_samples:
            samples[key].append(triple)
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


def _failure_seed(args: tuple) -> list[tuple[tuple[str, int, str], tuple]]:
    """One seed of ``failure_experiment``: a (mode, count, algorithm) key and
    its (F_before, F_after, F_replanned) sample, for every comparable mode."""
    config, modes, seed = args
    ctx = prepare_trial(config, seed)
    if ctx.reason is not None:
        return []
    p_in = config.scenario.p_in
    (before,) = route_window(ctx, [ctx.params], config.algorithms, p_in)
    samples = []
    for mode, count in modes:
        if count == 0:
            for alg, res in before.results.items():
                f = res.report.throughput
                samples.append(((mode, count, alg), (f, f, f)))
            continue
        pool = shared_utilized(before.results, mode, ctx.requests)
        if count > len(pool):
            continue
        rng = np.random.default_rng([seed, FAILURE_MODES.index(mode), count])
        failed = inject_failures(ctx.revised, mode, count, pool, rng)
        dead = ctx.revised.capacity_map().keys() - failed.capacity_map().keys()
        # Steps 2-5 only: the window's f_min (a Step-1 parameter) is kept, and
        # it stays feasible because the failed graph's edges are a subset of G'
        (replanned,) = route_window(
            _with_paths(TrialContext(seed, failed, ctx.requests, ctx.params, {})),
            [ctx.params], config.algorithms, p_in)
        for alg, res in before.results.items():
            survived = degrade_outcome(res.outcome, dead)
            samples.append(((mode, count, alg),
                            (res.report.throughput, throughput(survived, ctx.requests, p_in),
                             replanned.results[alg].report.throughput)))
    return samples


# ---------------------------------------------------------------- request sweep

def request_specs(config: ExperimentConfig, counts: Iterable[int]) -> list[RequestSpec]:
    """The config's requests redrawn as ``count`` arbitrary [s, t] pairs, per count."""
    return [replace(config.requests, count=c, distance=None, pairs=None) for c in counts]


def request_sweep(config: ExperimentConfig, counts: Iterable[int] = range(2, 11),
                  cells: Sequence[Sequence[CellReports]] | None = None) -> list[dict]:
    """Replicated trials per request count with arbitrary [s, t] pairs;
    ``cells``, when given, are its ``sweep_reports``, already run."""
    specs = request_specs(config, counts)
    if cells is None:
        cells = sweep_reports(config, specs, [config.routing])
    rows = []
    for spec, (reports,) in zip(specs, cells):
        agg = aggregate_reports(reports)
        for name in config.algorithms:
            row = {"requests": spec.count, "algorithm": name}
            for m in METRIC_FIELDS:
                row[f"{m}_mean"], row[f"{m}_stderr"] = agg[name][m]
            row["F_per_request"] = row["F_mean"] / spec.count
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
    _check_p_in(p_in)
    weights = {r.id: r.weight for r in requests}
    totals = np.zeros(trials)
    for ((r, _), flow), d in zip(outcome.flows.items(), outcome.paths.lengths):
        if flow <= 0:
            continue
        survivors = np.full(trials, flow, dtype=np.int64)
        for _ in range(d - 1):
            survivors = rng.binomial(survivors, p_in)
        totals += weights[r] * survivors
    estimate = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return estimate, stderr
