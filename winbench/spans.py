"""Per-layer spans and counts, recorded from outside qroute.

A traced pass replaces qroute's public functions, as they are bound in
``qroute.harness`` and ``qroute.scheduler``, with wrappers that record a span
(name, start, end, parent, window id) in memory and, after the call returns,
a few exact counts. The wrappers are removed when the pass ends. Names that a
module no longer binds are skipped, so a function that the program stops
calling reports 0 calls and 0 ms.

A layer's self time is the duration of its spans minus the part covered by
their child spans. Because spans nest, the self times of all spans partition
the root spans, so the layer times plus ``harness.self_ms`` add up to the
traced window wall time.
"""
from __future__ import annotations

import functools
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: per-window layer times, by the span names that feed them; any other span
#: (run_trial, replicate, grid_search_parameters, the benchmark's own window
#: root, ...) is orchestration and counts as harness.self_ms
TIME_METRICS = {
    "netmodel.init_ms": ("build_lattice", "sample_edge_states", "generate_requests"),
    "netmodel.prune_ms": ("deactivate_low_capacity_edges",),
    "purification.purify_ms": ("purify_network",),
    "pathfinder.ksp_ms": ("k_shortest_paths",),
    "pathfinder.path_info_ms": ("build_path_info",),
    "scheduler.f_min_ms": ("compute_f_min",),
    "scheduler.PS_ms": ("run_algorithm:PS",),
    "scheduler.PF_ms": ("run_algorithm:PF",),
    "scheduler.PU_ms": ("run_algorithm:PU",),
    "metrics.evaluate_ms": ("evaluate",),
    "reports.serialize_ms": ("serialize",),
    "harness.aggregate_ms": ("aggregate",),
}
_METRIC_OF_SPAN = {span: metric for metric, spans in TIME_METRICS.items()
                   for span in spans}
SELF_METRIC = "harness.self_ms"

ALGORITHMS = ("PS", "PF", "PU")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _active_edges(net) -> int:
    return len(net.active_edges())


def _count_edges_removed(key):
    def count(counts, args, kwargs, result):
        counts[key] += _active_edges(_arg(args, kwargs, 0, "net")) - _active_edges(result)
    return count


def _count_paths(counts, args, kwargs, result):
    counts["pathfinder.paths_found"] += len(result)


def _count_incidences(counts, args, kwargs, result):
    counts["pathfinder.incidences"] += sum(len(entries) for entries in result.values())


def _count_schedule(counts, args, kwargs, outcome):
    name = _arg(args, kwargs, 0, "name")
    caps = _arg(args, kwargs, 1, "net").capacity_map()
    on_paths = set().union(*outcome.path_edges.values())
    counts[f"scheduler.{name}.paths"] += len(outcome.flows)
    counts[f"scheduler.{name}.useful"] += sum(1 for f in outcome.flows.values() if f > 0)
    counts[f"scheduler.{name}.usage"] += sum(outcome.edge_usage().values())
    counts[f"scheduler.{name}.capacity"] += sum(caps[e] for e in on_paths)


def _count_window(counts, args, kwargs, record):
    counts["harness.degenerate_windows"] += record.reason is not None


#: wrapped names per module, each with the counter run after the call returns
HARNESS_COUNTERS = {
    "build_lattice": None,
    "sample_edge_states": None,
    "generate_requests": None,
    "purify_network": _count_edges_removed("purification.edges_lost"),
    "deactivate_low_capacity_edges": _count_edges_removed("netmodel.edges_pruned"),
    "compute_f_min": None,
    "k_shortest_paths": _count_paths,
    "build_path_info": _count_incidences,
    "run_algorithm": _count_schedule,
    "evaluate": None,
    "run_trial": _count_window,
    "run_trials": None,
    "replicate": None,
    "aggregate": None,
    "grid_search_parameters": None,
}
SCHEDULER_COUNTERS = {"compute_f_min": None, "run_algorithm": _count_schedule}


def _span_name(fn_name, args, kwargs) -> str:
    if fn_name == "run_algorithm":
        return f"run_algorithm:{_arg(args, kwargs, 0, 'name')}"
    return fn_name


class Tracer:
    """In-memory span log for one traced run.

    Counting happens after a call returns; its time is taken off the tracer's
    clock so that it lands in no span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, window id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._window = -1
        self._paused = 0.0

    def clock(self) -> float:
        return perf_counter() - self._paused

    def open(self, name: str, new_window: bool = False) -> int:
        if new_window:
            self._window += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._window])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_window: bool = False):
        index = self.open(name, new_window)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, counter):
        tracer = self
        fn_name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(fn_name, args, kwargs)
            # run_trial opens a window unless the benchmark's root already did
            top = tracer.spans[tracer._stack[0]][0] if tracer._stack else None
            index = tracer.open(name, new_window=fn_name == "run_trial" and top != "window")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            started = perf_counter()
            tracer.counts[f"calls.{name}"] += 1
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            tracer._paused += perf_counter() - started
            return result
        return traced

    @contextmanager
    def installed(self, bindings):
        """Wrap ``{module: {name: counter}}`` for the duration of the block."""
        originals = []
        try:
            for module, names in bindings.items():
                for name, counter in names.items():
                    fn = getattr(module, name, None)
                    if fn is None:
                        continue
                    originals.append((module, name, fn))
                    setattr(module, name, self.wrap(fn, counter))
            yield self
        finally:
            for module, name, fn in reversed(originals):
                setattr(module, name, fn)


def self_times(spans) -> tuple[dict[str, float], float]:
    """Self seconds per layer metric, and the summed duration of root spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {metric: 0.0 for metric in TIME_METRICS}
    totals[SELF_METRIC] = 0.0
    wall = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        totals[_METRIC_OF_SPAN.get(name, SELF_METRIC)] += (end - start) - covered[i]
        if parent < 0:
            wall += end - start
    return totals, wall


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, windows: int, passes: int) -> dict[str, float]:
    """Per-window layer times and counts; ``windows`` counts every traced
    window over ``passes`` identical passes."""
    totals, wall = self_times(tracer.spans)
    c = tracer.counts
    out = {metric: 1000.0 * seconds / windows for metric, seconds in totals.items()}
    out["trace.window_ms"] = 1000.0 * wall / windows
    out["trace.uncovered_frac"] = _frac(totals[SELF_METRIC], wall)
    ksp = [end - start for name, start, end, _, _ in tracer.spans if name == "k_shortest_paths"]
    out["pathfinder.ksp_ms_per_call_p50"] = 1000.0 * statistics.median(ksp) if ksp else 0.0
    out["netmodel.edges_pruned"] = c["netmodel.edges_pruned"] / windows
    out["purification.edges_lost"] = c["purification.edges_lost"] / windows
    out["pathfinder.ksp_calls"] = c["calls.k_shortest_paths"] / windows
    out["pathfinder.paths_found"] = c["pathfinder.paths_found"] / windows
    out["pathfinder.incidences"] = c["pathfinder.incidences"] / windows
    for alg in ALGORITHMS:
        out[f"scheduler.{alg}.useful_paths_frac"] = _frac(
            c[f"scheduler.{alg}.useful"], c[f"scheduler.{alg}.paths"])
        out[f"scheduler.{alg}.capacity_used_frac"] = _frac(
            c[f"scheduler.{alg}.usage"], c[f"scheduler.{alg}.capacity"])
    out["reports.record_bytes"] = c["reports.record_bytes"] / windows
    out["harness.degenerate_windows"] = c["harness.degenerate_windows"] / passes
    return out
