#!/usr/bin/env python3
"""Window benchmark for qroute: one closed-loop client in one process.

    python3 winbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 winbench/run.py --all [--seed N] [--seconds S] [--save FILE]

Run from the root of a qroute checkout; qroute is imported from its ``src``.
The last line of a single-workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it holds
the run's provenance, digest and sample counts. ``--all`` runs every workload
both ways and prints every metric by name and unit. See README.md.
"""
import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import gc
import hashlib
import json
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import cycle
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = (
    ("windows_per_s", "1/ref_s"),
    ("window_ms_p50", "ref_ms"),
    ("window_ms_tail", "ref_ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("config.load_ms", "ms"),
    ("netmodel.init_ms", "ms/window"),
    ("netmodel.prune_ms", "ms/window"),
    ("purification.purify_ms", "ms/window"),
    ("pathfinder.ksp_ms", "ms/window"),
    ("pathfinder.ksp_ms_per_call_p50", "ms"),
    ("pathfinder.path_info_ms", "ms/window"),
    ("scheduler.f_min_ms", "ms/window"),
    ("scheduler.PS_ms", "ms/window"),
    ("scheduler.PF_ms", "ms/window"),
    ("scheduler.PU_ms", "ms/window"),
    ("metrics.evaluate_ms", "ms/window"),
    ("reports.serialize_ms", "ms/window"),
    ("harness.self_ms", "ms/window"),
    ("harness.aggregate_ms", "ms/window"),
    ("trace.window_ms", "ms"),
    ("trace.uncovered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("netmodel.edges_pruned", "count/window"),
    ("purification.edges_lost", "count/window"),
    ("pathfinder.ksp_calls", "count/window"),
    ("pathfinder.paths_found", "count/window"),
    ("pathfinder.incidences", "count/window"),
    ("scheduler.PS.useful_paths_frac", "frac"),
    ("scheduler.PF.useful_paths_frac", "frac"),
    ("scheduler.PU.useful_paths_frac", "frac"),
    ("scheduler.PS.capacity_used_frac", "frac"),
    ("scheduler.PF.capacity_used_frac", "frac"),
    ("scheduler.PU.capacity_used_frac", "frac"),
    ("reports.record_bytes", "bytes/window"),
    ("harness.degenerate_windows", "count/pass"),
    ("harness.grid_points", "count"),
)
WORKLOAD_NAMES = ("paper_baseline", "high_capacity", "large_lattice", "param_sweep")

#: the tail latency is the highest of these percentiles with >= 10 windows beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: fresh child processes that repeat the set-up in a --trace 0 run
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170
#: one ref_ms is one calibration run, so one ref_s is a thousand (see Calibration)
CALIBRATIONS_PER_REF_S = 1000.0
CALIBRATION_SHARE = 0.08


class SourceMissing(RuntimeError):
    pass


class LogCounter(logging.Handler):
    """Counts qroute's log records instead of writing them to stderr, so that
    where stderr goes does not change the timings."""

    def __init__(self) -> None:
        super().__init__()
        self.records = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records += 1


def setup(workload: str, seed: int):
    """Import numpy and qroute from the checkout, load the workload's config
    and run one warm-up window; return the pieces and the seconds taken."""
    if not (SRC / "qroute" / "__init__.py").is_file():
        raise SourceMissing(f"no qroute sources under {SRC}")
    os.environ["QROUTE_WORKERS"] = "1"
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (its import is part of set-up)
    import qroute
    if SRC not in Path(qroute.__file__).resolve().parents:
        raise SourceMissing(f"qroute was imported from {qroute.__file__}, not {SRC}")
    import workloads as wl
    from qroute import harness, scheduler
    log_counter = LogCounter()
    log = logging.getLogger("qroute")
    log.addHandler(log_counter)
    log.propagate = False

    started = perf_counter()
    config = wl.load(workload, seed)
    load_s = perf_counter() - started
    wl.run_window(config, seed)  # warm-up window, in the sweep's first grid point too
    return SimpleNamespace(wl=wl, harness=harness, scheduler=scheduler, config=config,
                           load_s=load_s, seconds=perf_counter() - T0, log=log_counter)


def setup_probe(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def provenance(loadavg: list[str]) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            rev = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "qroute").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "QROUTE_WORKERS": os.environ["QROUTE_WORKERS"],
    }


def read_loadavg() -> list[str]:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


class Calibration:
    """A fixed piece of pure-Python graph work, timed between windows.

    The machine's speed drifts, up to twofold for tens of seconds on a shared
    host, in CPU time as much as in wall time. The calibration's time drifts
    with it, so a window's time divided by the calibration time next to it
    stays put. One ref_ms is the time of one calibration run; a window that
    takes ten calibration runs' time takes 10 ref_ms. Around a long window
    the calibration repeats for CALIBRATION_SHARE of the window's time, so
    that it samples the machine's speed as densely as around a short one;
    with less, a slow phase of the host moved the normalised figures.
    """

    SIDE = 12  # breadth-first search on a SIDE x SIDE grid ...
    STRIDE = 8  # ... from every STRIDE-th node

    def __init__(self) -> None:
        n = self.SIDE
        self.adjacency = {
            y * n + x: [y * n + x + dx + dy * n
                        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                        if 0 <= x + dx < n and 0 <= y + dy < n]
            for y in range(n) for x in range(n)}

    def _run(self) -> None:
        for source in range(0, len(self.adjacency), self.STRIDE):
            dist = {source: 0}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in self.adjacency[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            sorted(dist.values())

    def __call__(self, budget_s: float = 0.0) -> float:
        """Seconds one calibration run takes now: after one untimed run that
        warms the caches a window has just used, the mean of as many runs as
        fit in ``budget_s``, at least one."""
        collecting = gc.isenabled()
        gc.disable()  # time the interpreter, not a collection of the program's objects
        try:
            self._run()
            started = perf_counter()
            runs = 0
            while True:
                self._run()
                runs += 1
                elapsed = perf_counter() - started
                if elapsed >= budget_s:
                    return elapsed / runs
        finally:
            if collecting:
                gc.enable()


def in_ref_ms(latencies: list[float | None], calibrations: list[float]) -> list[float | None]:
    """Each latency divided by the mean of the calibrations just before and
    just after it (``calibrations`` has one more entry than ``latencies``)."""
    return [None if t is None else 2.0 * t / (calibrations[i] + calibrations[i + 1])
            for i, t in enumerate(latencies)]


@contextmanager
def calibrated_calls(module, name: str, calibrate, latencies: list, calibrations: list):
    """Calibrate before every call of ``module.name`` and time the call."""
    fn = getattr(module, name, None)
    if fn is None:
        yield
        return

    def timed(*args, **kwargs):
        calibrations.append(calibrate(CALIBRATION_SHARE * latencies[-1] if latencies else 0.0))
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            latencies.append(perf_counter() - started)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, fn)


@dataclass
class Pass:
    """One pass: window latencies in ref_ms (None where a window raised),
    seconds busy in windows (a sweep's whole time, calibration excluded), the
    mean calibration seconds around them, and wall seconds."""

    kind: str
    ref_ms: list
    busy_s: float
    calibration_s: float
    wall_s: float

    @property
    def windows(self) -> int:
        return sum(x is not None for x in self.ref_ms)

    @property
    def rate(self) -> float | None:
        """Windows per ref_s."""
        busy_ref_s = self.busy_s / (self.calibration_s * CALIBRATIONS_PER_REF_S)
        return self.windows / busy_ref_s if busy_ref_s > 0 else None


class Bench:
    """Runs passes of one workload and checks every output they produce.

    A window's output is its trial CSV rows; a sweep's is its table. The first
    time a window (or sweep base seed) runs, its output must survive a JSON
    round trip of the record and, where ``golden.json`` has its seed, match
    that digest. Every later run must reproduce the first output exactly.
    """

    def __init__(self, wl, harness, config, workload, calibrate_sweep_windows: bool):
        self.wl = wl
        self.harness = harness
        self.config = config
        self.workload = workload
        self.calibrate = Calibration()
        #: a traced sweep cannot calibrate inside its spans, so in a traced run
        #: no sweep pass does, and the untraced passes stay comparable
        self.calibrate_sweep_windows = calibrate_sweep_windows
        self.golden = wl.load_golden().get(workload.name, {})
        self.first: dict[int, str] = {}
        self.bad: set[int] = set()
        self.golden_checked = 0
        self.attempted = 0
        self.failed = 0

    def check(self, key: int, text: str, round_trip=None) -> bool:
        if key not in self.first:
            self.first[key] = text
            ok = round_trip is None or round_trip() == text
            gold = self.golden.get(str(key))
            if gold is not None:
                self.golden_checked += 1
                ok = ok and self.wl.digest(text) == gold
            if not ok:
                self.bad.add(key)
        return key not in self.bad and text == self.first[key]

    def window_pass(self, kind, seeds, tracer=None) -> Pass:
        """Closed loop over ``seeds``, with a calibration before each window
        and after the last."""
        started = perf_counter()
        latencies: list[float | None] = []
        calibrations = []
        for seed in seeds:
            self.attempted += 1
            calibrations.append(self.calibrate(CALIBRATION_SHARE * (latencies[-1] or 0.0)
                                               if latencies else 0.0))
            window_started = perf_counter()
            try:
                if tracer is None:
                    record, text = self.wl.run_window(self.config, seed)
                else:
                    with tracer.span("window", new_window=True):
                        record, text = self.wl.run_window(self.config, seed)
            except Exception:
                traceback.print_exc()
                self.failed += 1
                latencies.append(None)
                continue
            latencies.append(perf_counter() - window_started)
            rows = self.wl.rows_text(record)
            if not self.check(seed, rows, lambda: self.wl.round_trip_rows(text)):
                self.failed += 1
        calibrations.append(self.calibrate(CALIBRATION_SHARE * (latencies[-1] or 0.0)))
        busy = sum(t for t in latencies if t is not None)
        return Pass(kind, in_ref_ms(latencies, calibrations), busy,
                    statistics.fmean(calibrations), perf_counter() - started)

    def sweep_pass(self, kind, config, tracer=None) -> Pass:
        """One grid_search_parameters call. With ``calibrate_sweep_windows``,
        each run_trial call in it is calibrated and timed as a window;
        otherwise, or when it makes none, the sweep's time is spread evenly
        over its windows."""
        started = perf_counter()
        windows = self.wl.sweep_windows(config)
        self.attempted += windows
        latencies: list[float] = []
        before = self.calibrate()
        inner: list[float] = []
        sweep_started = perf_counter()
        try:
            if tracer is not None:
                with tracer.span("sweep"):
                    table = self.wl.run_sweep(config)
            elif self.calibrate_sweep_windows:
                with calibrated_calls(self.harness, "run_trial", self.calibrate,
                                      latencies, inner):
                    table = self.wl.run_sweep(config)
            else:
                table = self.wl.run_sweep(config)
        except Exception:
            traceback.print_exc()
            self.failed += windows
            return Pass(kind, [None] * windows, 0.0, before, perf_counter() - started)
        busy = perf_counter() - sweep_started - sum(inner)
        after = self.calibrate(CALIBRATION_SHARE * latencies[-1] if latencies else 0.0)
        if not self.check(config.base_seed, self.wl.table_text(table)):
            self.failed += windows
        calibration = statistics.fmean([before, *inner, after])
        if latencies:
            ref_ms = in_ref_ms(latencies, inner + [after])
        else:
            ref_ms = [busy / windows / calibration] * windows
        return Pass(kind, ref_ms, busy, calibration, perf_counter() - started)

    def run_pass(self, kind: str, tracer=None) -> Pass:
        if self.workload.kind == "sweep":
            return self.sweep_pass(kind, self.config, tracer)
        return self.window_pass(kind, self.wl.pool(self.workload, self.config.base_seed), tracer)

    def check_seed_zero(self) -> None:
        """Compare one output of seed 0, which golden.json always holds."""
        if self.workload.kind == "sweep":
            self.sweep_pass("check", replace(self.config, base_seed=0))
        else:
            self.window_pass("check", [0])


def percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile in TAIL_PERCENTILES with at
    least TAIL_MIN_BEYOND samples above it, by nearest rank; the maximum when
    there are too few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return 100.0, ordered[-1]


def measure(bench: Bench, seconds: float, traced: bool, tracer=None,
            bindings=None) -> list[Pass]:
    """Repeat passes until the next one would end past ``seconds``. A traced
    run alternates untraced and traced passes, at least one of each."""
    kinds = ("plain", "traced") if traced else ("plain",)
    passes = []
    started = perf_counter()
    for i, kind in enumerate(cycle(kinds)):
        if kind == "traced":
            with tracer.installed(bindings):
                passes.append(bench.run_pass(kind, tracer))
        else:
            passes.append(bench.run_pass(kind))
        if i + 1 >= len(kinds) and perf_counter() - started + passes[-1].wall_s > seconds:
            break
    if bench.golden_checked == 0:
        bench.check_seed_zero()
    return passes


def per_window_ref_ms(passes: list[Pass]) -> list[float]:
    """Each window's median latency over the passes; windows that never
    completed are left out. One value per window keeps the tail percentile
    the same however many passes fit in a run."""
    by_window: dict[int, list[float]] = {}
    for p in passes:
        for i, latency in enumerate(p.ref_ms):
            if latency is not None:
                by_window.setdefault(i, []).append(latency)
    return [statistics.median(values) for values in by_window.values()]


def median_rate(passes: list[Pass], kind: str) -> float:
    rates = [p.rate for p in passes if p.kind == kind and p.rate is not None]
    return statistics.median(rates) if rates else 0.0


def run_one(args) -> int:
    loadavg = read_loadavg()
    try:
        ready = setup(args.workload, args.seed)
    except SourceMissing as exc:
        print(f"winbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": ready.seconds}))
        return 0
    wl, harness, config = ready.wl, ready.harness, ready.config
    # fresh-process set-ups, half before and half after the passes, so that
    # they meet more than one phase of the machine's drift
    probes = 0 if args.trace else SETUP_PROBES
    setups = [ready.seconds]
    setups += [setup_probe(args.workload, args.seed) for _ in range(probes // 2)]

    workload = wl.WORKLOADS[args.workload]
    bench = Bench(wl, harness, config, workload, calibrate_sweep_windows=not args.trace)
    tracer = bindings = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        bindings = {harness: spans.HARNESS_COUNTERS, ready.scheduler: spans.SCHEDULER_COUNTERS,
                    wl: wl.SERIALIZE_COUNTERS}
    passes = measure(bench, args.seconds, bool(args.trace), tracer, bindings)
    setups += [setup_probe(args.workload, args.seed) for _ in range(probes - probes // 2)]

    plain = [p for p in passes if p.kind == "plain"]
    ref_ms = per_window_ref_ms(plain)
    busy = sum(p.busy_s for p in plain)
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(loadavg),
        "digest": wl.digest("".join(bench.first.get(k, "") for k in wl.pool(workload, args.seed))),
        "golden_checked": bench.golden_checked,
        "failed_frac": bench.failed / bench.attempted if bench.attempted else 1.0,
        "passes": [[p.kind, p.windows, p.busy_s, p.calibration_s, p.wall_s] for p in passes],
        "windows_timed": len(ref_ms),
        "raw_windows_per_s": sum(p.windows for p in plain) / busy if busy else None,
        "calibration_ms": 1000.0 * statistics.median(p.calibration_s for p in passes),
        "setup_samples_s": setups,
        "log_records": ready.log.records,
    }
    correct = bench.failed == 0 and bench.golden_checked > 0 and bool(ref_ms)
    if args.trace:
        traced = [p for p in passes if p.kind == "traced"]
        values = spans.layer_metrics(tracer, max(sum(p.windows for p in traced), 1), len(traced))
        values["config.load_ms"] = 1000.0 * ready.load_s
        plain_rate = median_rate(passes, "plain")
        values["trace.overhead_frac"] = (1.0 - median_rate(passes, "traced") / plain_rate
                                         if plain_rate else 0.0)
        values["harness.grid_points"] = (wl.grid_points(config)
                                         if workload.kind == "sweep" else 0)
        layer_sum = sum(values[m] for m in spans.TIME_METRICS) + values[spans.SELF_METRIC]
        detail["layer_sum_ms"] = layer_sum
        correct = correct and math.isclose(layer_sum, values["trace.window_ms"], rel_tol=1e-9)
        units = PER_LAYER
    else:
        tail_p, tail = percentile_tail(ref_ms) if ref_ms else (0.0, 0.0)
        detail["window_ms_tail_percentile"] = tail_p
        values = {
            "windows_per_s": median_rate(passes, "plain"),
            "window_ms_p50": statistics.median(ref_ms) if ref_ms else 0.0,
            "window_ms_tail": tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    saved = {}
    status = 0
    for name in WORKLOAD_NAMES:
        saved[name] = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(traced)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 30)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={traced}: exit code {proc.returncode}")
                status = 1
                continue
            detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
            saved[name][f"trace{traced}"] = {"result": result, "detail": detail}
            print(f"\n{name}  trace={traced}  correct={result['correct']}  "
                  f"attempted={result['attempted']}  failed={result['failed']}  "
                  f"failed_frac={detail['failed_frac']}  digest={detail['digest']}")
            if not traced:
                print(f"  window_ms_tail is p{detail['window_ms_tail_percentile']:g} "
                      f"of {detail['windows_timed']} windows")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:14.6g}  {entry['unit']}")
            status |= 0 if result["correct"] else 1
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both ways")
    parser.add_argument("--save", help="with --all: write every result to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required without --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
