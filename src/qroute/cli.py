"""Command-line entry: config parsing, subcommand dispatch, result files.

Exit codes: 0 success, 1 usage/config error, 2 runtime error, 3 completed
with degenerate (zero-metric) results.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from . import harness, reports
from .config import ConfigError, apply_overrides, distance_error, load_config

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_DEGENERATE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own exit codes
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _positive_int_list(text: str) -> list[int]:
    values = [_positive_int(v) for v in text.split(",") if v.strip()]
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", metavar="FILE",
                        help="YAML config file (defaults used when omitted)")
    parser.add_argument("--seed", type=int, help="override the base seed")
    parser.add_argument("--out-dir", default="results", metavar="DIR",
                        help="directory for result files (default: results)")
    parser.add_argument("--algorithms", metavar="LIST",
                        help="comma-separated subset of PS,PF,PU")
    parser.add_argument("--replications", type=_positive_int,
                        help="override the replication count")


def build_parser() -> _Parser:
    parser = _Parser(prog="qroute",
                     description="Entanglement routing simulator for lattice "
                                 "quantum-repeater networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one seeded trial")
    _add_common(p)
    p.add_argument("--traffic", choices=("graphml", "json"),
                   help="also export per-algorithm traffic plots")

    p = sub.add_parser("replicate", help="replicated trials with aggregates")
    _add_common(p)

    p = sub.add_parser("sweep", help="grid sweep over routing parameters "
                                     "and/or request distance")
    _add_common(p)
    p.add_argument("--distances", type=_positive_int_list, metavar="LIST",
                   help="comma-separated request distances to sweep")

    p = sub.add_parser("optimize", help="argmax of the objective over the grid")
    _add_common(p)

    p = sub.add_parser("failures", help="before/after throughput under failures")
    _add_common(p)
    p.add_argument("--max-failures", type=_positive_int, default=4,
                   help="largest edge/node failure count (default 4)")

    p = sub.add_parser("requests", help="sweep the number of requests per window")
    _add_common(p)
    p.add_argument("--counts", type=_positive_int_list, metavar="LIST",
                   default="2,3,4,5,6,7,8,9,10",
                   help="comma-separated request counts (default 2..10)")
    return parser


def _load(args) -> harness.ExperimentConfig:
    try:
        harness.worker_count()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    config = load_config(args.config)
    algorithms = None
    if args.algorithms:
        algorithms = tuple(a.strip() for a in args.algorithms.split(",") if a.strip())
    return apply_overrides(config, seed=args.seed, algorithms=algorithms,
                           replications=args.replications)


def _out(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _cmd_run(args) -> int:
    config = _load(args)
    record = harness.run_trial(config, config.base_seed)
    reports.write_trial_csv([record], _out(args, "trial.csv"))
    reports.write_records_json([record], _out(args, "trial.json"),
                               provenance=config.provenance)
    if args.traffic and record.reason is None:
        net = harness.prepare_trial(config, config.base_seed).revised
        for name, result in record.results.items():
            path = _out(args, f"traffic_{name}.{args.traffic}")
            if args.traffic == "graphml":
                reports.export_traffic_graphml(result.outcome, net, path)
            else:
                reports.export_traffic_json(result.outcome, net, path)
    for name in record.results:
        metrics = harness.metric_values(record, name)
        print(f"{name}: " + " ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
    if record.reason is not None:
        print(f"degenerate trial: {record.reason}")
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_replicate(args) -> int:
    config = _load(args)
    records, agg = harness.replicate(config)
    reports.write_trial_csv(records, _out(args, "trials.csv"))
    reports.write_records_json(records, _out(args, "trials.json"),
                               provenance=config.provenance)
    rows = reports.aggregate_rows(agg, len(records))
    reports.write_table_csv(rows, _out(args, "aggregate.csv"))
    for row in rows:
        print(f"{row['algorithm']}: F={row['F_mean']:.4f}±{row['F_stderr']:.4f} "
              f"J_req={row['J_req_mean']:.4f} gamma={row['gamma_mean']:.4f}")
    if all(r.reason is not None for r in records):
        print("all trials degenerate")
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load(args)
    for distance in args.distances or ():
        reason = distance_error(distance, config.rows, config.cols)
        if reason:
            raise _UsageError(f"--distances: {distance}: {reason}")
    points = harness.parameter_grid(config)
    # without --distances the config's requests, pinned pairs included, as they are
    specs = ([replace(config.requests, distance=d, pairs=None) for d in args.distances]
             if args.distances else [config.requests])
    rows = []
    for spec, cells in zip(specs, harness.sweep_reports(config, specs, points)):
        distance = spec.distance if spec.pairs is None else None
        for params, cell in zip(points, cells):
            extra = {"distance": distance, "k": params.k, "l_max": params.l_max,
                     "alpha": params.alpha, "beta": params.beta}
            rows.extend(reports.aggregate_rows(harness.aggregate_reports(cell),
                                               config.replications, extra))
    reports.write_table_csv(rows, _out(args, "sweep.csv"))
    print(f"wrote {len(rows)} sweep rows to {args.out_dir}/sweep.csv")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    config = _load(args)
    best, table = harness.grid_search_parameters(config)
    reports.write_table_csv(table, _out(args, "optimize.csv"))
    for name, (params, value) in best.items():
        print(f"{name}: best X = {{l_max: {params.l_max}, k: {params.k}, "
              f"alpha: {params.alpha}, beta: {params.beta}}} "
              f"objective = {value:.4f}")
    return EXIT_OK


def _cmd_failures(args) -> int:
    config = _load(args)
    modes = harness.default_failure_modes(args.max_failures)
    rows = harness.failure_experiment(config, modes)
    if not rows:
        print("no routable baseline trials; nothing to compare")
        return EXIT_DEGENERATE
    reports.write_table_csv(rows, _out(args, "failures.csv"))
    for row in rows:
        print(f"{row['mode']} x{row['count']} {row['algorithm']}: "
              f"F {row['F_before_mean']:.3f} -> {row['F_after_mean']:.3f} "
              f"(retention {row['retention']:.3f})")
    return EXIT_OK


def _cmd_requests(args) -> int:
    config = _load(args)
    rows = harness.request_sweep(config, args.counts)
    reports.write_table_csv(rows, _out(args, "requests.csv"))
    for row in rows:
        print(f"|R|={row['requests']} {row['algorithm']}: "
              f"F={row['F_mean']:.3f} F/|R|={row['F_per_request']:.3f}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "replicate": _cmd_replicate,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "failures": _cmd_failures,
    "requests": _cmd_requests,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, _UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
