from functools import cached_property

import numpy as np
import pytest

from qroute import harness
from qroute.harness import (ExperimentConfig, ObjectiveWeights, RequestSpec,
                            aggregate, degrade_outcome, failure_experiment,
                            grid_search_parameters, metric_values,
                            objective_value, parameter_grid, prepare_trial,
                            replicate, request_sweep, run_trial, run_trials,
                            swap_monte_carlo, WORKERS_ENV)
from qroute.netmodel import Request, ScenarioParams
from qroute.scheduler import RoutingParams, RoutingOutcome


def small_config(**kwargs):
    defaults = dict(
        rows=5, cols=5,
        scenario=ScenarioParams(c0=50),
        routing=RoutingParams(k=4, l_max=5, alpha=1.0, beta=1.0),
        requests=RequestSpec(count=2, distance=2, demand=2),
        replications=4, base_seed=11)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_run_trial_deterministic():
    cfg = small_config()
    assert run_trial(cfg, 123) == run_trial(cfg, 123)


def test_run_trial_records_paired_results():
    rec = run_trial(small_config(), 5)
    assert set(rec.results) == {"PS", "PF", "PU"}
    assert rec.reason is None
    assert rec.network.active_edges > 0
    assert rec.params.f_min >= 1
    # every algorithm routed the identical path system
    keys = {name: set(res.outcome.flows) for name, res in rec.results.items()}
    assert keys["PS"] == keys["PF"] == keys["PU"]


def test_path_set_built_once_per_trial(monkeypatch):
    import qroute.harness as harness
    calls = []
    build = harness.build_path_info
    monkeypatch.setattr(harness, "build_path_info",
                        lambda paths: calls.append(1) or build(paths))
    records = [run_trial(small_config(), seed) for seed in range(8)]
    routable = [rec for rec in records if rec.reason is None]
    assert routable and len(calls) == len(routable)
    for rec in routable:
        ps, pf, pu = (rec.results[name].outcome for name in ("PS", "PF", "PU"))
        assert ps.path_edges is pf.path_edges is pu.path_edges
        assert ps.lengths is pf.lengths is pu.lengths


def test_run_trial_zero_metrics_when_no_edges():
    cfg = small_config(scenario=ScenarioParams(c0=50, p_out=0.0))
    rec = run_trial(cfg, 1)
    assert rec.reason == "no_active_edges"
    for res in rec.results.values():
        assert res.report.throughput == 0.0
        assert "no_active_edges" in res.report.flags


def test_replicate_single_equals_trial():
    cfg = small_config(replications=1)
    records, agg = replicate(cfg)
    assert len(records) == 1
    assert records[0] == run_trial(cfg, cfg.base_seed)
    for name in cfg.algorithms:
        for metric, (mean, stderr) in agg[name].items():
            assert stderr == 0.0
            assert mean == pytest.approx(metric_values(records[0], name)[metric])


def test_parallel_matches_serial(monkeypatch):
    cfg = small_config(replications=6)
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = run_trials(cfg, [cfg.base_seed + i for i in range(6)])
    monkeypatch.setenv(WORKERS_ENV, "2")
    parallel = run_trials(cfg, [cfg.base_seed + i for i in range(6)])
    assert serial == parallel
    assert aggregate(serial, cfg.algorithms) == aggregate(parallel, cfg.algorithms)


def test_aggregate_order_independent():
    cfg = small_config(replications=5)
    records, _ = replicate(cfg)
    assert aggregate(records, cfg.algorithms) == \
        aggregate(list(reversed(records)), cfg.algorithms)


# ---------------------------------------------------------------- Monte Carlo

def mc_outcome():
    return RoutingOutcome("PS", {(0, 0): 5, (0, 1): 3}, {(0, 0): 3, (0, 1): 4},
                          {(0, 0): ((0, 1),) * 3, (0, 1): ((1, 2),) * 4})


def test_swap_monte_carlo_perfect_swaps():
    reqs = [Request(0, 0, 9, demand=1)]
    est, stderr = swap_monte_carlo(mc_outcome(), reqs, 1.0, 500, np.random.default_rng(0))
    assert est == 8.0 and stderr == 0.0


def test_swap_monte_carlo_zero_success():
    reqs = [Request(0, 0, 9, demand=1)]
    est, stderr = swap_monte_carlo(mc_outcome(), reqs, 0.0, 500, np.random.default_rng(0))
    assert est == 0.0 and stderr == 0.0


def test_swap_monte_carlo_tracks_closed_form():
    from qroute.metrics import throughput
    reqs = [Request(0, 0, 9, demand=1, weight=1.5)]
    exact = throughput(mc_outcome(), reqs, 0.8)
    est, stderr = swap_monte_carlo(mc_outcome(), reqs, 0.8, 20_000,
                                   np.random.default_rng(7))
    assert abs(est - exact) <= 3 * stderr


# ------------------------------------------------------------------- search

def test_parameter_grid_single_point():
    cfg = small_config()
    points = parameter_grid(cfg)
    assert points == [RoutingParams(k=4, l_max=5, alpha=1.0, beta=1.0)]


def test_grid_search_single_point_returns_it():
    cfg = small_config(replications=2)
    best, table = grid_search_parameters(cfg)
    for name in cfg.algorithms:
        params, _ = best[name]
        assert (params.k, params.l_max) == (4, 5)
    assert len(table) == 3


def test_grid_search_pure_throughput_objective():
    cfg = small_config(replications=3,
                       routing_grid={"k": (1, 4)},
                       objective=ObjectiveWeights(0.0, 0.0, 0.0))
    best, table = grid_search_parameters(cfg)
    by_point = {(row["algorithm"], row["k"]): row for row in table}
    for name in cfg.algorithms:
        params, value = best[name]
        assert value == pytest.approx(by_point[(name, params.k)]["F_mean"])
        assert value == max(by_point[(name, k)]["objective"] for k in (1, 4))


def test_grid_search_multipath_beats_single_path():
    cfg = small_config(rows=8, cols=8, replications=10,
                       requests=RequestSpec(count=2, distance=3),
                       scenario=ScenarioParams(c0=100),
                       routing=RoutingParams(k=1, l_max=10, alpha=1.0, beta=1.0),
                       routing_grid={"k": (1, 8)},
                       objective=ObjectiveWeights(0.0, 0.0, 0.0))
    best, _ = grid_search_parameters(cfg)
    for name in cfg.algorithms:
        params, _ = best[name]
        assert params.k == 8


# ------------------------------------------------------------------ failures

def test_degrade_outcome_zeroes_broken_paths():
    out = mc_outcome()
    assert out.edge_usage() == {(0, 1): 15, (1, 2): 12}
    degraded = degrade_outcome(out, {(0, 1)})
    assert degraded.flows == {(0, 0): 0, (0, 1): 3}
    # a new outcome with its own usage view, not the cached one of ``out``
    assert degraded.edge_usage() == {(1, 2): 12}
    assert out.edge_usage() == {(0, 1): 15, (1, 2): 12}


def test_edge_usage_built_once_per_outcome(monkeypatch):
    built = []
    build = RoutingOutcome.__dict__["_edge_usage"].func

    def counting(outcome):
        built.append(outcome.algorithm)
        return build(outcome)

    view = cached_property(counting)
    view.__set_name__(RoutingOutcome, "_edge_usage")
    monkeypatch.setattr(RoutingOutcome, "_edge_usage", view)
    record = run_trial(small_config(), 5)
    assert record.reason is None
    # the feasibility check and utilization_stats both read each outcome's usage
    assert sorted(built) == ["PF", "PS", "PU"]
    outcome = record.results["PS"].outcome
    assert outcome.edge_usage() is outcome.edge_usage()


def test_failure_zero_count_is_noop():
    cfg = small_config(replications=3)
    rows = failure_experiment(cfg, modes=[("edge", 0)])
    for row in rows:
        assert row["F_after_mean"] == pytest.approx(row["F_before_mean"])
        assert row["retention"] == pytest.approx(1.0)


def test_failure_experiment_parallel_matches_serial(monkeypatch):
    cfg = small_config(replications=4)
    modes = [("edge", 1), ("node", 1), ("edge", 0)]
    tasks = []
    map_seeds = harness._map_seeds

    def spy(task, args):
        tasks.append(task.__name__)
        return map_seeds(task, args)

    monkeypatch.setattr(harness, "_map_seeds", spy)
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = failure_experiment(cfg, modes=modes)
    monkeypatch.setenv(WORKERS_ENV, "2")
    parallel = failure_experiment(cfg, modes=modes)
    assert serial and parallel == serial
    # one task per seed, through the same pool as replicated trials
    assert tasks == ["_failure_seed", "_failure_seed"]


def test_failure_modes_reduce_or_keep_throughput():
    cfg = small_config(rows=8, cols=8, replications=6,
                       scenario=ScenarioParams(c0=100),
                       routing=RoutingParams(k=6, l_max=10, alpha=1.0, beta=1.0),
                       requests=RequestSpec(count=2, distance=3))
    rows = failure_experiment(cfg, modes=[("edge", 1), ("node", 2)])
    assert rows, "failure suite produced no comparable seeds"
    for row in rows:
        assert row["F_after_mean"] <= row["F_before_mean"] + 1e-9
        assert row["n"] > 0


def test_request_sweep_mechanics():
    cfg = small_config(rows=8, cols=8, replications=3,
                       scenario=ScenarioParams(c0=100),
                       routing=RoutingParams(k=3, l_max=8, alpha=1.0, beta=1.0))
    rows = request_sweep(cfg, counts=(2, 3))
    assert {row["requests"] for row in rows} == {2, 3}
    for row in rows:
        assert row["F_per_request"] == pytest.approx(row["F_mean"] / row["requests"])


def test_objective_value_formula():
    rec = run_trial(small_config(), 2)
    report = rec.results["PS"].report
    weights = ObjectiveWeights(2.0, 3.0, 4.0)
    expected = (report.throughput + 2.0 * report.u_ave
                - 3.0 * report.u_var - 4.0 * report.stretch)
    assert objective_value(report, weights) == pytest.approx(expected)


def test_prepare_trial_stage_timings_present():
    ctx = prepare_trial(small_config(), 3)
    assert {"initialize", "purify", "paths"} <= set(ctx.stage_seconds)


def test_request_sweep_statistical_trends():
    # more simultaneous requests raise F but dilute per-request throughput
    cfg = small_config(rows=8, cols=8, replications=20,
                       scenario=ScenarioParams(c0=100),
                       routing=RoutingParams(k=5, l_max=10, alpha=1.0, beta=1.0))
    rows = request_sweep(cfg, counts=(2, 6, 10))
    by_count = {}
    for row in rows:
        by_count.setdefault(row["algorithm"], {})[row["requests"]] = row
    for name, table in by_count.items():
        assert table[10]["F_mean"] > table[2]["F_mean"], name
        assert table[10]["F_per_request"] < table[2]["F_per_request"], name
        # better than inverse-proportional: F/|R| stays above c/|R| with the
        # reference fitted at |R|=2, i.e. F keeps growing past the anchor
        anchor = table[2]["F_mean"]
        assert table[6]["F_mean"] >= anchor
        assert table[10]["F_mean"] >= anchor


def test_pipeline_runs_on_alternative_topologies():
    for kind in ("hexagonal", "triangular"):
        cfg = small_config(rows=6, cols=6, kind=kind, replications=1,
                           requests=RequestSpec(count=2, distance=None, demand=1))
        rec = run_trial(cfg, 3)
        assert set(rec.results) == {"PS", "PF", "PU"}
        if rec.reason is None:
            for res in rec.results.values():
                assert res.report.throughput >= 0.0


def test_low_k_f_min_demand_warning(caplog):
    import logging
    cfg = small_config(requests=RequestSpec(count=1, distance=2, demand=500))
    with caplog.at_level(logging.WARNING, logger="qroute.harness"):
        run_trial(cfg, 0)
    assert any("cannot cover demand" in rec.message for rec in caplog.records)


def test_pu_tops_ps_in_most_seeds():
    cfg = small_config(rows=8, cols=8, replications=40,
                       scenario=ScenarioParams(c0=100),
                       routing=RoutingParams(k=10, l_max=10, alpha=1.0, beta=1.0),
                       requests=RequestSpec(count=2, distance=3))
    records, _ = replicate(cfg)
    wins = sum(rec.results["PU"].report.throughput
               >= rec.results["PS"].report.throughput for rec in records)
    assert wins > len(records) / 2


def test_request_sweep_count_two_matches_replicate():
    cfg = small_config(rows=8, cols=8, replications=5,
                       scenario=ScenarioParams(c0=100),
                       routing=RoutingParams(k=4, l_max=8, alpha=1.0, beta=1.0),
                       requests=RequestSpec(count=9, distance=None, demand=2))
    rows = request_sweep(cfg, counts=(2,))
    from dataclasses import replace as drep
    direct_cfg = drep(cfg, requests=drep(cfg.requests, count=2, distance=None,
                                         pairs=None))
    _, agg = replicate(direct_cfg)
    for row in rows:
        assert row["F_mean"] == pytest.approx(agg[row["algorithm"]]["F"][0])
