"""The sweep engine against the per-point loops it replaced, and the work it
saves: each stage runs once per key it depends on."""
import logging
from collections import Counter
from dataclasses import replace

import pytest
from conftest import reference_grid_search, reference_request_sweep

import qroute.harness as harness
from qroute.harness import (ExperimentConfig, RequestSpec, WORKERS_ENV,
                            grid_search_parameters, request_sweep, run_trial,
                            sweep_reports)
from qroute.netmodel import ScenarioParams
from qroute.scheduler import RoutingParams

#: an l_max axis, an unsorted k list with duplicates, alpha and beta axes
GRID = {"l_max": (6, 3), "k": (4, 1, 4, 2), "alpha": (1.0, 0.0), "beta": (0.5, 1.0)}


def sweep_config(**kwargs):
    defaults = dict(
        rows=5, cols=5,
        scenario=ScenarioParams(c0=30),
        routing=RoutingParams(k=3, l_max=4, alpha=1.0, beta=1.0),
        routing_grid=GRID,
        requests=RequestSpec(count=2, distance=2, demand=5),
        replications=4, base_seed=11)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


#: name -> (config, window reasons every sweep of it must meet)
CASES = {
    "routable": (sweep_config(), set()),
    "no_active_edges": (sweep_config(scenario=ScenarioParams(c0=30, p_out=0.0)),
                        {"no_active_edges"}),
    # 4x4 square with most links down: some windows disconnect a request pair
    "no_paths": (sweep_config(rows=4, cols=4, base_seed=3, replications=6,
                              scenario=ScenarioParams(c0=30, p_out=0.2)),
                 {"no_paths", None}),
    "hexagonal": (sweep_config(kind="hexagonal", rows=4, cols=5,
                               scenario=ScenarioParams(c0=40, p_out=0.3)), set()),
}


def reasons(config):
    seeds = range(config.base_seed, config.base_seed + config.replications)
    return {run_trial(config, seed).reason for seed in seeds}


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_search_matches_per_point_loop(name):
    config, expected_reasons = CASES[name]
    assert expected_reasons <= reasons(config)
    assert grid_search_parameters(config) == reference_grid_search(config)


@pytest.mark.parametrize("name", sorted(CASES))
def test_request_sweep_matches_per_point_loop(name):
    config, _ = CASES[name]
    config = replace(config, replications=3)
    counts = (3, 1, 3, 2)
    assert request_sweep(config, counts) == reference_request_sweep(config, counts)


def test_two_workers_give_the_serial_tables(monkeypatch):
    config, _ = CASES["no_paths"]
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = grid_search_parameters(config), request_sweep(config, (2, 3))
    monkeypatch.setenv(WORKERS_ENV, "2")
    parallel = grid_search_parameters(config), request_sweep(config, (2, 3))
    assert parallel == serial
    assert serial[0] == reference_grid_search(config)


def test_sweeps_call_no_per_point_replicate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a sweep ran a whole window per point")
    config = sweep_config(replications=2)
    expected = reference_grid_search(config), reference_request_sweep(config, (2, 3))
    for name in ("replicate", "run_trials", "run_trial"):
        monkeypatch.setattr(harness, name, forbidden)
    assert (grid_search_parameters(config), request_sweep(config, (2, 3))) == expected


def count_calls(monkeypatch, names):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = f"{name}:{args[0]}" if name == "run_algorithm" else name
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
    return calls


def test_each_stage_runs_once_per_key(monkeypatch):
    config = sweep_config()
    specs = [config.requests, replace(config.requests, distance=3)]
    seeds = range(config.base_seed, config.base_seed + config.replications)
    routable = sum(
        run_trial(replace(config, requests=spec, routing=RoutingParams(k=1, l_max=l_max)),
                  seed).reason is None
        for spec in specs for l_max in GRID["l_max"] for seed in seeds)
    calls = count_calls(monkeypatch, ("prepare_trial", "k_shortest_paths",
                                      "build_path_info", "run_algorithm"))
    points = harness.parameter_grid(config)
    sweep_reports(config, specs, points)
    per_k = len(set(GRID["k"]))
    per_point = len(points) // len(GRID["l_max"]) // per_k  # alpha x beta
    assert routable > 0
    assert calls["prepare_trial"] == len(specs) * len(GRID["l_max"]) * len(seeds)
    assert calls["k_shortest_paths"] == calls["prepare_trial"] * config.requests.count
    assert calls["build_path_info"] == routable * per_k
    assert calls["run_algorithm:PF"] == routable * per_k
    assert calls["run_algorithm:PS"] == calls["run_algorithm:PU"] == \
        routable * per_k * per_point


def test_route_window_rejects_points_the_window_was_not_prepared_for():
    config = sweep_config()
    ctx = harness.prepare_trial(config, config.base_seed)
    assert ctx.reason is None
    for point in (replace(config.routing, k=config.routing.k + 1),
                  replace(config.routing, l_max=config.routing.l_max - 1)):
        with pytest.raises(ValueError, match="does not fit"):
            harness.route_window(ctx, [point], config.algorithms, config.scenario.p_in)


def test_sweep_warns_once_with_a_count(caplog):
    # demand 500 is beyond k*f_min in every routable window
    config = sweep_config(requests=RequestSpec(count=2, distance=2, demand=500))
    with caplog.at_level(logging.WARNING, logger="qroute.harness"):
        for point in harness.parameter_grid(config):
            for seed in range(config.base_seed, config.base_seed + config.replications):
                run_trial(replace(config, routing=point), seed)
        per_window = [rec.args[-1] for rec in caplog.records
                      if "cannot cover demand" in rec.message]
        caplog.clear()
        grid_search_parameters(config)
    warnings = [rec for rec in caplog.records if "cannot cover demand" in rec.message]
    assert len(warnings) == 1
    assert warnings[0].args[0] == sum(per_window) > config.replications


def test_run_trial_warns_once_per_window(caplog):
    config = sweep_config(routing=RoutingParams(k=1, l_max=4),
                          requests=RequestSpec(count=3, distance=2, demand=500))
    with caplog.at_level(logging.WARNING, logger="qroute.harness"):
        record = run_trial(config, 11)
    assert record.reason is None
    warnings = [rec for rec in caplog.records if "cannot cover demand" in rec.message]
    assert len(warnings) == 1
    assert warnings[0].args[-1] == 3


@pytest.mark.parametrize("workers", ["1", "2"])
def test_replicate_warns_once_with_a_count(caplog, monkeypatch, workers):
    config = sweep_config(routing=RoutingParams(k=1, l_max=4), routing_grid={},
                          requests=RequestSpec(count=3, distance=2, demand=500))
    with caplog.at_level(logging.WARNING, logger="qroute.harness"):
        for seed in range(config.base_seed, config.base_seed + config.replications):
            run_trial(config, seed)
        per_window = [rec.args[-1] for rec in caplog.records
                      if "cannot cover demand" in rec.message]
        caplog.clear()
        monkeypatch.setenv(WORKERS_ENV, workers)
        harness.replicate(config)
    # the pool's workers log nothing; the parent counts the pairs from the records
    warnings = [rec for rec in caplog.records if "cannot cover demand" in rec.message]
    assert len(warnings) == 1
    assert warnings[0].args[0] == sum(per_window) > config.replications


def test_sweep_rejects_zero_replications():
    with pytest.raises(ValueError, match="replications"):
        grid_search_parameters(sweep_config(replications=0))
