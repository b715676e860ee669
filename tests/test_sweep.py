"""The sweep engine against the per-point loops it replaced, and the work it
saves: each stage runs once per key it depends on."""
import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (KeyedOutcome, reference_evaluate, reference_grid_search,
                      reference_request_sweep)

import qroute.harness as harness
from qroute.harness import (ExperimentConfig, RequestSpec, WORKERS_ENV,
                            grid_search_parameters, request_sweep, run_trial,
                            sweep_reports)
from qroute.metrics import evaluate
from qroute.netmodel import TOPOLOGIES, ScenarioParams
from qroute.scheduler import ALGORITHMS, RoutingParams

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
    for name in ("replicate", "run_trial"):
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
    # GRID's beta axis with 0 added, where PU too can ignore alpha
    config = sweep_config(routing_grid={**GRID, "beta": (0.0, *GRID["beta"])})
    # random pairs too, whose paths at one k often differ in length
    specs = [config.requests, replace(config.requests, distance=3),
             replace(config.requests, distance=None)]
    seeds = range(config.base_seed, config.base_seed + config.replications)
    ks = sorted(set(GRID["k"]))
    alphas, betas = set(GRID["alpha"]), config.routing_grid["beta"]
    # per routable (spec, l_max, seed) window and k: whether its paths have one length
    tied = []
    for spec in specs:
        for l_max in GRID["l_max"]:
            for seed in seeds:
                ctx = harness.prepare_trial(replace(
                    config, requests=spec, routing=RoutingParams(k=ks[-1], l_max=l_max)), seed)
                if ctx.reason is None:
                    tied += [len({len(p) for ps in ctx.paths.values() for p in ps[:k]}) <= 1
                             for k in ks]
    routable = len(tied) // len(ks)
    calls = count_calls(monkeypatch, ("prepare_trial", "k_shortest_paths",
                                      "build_path_info", "run_algorithm"))
    points = harness.parameter_grid(config)
    sweep_reports(config, specs, points)
    per_k = len(ks)
    assert routable > 0
    # the rule fires on some (window, k) pairs and not on others
    assert 0 < sum(tied) < len(tied)
    assert calls["prepare_trial"] == len(specs) * len(GRID["l_max"]) * len(seeds)
    assert calls["k_shortest_paths"] == calls["prepare_trial"] * config.requests.count
    assert calls["build_path_info"] == routable * per_k
    assert calls["run_algorithm:PF"] == routable * per_k
    # PS once per beta where the paths have one length, else per (alpha, beta);
    # PU the same, but at beta = 0 only
    assert calls["run_algorithm:PS"] == sum(
        len(betas) * (1 if one else len(alphas)) for one in tied)
    assert calls["run_algorithm:PU"] == sum(
        1 if one and beta == 0 else len(alphas) for one in tied for beta in betas)


def test_route_window_scores_each_distinct_schedule_once(monkeypatch):
    # at a k whose paths have one length, alpha = 0 and alpha = 1 share PS's
    # schedule (beta is 1 here, so not PU's); elsewhere they often give the
    # same PS or PU table, and at k = 1 the three algorithms often agree: such
    # outcomes share a report
    config = sweep_config(routing_grid={"k": (3, 1, 2), "alpha": (0.0, 1.0)}, replications=6)
    points = harness.parameter_grid(config)
    scored = []

    def spy(outcome, *args):
        # the outcomes of one k, and only they, share its PathSet
        scored.append((id(outcome.paths), tuple(outcome.flows.values())))
        return evaluate(outcome, *args)

    monkeypatch.setattr(harness, "evaluate", spy)
    calls = unshared = 0
    for seed in range(config.base_seed, config.base_seed + config.replications):
        # the grid's last point has its largest k
        ctx = harness.prepare_trial(replace(config, routing=points[-1]), seed)
        assert ctx.reason is None
        scored.clear()
        records = harness.route_window(ctx, points, config.algorithms, config.scenario.p_in)
        results = [result for record in records for result in record.results.values()]
        # one call per distinct (k, flows), and each report is its outcome's
        assert sorted(scored) == sorted({(id(r.outcome.paths), tuple(r.outcome.flows.values()))
                                         for r in results})
        for result in results:
            assert repr(result.report) == repr(reference_evaluate(
                KeyedOutcome.of(result.outcome), ctx.revised, ctx.requests,
                config.scenario.p_in))
        calls += len(scored)
        # without sharing: PS and PU per point, PF per k
        unshared += 2 * len(points) + len({p.k for p in points})
    assert 0 < calls < unshared
    assert grid_search_parameters(config) == reference_grid_search(config)


#: alpha and beta axes over which a window may reuse PS's and PU's schedules
ALPHAS = (0.0, 0.5, 1.0, 2.0, 3.7)
BETAS = (0.0, 0.5, 1.0, 2.0)


def routed_alone(ctx, points, algorithms, p_in):
    """Per point, its algorithms' flows and report reprs from a
    ``route_window`` call of its own."""
    out = []
    for point in points:
        (record,) = harness.route_window(ctx, [point], algorithms, p_in)
        out.append(results_of(record))
    return out


def results_of(record):
    return {name: (list(res.outcome.flows.items()), res.outcome.allocations, repr(res.report))
            for name, res in record.results.items()}


def test_route_window_reuse_equals_each_point_alone():
    rng = np.random.default_rng(2424)
    seen = Counter()
    for n in range(60):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        rows, cols = (int(x) for x in rng.integers(4, 9, size=2))
        k, l_max = int(rng.integers(2, 6)), int(rng.integers(2, 11))
        config = ExperimentConfig(
            rows=rows, cols=cols, kind=kind,
            scenario=ScenarioParams(c0=int(rng.choice([20, 60, 100, 1000]))),
            routing=RoutingParams(k=k, l_max=l_max),
            requests=RequestSpec(count=int(rng.integers(1, 5)),
                                 distance=int(rng.integers(1, 3))))
        ctx = harness.prepare_trial(config, int(rng.integers(0, 2**31)))
        if ctx.reason is not None:
            continue
        ks = sorted({int(rng.integers(1, k + 1)), k})
        points = [RoutingParams(k=pk, l_max=l_max, alpha=alpha, beta=beta)
                  for pk in ks for alpha in ALPHAS for beta in BETAS]
        p_in = float(rng.choice([0.5, 0.9, 1.0]))
        together = harness.route_window(ctx, points, ALGORITHMS, p_in)
        assert [results_of(r) for r in together] == routed_alone(ctx, points, ALGORITHMS, p_in)
        for pk in ks:
            # the rule fires at a k whose paths, more than one, have one length
            paths = [p for ps in ctx.paths.values() for p in ps[:pk]]
            fired = len(paths) > 1 and len(set(map(len, paths))) == 1
            seen[kind, fired] += 1
    # every kind has k's on both sides of the rule
    assert all(seen[kind, fired] >= 2 for kind in TOPOLOGIES for fired in (True, False)), seen
    assert sum(seen[kind, True] for kind in TOPOLOGIES) >= 25, seen


def test_pu_at_beta_1_reads_alpha_on_one_length():
    # every path has 6 hops, but at beta = 1 groups of different sizes tie in
    # weight, and alpha's rounding breaks the tie: PU's table moves with alpha
    config = ExperimentConfig(rows=8, cols=8, routing=RoutingParams(k=15, l_max=6),
                              requests=RequestSpec(count=4, distance=3))
    ctx = harness.prepare_trial(config, 49)
    assert ctx.reason is None
    assert {len(p) - 1 for ps in ctx.paths.values() for p in ps[:10]} == {6}
    points = [RoutingParams(k=10, l_max=6, alpha=alpha, beta=1.0) for alpha in ALPHAS]
    together = [results_of(r) for r in harness.route_window(ctx, points, ALGORITHMS, 0.9)]
    assert together == routed_alone(ctx, points, ALGORITHMS, 0.9)
    pu = [flows for flows, _, _ in (results["PU"] for results in together)]
    assert len({tuple(flows) for flows in pu}) > 1
    assert {sum(flow for _, flow in flows) for flows in pu} == {87}


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
