import json
import pathlib
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

from conftest import (KeyedOutcome, info_from_path_edges, reference_evaluate,
                      reference_run_trial, reference_with_paths, yen_spurs)

from qroute import harness, pathfinder
from qroute.config import load_config
from qroute.harness import (ExperimentConfig, ObjectiveWeights, RequestSpec,
                            degrade_outcome, failure_experiment,
                            grid_search_parameters, objective_value, parameter_grid,
                            prepare_trial, replicate, report_values, request_sweep,
                            run_trial, swap_monte_carlo, WORKERS_ENV)
from qroute.metrics import evaluate, throughput
from qroute.netmodel import Request, ScenarioParams, build_lattice, inject_failures
from qroute.reports import record_to_dict
from qroute.scheduler import RoutingParams, RoutingOutcome, _assert_feasible


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

    def counted(net, paths, l_max):
        info = build(net, paths, l_max)
        # the truncated view is built with the PathSet, before any scheduler runs
        calls.append(list(info._kept))
        return info

    monkeypatch.setattr(harness, "build_path_info", counted)
    monkeypatch.setattr(pathfinder, "_memo", {})
    records = [run_trial(small_config(), seed) for seed in range(8)]
    routable = [rec for rec in records if rec.reason is None]
    assert routable and len(calls) == len(routable)
    # the PathSets in the order of their last use
    last_used = {}
    for rec in routable:
        ps, pf, pu = (rec.results[name].outcome for name in ("PS", "PF", "PU"))
        assert ps.paths is pf.paths is pu.paths
        last_used.pop(id(ps.paths), None)
        last_used[id(ps.paths)] = ps.paths
    # a record keeps its paths; H and the views that only routing reads stay
    # while the memo holds them, which it does for the last two PathSets only
    order = list(last_used.values())
    released, held = order[:-2], order[-2:]
    assert len(held) == 2
    assert [id(info) for _, info in pathfinder._memo.values()] == list(map(id, held))
    assert all(info._kept and info._incidence is not None for info in held)
    assert all(not info._kept and info._incidence is None for info in released)
    assert calls == [[rec.params.l_max] for rec in routable]


def test_run_trial_zero_metrics_when_no_edges():
    cfg = small_config(scenario=ScenarioParams(c0=50, p_out=0.0))
    rec = run_trial(cfg, 1)
    assert rec.reason == "no_active_edges"
    for res in rec.results.values():
        assert res.report.throughput == 0.0
        assert "no_active_edges" in res.report.flags


@pytest.mark.parametrize("algorithms", [(), ("XX",), ("PS", "PF", "PS")],
                         ids=["empty", "unknown", "repeated"])
def test_route_window_rejects_bad_algorithms_up_front(monkeypatch, algorithms):
    def forbidden(*args, **kwargs):
        raise AssertionError("a window routed before the algorithms were checked")
    monkeypatch.setattr(harness, "build_path_info", forbidden)
    monkeypatch.setattr(harness, "run_algorithm", forbidden)
    # a window with no active edges and a routable one
    for scenario, reason in ((ScenarioParams(c0=50, p_out=0.0), "no_active_edges"),
                             (ScenarioParams(c0=50), None)):
        ctx = harness.prepare_trial(small_config(scenario=scenario), 5)
        assert ctx.reason == reason
        with pytest.raises(ValueError, match="algorithms must name"):
            harness.route_window(ctx, [ctx.params], algorithms, 0.9)


@pytest.mark.parametrize("kind", ["square", "hexagonal", "triangular"])
def test_run_trial_matches_reference(kind):
    reasons = set()
    for p_out in (0.0, 0.2, 0.3):  # every edge down, some pairs cut off, routable
        cfg = small_config(rows=4, kind=kind, scenario=ScenarioParams(c0=30, p_out=p_out),
                           routing=RoutingParams(k=3, l_max=4),
                           requests=RequestSpec(count=2, distance=None, demand=2))
        for seed in range(12):
            record = run_trial(cfg, seed)
            reasons.add(record.reason)
            assert record_to_dict(record) == record_to_dict(reference_run_trial(cfg, seed))
    assert reasons == {None, "no_active_edges", "no_paths"}


BASELINE = pathlib.Path(__file__).resolve().parent.parent / "configs" / "baseline.yml"


def test_pinned_baseline_windows_skip_yen():
    # configs/baseline.yml pins two requests at lattice offset (3, 3), whose
    # shortest-path DAG holds C(6, 3) = 20 paths on the complete lattice, and
    # k = 10. On most revised networks it still holds k, so k_shortest_paths
    # takes its prefix and Yen visits no spur index.
    config = load_config(str(BASELINE))
    windows, yen_windows = 60, 0
    for seed in range(windows):
        ctx = prepare_trial(config, seed)
        reference = reference_with_paths(ctx)
        assert (ctx.paths, ctx.reason) == (reference.paths, reference.reason)
        yen_windows += any(
            yen_spurs(ctx.paths[r.id], ctx.params.k) for r in ctx.requests)
        if seed < 10:
            assert record_to_dict(run_trial(config, seed)) == \
                record_to_dict(reference_run_trial(config, seed))
    assert 0 < yen_windows < windows // 2


def test_replicate_single_equals_trial():
    cfg = small_config(replications=1)
    records, agg = replicate(cfg)
    assert len(records) == 1
    assert records[0] == run_trial(cfg, cfg.base_seed)
    for name in cfg.algorithms:
        for metric, (mean, stderr) in agg[name].items():
            assert stderr == 0.0
            assert mean == pytest.approx(
                report_values(records[0].results[name].report)[metric])


def test_parallel_matches_serial(monkeypatch):
    cfg = small_config(replications=6)
    monkeypatch.setenv(WORKERS_ENV, "1")
    serial = replicate(cfg)
    monkeypatch.setenv(WORKERS_ENV, "2")
    parallel = replicate(cfg)
    assert serial == parallel
    # each record writes the same JSON under either worker count
    assert ([json.dumps(record_to_dict(r)) for r in serial[0]]
            == [json.dumps(record_to_dict(r)) for r in parallel[0]])


def test_replicate_bytes_do_not_depend_on_the_memo(monkeypatch):
    # build_path_info hands a window an earlier window's PathSet when their
    # paths are equal, with the PS and PU plans that earlier windows left on
    # it; a cold memo, one that another config's windows filled and planned,
    # the seeds in reverse order and two worker processes all give the same
    # bytes per seed
    config = load_config(str(BASELINE))
    monkeypatch.setenv(WORKERS_ENV, "1")
    monkeypatch.setattr(pathfinder, "_memo", {})
    records = replicate(config)[0]
    cold = [json.dumps(record_to_dict(r)) for r in records]
    assert len({id(r.results["PS"].outcome.paths) for r in records}) < len(records) / 2
    # the same pinned requests at another capacity: equal paths, other networks
    replicate(replace(config, scenario=replace(config.scenario, c0=10000)))
    # a PathSet the memo handed out again holds a PS and a PU plan
    planned = [info for _, info in pathfinder._memo.values() if info._plans is not None]
    assert planned and all(len(info._plans) == 2 for info in planned)
    again = replicate(config)[0]
    warm = [json.dumps(record_to_dict(r)) for r in again]
    # windows of this run scheduled PathSets that the run at c0 = 10000 had planned
    assert any(r.results["PS"].outcome.paths is info for r in again for info in planned)
    seeds = range(config.base_seed, config.base_seed + config.replications)
    backwards = [json.dumps(record_to_dict(run_trial(config, s))) for s in reversed(seeds)]
    monkeypatch.setenv(WORKERS_ENV, "2")
    parallel = [json.dumps(record_to_dict(r)) for r in replicate(config)[0]]
    assert cold == warm == backwards[::-1] == parallel


def test_replicate_bytes_do_not_depend_on_the_lattice_paths(monkeypatch):
    # k_shortest_paths answers a request with its lattice's stored paths when
    # G' keeps every edge they cross. A cold store, one that another config's
    # windows filled, the seeds in reverse order and two worker processes all
    # give the same bytes per seed.
    config = load_config(str(BASELINE))
    monkeypatch.setenv(WORKERS_ENV, "1")
    searches = []
    yen = pathfinder._yen

    def recorded_yen(masks, s, t, k, bipartite):
        searches.append((s, t, k))
        return yen(masks, s, t, k, bipartite)

    monkeypatch.setattr(pathfinder, "_yen", recorded_yen)
    stored = build_lattice(config.rows, config.cols, config.kind).lattice().paths
    assert not stored
    cold = [json.dumps(record_to_dict(r)) for r in replicate(config)[0]]
    # two pinned requests per window, and most windows search for neither
    assert stored and 0 < len(searches) < config.replications / 2
    # the same pinned requests at another capacity store the lattice's paths
    stored.clear()
    replicate(replace(config, scenario=replace(config.scenario, c0=10000)))
    assert set(stored) == {(27, 54, 10), (30, 51, 10)}
    warm = [json.dumps(record_to_dict(r)) for r in replicate(config)[0]]
    seeds = range(config.base_seed, config.base_seed + config.replications)
    backwards = [json.dumps(record_to_dict(run_trial(config, s))) for s in reversed(seeds)]
    monkeypatch.setenv(WORKERS_ENV, "2")
    parallel = [json.dumps(record_to_dict(r)) for r in replicate(config)[0]]
    assert cold == warm == backwards[::-1] == parallel


# ---------------------------------------------------------------- Monte Carlo

def mc_outcome():
    return RoutingOutcome("PS", {(0, 0): 5, (0, 1): 3},
                          info_from_path_edges({(0, 0): ((0, 1),) * 3, (0, 1): ((1, 2),) * 4},
                                               {(0, 0): 3, (0, 1): 4}))


def test_swap_monte_carlo_perfect_swaps():
    reqs = [Request(0, 0, 9, demand=1)]
    est, stderr = swap_monte_carlo(mc_outcome(), reqs, 1.0, 500, np.random.default_rng(0))
    assert est == 8.0 and stderr == 0.0


def test_swap_monte_carlo_zero_success():
    reqs = [Request(0, 0, 9, demand=1)]
    est, stderr = swap_monte_carlo(mc_outcome(), reqs, 0.0, 500, np.random.default_rng(0))
    assert est == 0.0 and stderr == 0.0


@pytest.mark.parametrize("p_in", [1.5, float("nan"), -0.2])
def test_swap_monte_carlo_rejects_bad_p_in(p_in):
    # one-hop paths draw no swap, yet p_in is checked as throughput checks it
    one_hop = RoutingOutcome("PS", {(0, 0): 5},
                             info_from_path_edges({(0, 0): ((0, 1),)}, {(0, 0): 1}))
    reqs = [Request(0, 0, 9, demand=1)]
    with pytest.raises(ValueError, match="p_in"):
        throughput(one_hop, reqs, p_in)
    with pytest.raises(ValueError, match="p_in"):
        swap_monte_carlo(one_hop, reqs, p_in, 10, np.random.default_rng(0))


def test_swap_monte_carlo_tracks_closed_form():
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


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_degraded_outcome_evaluates_on_failed_network(mode):
    # the failed edges stay on the outcome's paths but leave the failed
    # network's capacity map; with no flow left on them, capacity 0 holds them
    cfg = small_config()
    checked = 0
    for seed in range(6):
        ctx = harness.prepare_trial(cfg, seed)
        if ctx.reason is not None:
            continue
        (before,) = harness.route_window(ctx, [ctx.params], cfg.algorithms,
                                         cfg.scenario.p_in)
        pool = harness.shared_utilized(before.results, mode, ctx.requests)
        if not pool:
            continue
        failed = inject_failures(ctx.revised, mode, 1, pool, np.random.default_rng(seed))
        dead = ctx.revised.capacity_map().keys() - failed.capacity_map().keys()
        for res in before.results.values():
            degraded = degrade_outcome(res.outcome, dead)
            assert dead & set(degraded.paths.edges)
            _assert_feasible(degraded, [failed.capacity_map().get(e, 0)
                                        for e in degraded.paths.edges])
            report = evaluate(degraded, failed, ctx.requests, cfg.scenario.p_in)
            assert repr(report) == repr(reference_evaluate(
                KeyedOutcome.of(degraded), failed, ctx.requests, cfg.scenario.p_in))
            checked += 1
    assert checked >= 6


def test_edge_usage_built_once_per_outcome(monkeypatch):
    built = []
    build = RoutingOutcome.__dict__["usage"].func

    def counting(outcome):
        built.append(outcome.algorithm)
        return build(outcome)

    view = cached_property(counting)
    view.__set_name__(RoutingOutcome, "usage")
    monkeypatch.setattr(RoutingOutcome, "usage", view)
    record = run_trial(small_config(), 5)
    assert record.reason is None
    # the feasibility check and evaluate both read each outcome's usage, built once
    assert sorted(built) == ["PF", "PS", "PU"]
    outcome = record.results["PS"].outcome
    assert outcome.usage is outcome.usage
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


@pytest.mark.parametrize("modes, replications, match", [
    ([("edge", 1)], 0, "replications must be >= 1"),
    ([("link", 1)], 1, r"\('link', 1\)"),
    ([("edge", 1), ("node", -1)], 1, r"\('node', -1\)"),
], ids=["zero_replications", "unknown_mode", "negative_count"])
def test_failure_experiment_rejects_bad_input_up_front(monkeypatch, modes,
                                                       replications, match):
    def forbidden(*args, **kwargs):
        raise AssertionError("a window ran before the input was checked")
    monkeypatch.setattr(harness, "prepare_trial", forbidden)
    with pytest.raises(ValueError, match=match):
        failure_experiment(small_config(replications=replications), modes=modes)


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
    direct_cfg = replace(cfg, requests=replace(cfg.requests, count=2, distance=None,
                                               pairs=None))
    _, agg = replicate(direct_cfg)
    for row in rows:
        assert row["F_mean"] == pytest.approx(agg[row["algorithm"]]["F"][0])
