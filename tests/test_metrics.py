import pytest
from conftest import line_network

from qroute.metrics import (evaluate, evaluate_demand, jain_paths,
                            jain_requests, min_flow, stretch_factor,
                            throughput, utilization_stats, zero_report)
from qroute.netmodel import Request
from qroute.pathfinder import PathSet
from qroute.scheduler import RoutingOutcome


def make_outcome(flows, lengths, path_edges, algorithm="PS"):
    return RoutingOutcome(algorithm, flows, PathSet(path_edges, lengths))


def simple_outcome():
    # one request, one path of length 3 carrying flow 4
    return make_outcome({(0, 0): 4}, {(0, 0): 3},
                        {(0, 0): ((0, 1), (1, 2), (2, 3))})


def requests(n, weight=1.0, demand=10):
    return [Request(i, 2 * i, 2 * i + 1, demand, weight) for i in range(n)]


def test_throughput_single_path():
    assert throughput(simple_outcome(), requests(1), 0.9) == pytest.approx(4 * 0.81)


def test_throughput_classical_limit():
    out = make_outcome({(0, 0): 4, (1, 0): 6}, {(0, 0): 3, (1, 0): 5},
                       {(0, 0): ((0, 1),) * 3, (1, 0): ((2, 3),) * 5})
    assert throughput(out, requests(2), 1.0) == pytest.approx(10.0)


def test_throughput_zero_flow():
    out = make_outcome({(0, 0): 0}, {(0, 0): 3}, {(0, 0): ((0, 1), (1, 2), (2, 3))})
    assert throughput(out, requests(1), 0.9) == 0.0


def test_throughput_validates_p_in():
    with pytest.raises(ValueError):
        throughput(simple_outcome(), requests(1), 1.5)


def test_min_flow_examples():
    out = make_outcome({(0, 0): 4, (1, 0): 2}, {(0, 0): 3, (1, 0): 3},
                       {(0, 0): ((0, 1), (1, 2), (2, 3)),
                        (1, 0): ((4, 5), (5, 6), (6, 7))})
    reqs = requests(2)
    per = [4 * 0.81, 2 * 0.81]
    assert min_flow(out, reqs, 0.9) == pytest.approx(min(per))
    assert min_flow(simple_outcome(), requests(1), 0.9) == \
        pytest.approx(throughput(simple_outcome(), requests(1), 0.9))


def test_min_flow_counts_pathless_requests_as_zero():
    assert min_flow(simple_outcome(), requests(2), 0.9) == 0.0


def _net_one_edge(capacity=10):
    return line_network([capacity])


def test_utilization_single_edge():
    out = make_outcome({(0, 0): 3, (1, 0): 4}, {(0, 0): 1, (1, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((0, 1),)})
    u, ave, var, empty = utilization_stats(out, _net_one_edge(10))
    assert u[(0, 1)] == pytest.approx(0.7)
    assert ave == pytest.approx(0.7)
    assert var == 0.0
    assert not empty


def test_utilization_full_edges():
    net = line_network([5, 8])
    out = make_outcome({(0, 0): 5, (1, 0): 8}, {(0, 0): 1, (1, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((1, 2),)})
    _, ave, var, _ = utilization_stats(out, net)
    assert ave == 1.0 and var == 0.0


def test_utilization_excludes_zero_flow_edges():
    net = line_network([5, 8])
    out = make_outcome({(0, 0): 5, (1, 0): 0}, {(0, 0): 1, (1, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((1, 2),)})
    u, ave, _, empty = utilization_stats(out, net)
    assert (1, 2) not in u and ave == 1.0 and not empty


def test_utilization_no_traffic_flag():
    out = make_outcome({(0, 0): 0}, {(0, 0): 1}, {(0, 0): ((0, 1),)})
    u, ave, var, empty = utilization_stats(out, _net_one_edge())
    assert empty and u == {} and ave == 0.0 and var == 0.0


def test_stretch_all_flow_on_shortest():
    per, gamma, undef = stretch_factor(simple_outcome())
    assert per[0] == 1.0 and gamma == 1.0 and not undef


def test_stretch_mixed_lengths():
    out = make_outcome({(0, 0): 2, (0, 1): 2}, {(0, 0): 4, (0, 1): 6},
                       {(0, 0): ((0, 1),) * 4, (0, 1): ((1, 2),) * 6})
    per, gamma, _ = stretch_factor(out)
    assert per[0] == pytest.approx(20 / 16)
    assert gamma == pytest.approx(1.25)


def test_stretch_undefined_when_no_flow():
    out = make_outcome({(0, 0): 0}, {(0, 0): 3}, {(0, 0): ((0, 1),) * 3})
    per, gamma, undef = stretch_factor(out)
    assert undef and gamma == 0.0 and per == {}


def test_jain_requests_examples():
    equal = make_outcome({(0, 0): 4, (1, 0): 4}, {(0, 0): 1, (1, 0): 1},
                         {(0, 0): ((0, 1),), (1, 0): ((2, 3),)})
    assert jain_requests(equal, requests(2))[0] == pytest.approx(1.0)

    lopsided = make_outcome({(0, 0): 4, (1, 0): 0}, {(0, 0): 1, (1, 0): 1},
                            {(0, 0): ((0, 1),), (1, 0): ((2, 3),)})
    assert jain_requests(lopsided, requests(2))[0] == pytest.approx(0.5)

    three_one = make_outcome({(0, 0): 3, (1, 0): 1}, {(0, 0): 1, (1, 0): 1},
                             {(0, 0): ((0, 1),), (1, 0): ((2, 3),)})
    assert jain_requests(three_one, requests(2))[0] == pytest.approx(0.8)


def test_jain_requests_zero_flag():
    out = make_outcome({(0, 0): 0}, {(0, 0): 1}, {(0, 0): ((0, 1),)})
    value, flagged = jain_requests(out, requests(1))
    assert value == 0.0 and flagged


def test_jain_paths_single_path_is_one():
    value, norm, flagged = jain_paths(simple_outcome(), requests(1))
    assert value == 1.0 and norm == 1.0 and not flagged


def test_jain_paths_printed_formula_can_exceed_one():
    out = make_outcome({(0, 0): 2, (0, 1): 2}, {(0, 0): 1, (0, 1): 1},
                       {(0, 0): ((0, 1),), (0, 1): ((2, 3),)})
    value, norm, _ = jain_paths(out, requests(1))
    assert value == pytest.approx(2.0)
    assert norm == pytest.approx(1.0)


def test_jain_paths_spread_beats_concentration():
    spread = make_outcome({(0, 0): 2, (0, 1): 2}, {(0, 0): 1, (0, 1): 1},
                          {(0, 0): ((0, 1),), (0, 1): ((2, 3),)})
    packed = make_outcome({(0, 0): 4, (0, 1): 0}, {(0, 0): 1, (0, 1): 1},
                          {(0, 0): ((0, 1),), (0, 1): ((2, 3),)})
    assert jain_paths(spread, requests(1))[0] > jain_paths(packed, requests(1))[0]


def test_demand_evaluation():
    out = make_outcome({(0, 0): 10, (1, 0): 0, (2, 0): 8},
                       {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((2, 3),), (2, 0): ((4, 5),)})
    reqs = [Request(0, 0, 1, demand=8), Request(1, 2, 3, demand=1),
            Request(2, 4, 5, demand=8)]
    assert evaluate_demand(out, reqs) == {0: True, 1: False, 2: True}


def test_evaluate_report_flags_and_fields():
    out = make_outcome({(0, 0): 3, (0, 1): 3}, {(0, 0): 1, (0, 1): 1},
                       {(0, 0): ((0, 1),), (0, 1): ((0, 1),)})
    report = evaluate(out, _net_one_edge(10), requests(1, demand=5), 0.9)
    assert report.throughput == pytest.approx(6.0)
    assert report.u_ave == pytest.approx(0.6)
    assert report.jain_paths == pytest.approx(2.0)
    assert "jain_path_above_one" in report.flags
    assert report.demand_satisfied == {0: True}


def test_zero_report_is_flagged():
    report = zero_report(requests(2), "no_paths")
    assert report.throughput == 0.0
    assert set(report.flags) == {"no_traffic", "no_paths"}
    assert report.demand_satisfied == {0: False, 1: False}


def test_throughput_decomposes_into_request_terms():
    from qroute.metrics import per_request_throughput
    out = make_outcome({(0, 0): 4, (0, 1): 1, (1, 0): 2},
                       {(0, 0): 3, (0, 1): 5, (1, 0): 4},
                       {(0, 0): ((0, 1),) * 3, (0, 1): ((1, 2),) * 5,
                        (1, 0): ((4, 5),) * 4})
    reqs = requests(2, weight=1.3)
    terms = per_request_throughput(out, reqs, 0.85)
    assert throughput(out, reqs, 0.85) == pytest.approx(sum(terms.values()))
    assert min_flow(out, reqs, 0.85) == pytest.approx(min(terms.values()))
    assert all(min_flow(out, reqs, 0.85) <= t for t in terms.values())


def test_stretch_at_least_one_and_unit_iff_shortest():
    from qroute.harness import ExperimentConfig, RequestSpec, run_trial
    from qroute.netmodel import ScenarioParams
    from qroute.scheduler import RoutingParams
    cfg = ExperimentConfig(rows=6, cols=6, scenario=ScenarioParams(c0=60),
                           routing=RoutingParams(k=6, l_max=6, alpha=1.0, beta=1.0),
                           requests=RequestSpec(count=2, distance=2, demand=1))
    for seed in range(5):
        rec = run_trial(cfg, seed)
        if rec.reason is not None:
            continue
        for res in rec.results.values():
            out, rep = res.outcome, res.report
            lengths = dict(zip(out.paths.keys, out.paths.lengths))
            for r, g in rep.stretch_per_request.items():
                assert g >= 1.0 - 1e-12
                shortest = lengths[(r, 0)]
                on_shortest_len = all(
                    lengths[key] == shortest
                    for key, f in out.flows.items() if key[0] == r and f > 0)
                assert (abs(g - 1.0) < 1e-12) == on_shortest_len


def test_jain_requests_bounds_with_equal_weights():
    out = make_outcome({(0, 0): 7, (1, 0): 1, (2, 0): 3},
                       {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((2, 3),), (2, 0): ((4, 5),)})
    value, flagged = jain_requests(out, requests(3))
    assert not flagged
    assert 1.0 / 3 <= value <= 1.0
