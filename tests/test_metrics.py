import numpy as np
import pytest
from conftest import info_from_path_edges, line_network
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qroute.metrics import _fsum, _mean_var, evaluate, tally, throughput, zero_report
from qroute.netmodel import Request
from qroute.scheduler import RoutingOutcome

#: covers every edge the outcomes below route over
NET = line_network([100] * 8)


def make_outcome(flows, lengths, path_edges, algorithm="PS"):
    return RoutingOutcome(algorithm, flows, info_from_path_edges(path_edges, lengths))


def simple_outcome():
    # one request, one path of length 3 carrying flow 4
    return make_outcome({(0, 0): 4}, {(0, 0): 3},
                        {(0, 0): ((0, 1), (1, 2), (2, 3))})


def requests(n, weight=1.0, demand=10):
    return [Request(i, 2 * i, 2 * i + 1, demand, weight) for i in range(n)]


def report(outcome, reqs, p_in=1.0, net=NET):
    return evaluate(outcome, net, reqs, p_in)


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
    with pytest.raises(ValueError):
        report(simple_outcome(), requests(1), 1.5)


def test_evaluate_requires_a_request():
    with pytest.raises(ValueError, match="at least one request"):
        report(simple_outcome(), [])


def test_min_flow_examples():
    out = make_outcome({(0, 0): 4, (1, 0): 2}, {(0, 0): 3, (1, 0): 3},
                       {(0, 0): ((0, 1), (1, 2), (2, 3)),
                        (1, 0): ((4, 5), (5, 6), (6, 7))})
    reqs = requests(2)
    per = [4 * 0.81, 2 * 0.81]
    assert report(out, reqs, 0.9).min_flow == pytest.approx(min(per))
    assert report(simple_outcome(), requests(1), 0.9).min_flow == \
        pytest.approx(throughput(simple_outcome(), requests(1), 0.9))


def test_min_flow_counts_pathless_requests_as_zero():
    rep = report(simple_outcome(), requests(2), 0.9)
    assert rep.min_flow == 0.0
    assert rep.throughput == pytest.approx(4 * 0.81)


def _net_one_edge(capacity=10):
    return line_network([capacity])


def test_utilization_single_edge():
    out = make_outcome({(0, 0): 3, (1, 0): 4}, {(0, 0): 1, (1, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((0, 1),)})
    net = _net_one_edge(10)
    rep = report(out, requests(2), net=net)
    # per-edge u, by edge id, from the outcome's usage and the capacities
    assert [used / cap for used, cap in zip(out.usage, out.paths.capacities(net))] == \
        [pytest.approx(0.7)]
    assert rep.u_ave == pytest.approx(0.7)
    assert rep.u_var == 0.0
    assert "no_traffic" not in rep.flags


def test_utilization_full_edges():
    net = line_network([5, 8])
    out = make_outcome({(0, 0): 5, (1, 0): 8}, {(0, 0): 1, (1, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((1, 2),)})
    rep = report(out, requests(2), net=net)
    assert rep.u_ave == 1.0 and rep.u_var == 0.0


def test_utilization_excludes_zero_flow_edges():
    net = line_network([5, 8])
    out = make_outcome({(0, 0): 5, (1, 0): 0}, {(0, 0): 1, (1, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((1, 2),)})
    rep = report(out, requests(2), net=net)
    # (1, 2) carries no flow; counted at u = 0 it would make U_ave 0.5
    assert rep.u_ave == 1.0 and rep.u_var == 0.0
    assert "no_traffic" not in rep.flags


def test_utilization_no_traffic_flag():
    out = make_outcome({(0, 0): 0}, {(0, 0): 1}, {(0, 0): ((0, 1),)})
    rep = report(out, requests(1), net=_net_one_edge())
    assert "no_traffic" in rep.flags
    assert not any(out.usage) and rep.u_ave == 0.0 and rep.u_var == 0.0


def test_stretch_all_flow_on_shortest():
    rep = report(simple_outcome(), requests(1))
    assert rep.stretch_per_request == {0: 1.0} and rep.stretch == 1.0
    assert "stretch_undefined" not in rep.flags


def test_stretch_mixed_lengths():
    out = make_outcome({(0, 0): 2, (0, 1): 2}, {(0, 0): 4, (0, 1): 6},
                       {(0, 0): ((0, 1),) * 4, (0, 1): ((1, 2),) * 6})
    rep = report(out, requests(1))
    assert rep.stretch_per_request[0] == pytest.approx(20 / 16)
    assert rep.stretch == pytest.approx(1.25)


def test_stretch_undefined_when_no_flow():
    out = make_outcome({(0, 0): 0}, {(0, 0): 3}, {(0, 0): ((0, 1),) * 3})
    rep = report(out, requests(1))
    assert "stretch_undefined" in rep.flags
    assert rep.stretch == 0.0 and rep.stretch_per_request == {}


def test_jain_requests_examples():
    equal = make_outcome({(0, 0): 4, (1, 0): 4}, {(0, 0): 1, (1, 0): 1},
                         {(0, 0): ((0, 1),), (1, 0): ((2, 3),)})
    assert report(equal, requests(2)).jain_requests == pytest.approx(1.0)

    lopsided = make_outcome({(0, 0): 4, (1, 0): 0}, {(0, 0): 1, (1, 0): 1},
                            {(0, 0): ((0, 1),), (1, 0): ((2, 3),)})
    assert report(lopsided, requests(2)).jain_requests == pytest.approx(0.5)

    three_one = make_outcome({(0, 0): 3, (1, 0): 1}, {(0, 0): 1, (1, 0): 1},
                             {(0, 0): ((0, 1),), (1, 0): ((2, 3),)})
    assert report(three_one, requests(2)).jain_requests == pytest.approx(0.8)


def test_jain_requests_zero_flag():
    out = make_outcome({(0, 0): 0}, {(0, 0): 1}, {(0, 0): ((0, 1),)})
    rep = report(out, requests(1))
    assert rep.jain_requests == 0.0 and "jain_req_undefined" in rep.flags


def test_all_zero_outcome_reads_zero_and_flags_every_undefined_measure():
    out = make_outcome({(0, 0): 0, (1, 0): 0}, {(0, 0): 1, (1, 0): 2},
                       {(0, 0): ((0, 1),), (1, 0): ((2, 3), (3, 4))})
    rep = report(out, requests(2), 0.9)
    assert rep.flags == ("no_traffic", "stretch_undefined", "jain_req_undefined",
                         "jain_path_undefined")
    assert (rep.throughput, rep.min_flow, rep.u_ave, rep.u_var, rep.stretch,
            rep.jain_requests, rep.jain_paths, rep.jain_paths_normalized) == (0.0,) * 8
    assert rep.demand_satisfied == {0: False, 1: False}


def test_jain_paths_single_path_is_one():
    rep = report(simple_outcome(), requests(1))
    assert rep.jain_paths == 1.0 and rep.jain_paths_normalized == 1.0
    assert rep.flags == ()


def test_jain_paths_printed_formula_can_exceed_one():
    out = make_outcome({(0, 0): 2, (0, 1): 2}, {(0, 0): 1, (0, 1): 1},
                       {(0, 0): ((0, 1),), (0, 1): ((2, 3),)})
    rep = report(out, requests(1))
    assert rep.jain_paths == pytest.approx(2.0)
    assert rep.jain_paths_normalized == pytest.approx(1.0)
    assert rep.flags == ("jain_path_above_one",)


def test_jain_paths_spread_beats_concentration():
    spread = make_outcome({(0, 0): 2, (0, 1): 2}, {(0, 0): 1, (0, 1): 1},
                          {(0, 0): ((0, 1),), (0, 1): ((2, 3),)})
    packed = make_outcome({(0, 0): 4, (0, 1): 0}, {(0, 0): 1, (0, 1): 1},
                          {(0, 0): ((0, 1),), (0, 1): ((2, 3),)})
    assert report(spread, requests(1)).jain_paths > report(packed, requests(1)).jain_paths


def test_demand_evaluation():
    out = make_outcome({(0, 0): 10, (1, 0): 0, (2, 0): 8},
                       {(0, 0): 1, (1, 0): 1, (2, 0): 1},
                       {(0, 0): ((0, 1),), (1, 0): ((2, 3),), (2, 0): ((4, 5),)})
    reqs = [Request(0, 0, 1, demand=8), Request(1, 2, 3, demand=1),
            Request(2, 4, 5, demand=8)]
    assert report(out, reqs).demand_satisfied == {0: True, 1: False, 2: True}


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
    out = make_outcome({(0, 0): 4, (0, 1): 1, (1, 0): 2},
                       {(0, 0): 3, (0, 1): 5, (1, 0): 4},
                       {(0, 0): ((0, 1),) * 3, (0, 1): ((1, 2),) * 5,
                        (1, 0): ((4, 5),) * 4})
    reqs = requests(2, weight=1.3)
    terms = tally(out, {r.id: r.weight for r in reqs}, 0.85).terms
    assert terms == {0: pytest.approx(1.3 * (4 * 0.85 ** 2 + 0.85 ** 4)),
                     1: pytest.approx(1.3 * 2 * 0.85 ** 3)}
    rep = report(out, reqs, 0.85)
    assert rep.throughput == throughput(out, reqs, 0.85) == pytest.approx(sum(terms.values()))
    assert rep.min_flow == pytest.approx(min(terms.values()))
    assert all(rep.min_flow <= t for t in terms.values())


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
    rep = report(out, requests(3))
    assert "jain_req_undefined" not in rep.flags
    assert 1.0 / 3 <= rep.jain_requests <= 1.0


@given(st.integers(0, 600).flatmap(lambda n: st.lists(
    st.floats(1e-8, 1e8, allow_nan=False, allow_infinity=False), min_size=n, max_size=n)))
@example([0.1] * 7).via("below eight values: one loop")
@example([0.1] * 8).via("eight accumulators, no tail")
@example([0.3 ** i for i in range(128)]).via("the largest unsplit block")
@example([0.3 ** (i % 40) for i in range(129)]).via("the first split")
@example([1.0 / (i + 1) for i in range(256)]).via("two full blocks")
@example([1.0 / (i + 1) for i in range(257)]).via("a split of a split")
@example([7.0 / (i + 3) for i in range(600)]).via("the longest list")
@settings(max_examples=300, deadline=None)
def test_pairwise_sum_mean_and_var_equal_numpy_bit_for_bit(values):
    # evaluate's U_ave, U_var and gamma must equal the ndarray.mean(), .var()
    # and np.mean that reference_evaluate takes, in every block and split case
    array = np.array(values, dtype=float)
    assert _fsum(values).hex() == float(np.add.reduce(array)).hex()
    mean, var = _mean_var(values)
    if values:
        assert mean.hex() == float(array.mean()).hex() == float(np.mean(values)).hex()
        assert var.hex() == float(array.var()).hex()
    else:
        assert (mean, var) == (0.0, 0.0)
