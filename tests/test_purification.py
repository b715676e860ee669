import numpy as np
import pytest
from conftest import reference_purify_network
from hypothesis import given, settings
from hypothesis import strategies as st

import qroute.purification
from qroute.netmodel import (TOPOLOGIES, InvariantError, ScenarioParams, build_lattice,
                             sample_edge_states)
from qroute.purification import _purify, pump_fidelity, purify_network


def test_above_threshold_untouched():
    assert _purify(0.9, 100, 0.8) == (0.9, 100, 0)


def test_single_round():
    # one application of F^2 / (F^2 + (1-F)^2) from 0.7: 0.49 / 0.58
    fidelity, capacity, rounds = _purify(0.7, 100, 0.8)
    assert rounds == 1
    assert capacity == 50
    assert fidelity == pytest.approx(0.49 / 0.58)


def test_half_is_a_fixed_point():
    fidelity, capacity, rounds = _purify(0.5, 100, 0.8)
    assert capacity == 0
    assert rounds >= 1
    assert fidelity == pytest.approx(0.5)


def test_capacity_too_small_to_purify():
    _, capacity, rounds = _purify(0.6, 1, 0.8)
    assert capacity == 0 and rounds == 0


def test_pump_monotone_above_half():
    fs = np.linspace(0.51, 0.99, 30)
    assert all(pump_fidelity(f) > f for f in fs)
    assert pump_fidelity(0.5) == pytest.approx(0.5)
    assert pump_fidelity(1.0) == 1.0


@given(fidelity=st.floats(0.0, 1.0), capacity=st.integers(0, 10_000),
       low=st.floats(0.05, 0.95), high=st.floats(0.05, 0.95))
@settings(max_examples=200, deadline=None)
def test_threshold_monotonicity(fidelity, capacity, low, high):
    # raising the threshold never increases the surviving capacity
    lo, hi = min(low, high), max(low, high)
    assert _purify(fidelity, capacity, hi)[1] <= _purify(fidelity, capacity, lo)[1]


@given(fidelity=st.floats(0.0, 1.0), capacity=st.integers(0, 10_000),
       f_th=st.floats(0.05, 0.99))
@settings(max_examples=200, deadline=None)
def test_outcome_invariants(fidelity, capacity, f_th):
    f, c, _ = _purify(fidelity, capacity, f_th)
    assert c <= capacity
    assert f >= fidelity or c == 0
    if c > 0:
        assert f >= f_th


def _initialized(seed=0, f_mean=0.8, f_std=0.1):
    params = ScenarioParams(f_mean=f_mean, f_std=f_std)
    return sample_edge_states(build_lattice(8, 8), params, np.random.default_rng(seed)), params


def test_purify_network_threshold_zero_is_noop():
    net, _ = _initialized()
    # f_th = 0 is below every sampled fidelity, so nothing changes but the phase
    out = purify_network(net, 0.0)
    assert (out.capacity, out.fidelity) == (net.capacity, net.fidelity)
    assert out.phase == "purified"


def test_purify_network_perfect_fidelities_noop():
    net, _ = _initialized(f_mean=1.0, f_std=0.0)
    out = purify_network(net, 0.9)
    assert out.capacity == net.capacity


def test_purify_network_survivors_meet_threshold():
    net, _ = _initialized(seed=3)
    out = purify_network(net, 0.8)
    for c, f, on, before in zip(out.capacity, out.fidelity, out.active, net.capacity):
        if on:
            assert f >= 0.8 and c >= 1
        assert c == 0 or c <= before


def test_purify_network_rejects_survivor_below_threshold(monkeypatch):
    # an explicit check, so it also holds under python -O
    net, _ = _initialized(seed=3)
    monkeypatch.setattr(qroute.purification, "_purify", lambda f, c, f_th: (0.5, 10, 1))
    with pytest.raises(InvariantError, match="below f_th"):
        purify_network(net, 0.8)


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_purify_network_matches_reference(kind):
    # seeded windows from full capacity to pairs too few to purify, with
    # thresholds from a no-op to one only a few rounds can reach
    rng = np.random.default_rng(77)
    rounds = 0
    for seed in range(30):
        params = ScenarioParams(c0=int(rng.integers(1, 300)), f_mean=float(rng.uniform(0.5, 1.0)),
                                f_std=float(rng.uniform(0.0, 0.3)), p_out=float(rng.uniform(0.3, 1.0)))
        net = sample_edge_states(build_lattice(6, 7, kind), params, np.random.default_rng(seed))
        for f_th in (0.05, 0.5, 0.8, 0.95, 0.999, 1.0):
            out = purify_network(net, f_th)
            assert out == reference_purify_network(net, f_th), (seed, f_th)
            rounds += sum(c < before for c, before in zip(out.capacity, net.capacity))
    assert rounds > 1000


def test_purify_network_deterministic_and_phase_guard():
    net, _ = _initialized(seed=9)
    assert purify_network(net, 0.8) == purify_network(net, 0.8)
    with pytest.raises(ValueError):
        purify_network(purify_network(net, 0.8), 0.8)


def test_baseline_survival_statistics():
    # N(0.9, 0.1) fidelities, F_th=0.8, l_max=10 downstream: the vast majority
    # of the 112 edges keep enough capacity; some loss remains possible
    survivors = []
    for seed in range(30):
        params = ScenarioParams(f_mean=0.9, f_std=0.1)
        net = sample_edge_states(build_lattice(8, 8), params, np.random.default_rng(seed))
        out = purify_network(net, 0.8)
        survivors.append(sum(1 for c, on in zip(out.capacity, out.active)
                             if on and c >= 10))
    mean = np.mean(survivors)
    assert 100.0 <= mean <= 112.0
