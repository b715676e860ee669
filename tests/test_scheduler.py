import copy
import itertools
import json
import math
import pickle
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (KeyedOutcome, abstract_network, assert_integer_max_min,
                      assert_kept_views, by_key, info_from_path_edges, keyed_allocations,
                      line_network,
                      progressive_fill_by_key, propagatory_core_by_key,
                      random_fill_instance, reference_apportion_two_stage,
                      reference_evaluate, reference_flow_determination, reference_kept,
                      reference_largest_remainder,
                      reference_propagatory_core, reference_proportional_share,
                      reference_truncate_edge_paths, reference_two_stage_weights,
                      truncate_keys, unit_progressive_fill, unit_propagatory_core)

from qroute import pathfinder, scheduler
from qroute.config import config_from_mapping
from qroute.harness import ExperimentConfig, RequestSpec, prepare_trial, run_trial
from qroute.metrics import evaluate
from qroute.netmodel import TOPOLOGIES, InvariantError, ScenarioParams
from qroute.pathfinder import build_path_info, request_groups, truncate_edge_paths
from qroute.reports import record_to_dict
from qroute.scheduler import (ALGORITHMS, RoutingOutcome, RoutingParams,
                              _apportion, _assert_feasible,
                              _propagatory_core, _proportional_share, _share_arrays,
                              compute_f_min, _split, largest_remainder, left_sum,
                              run_algorithm, schedule_key, two_stage_weights)


def abstract_instance(edge_caps, paths, lengths=None):
    """Abstract scheduling instance over disjoint edges (2i, 2i+1).

    ``paths`` maps (r, l) to a list of edge indices; ``lengths`` optionally
    overrides each path's bookkeeping length (defaults to the edge count).
    """
    edges = [(2 * i, 2 * i + 1) for i in range(len(edge_caps))]
    net = abstract_network(dict(zip(edges, edge_caps)))
    path_edges = {key: tuple(edges[i] for i in idxs) for key, idxs in paths.items()}
    return net, info_from_path_edges(path_edges, lengths)


def one_edge(lengths):
    """Path set whose paths, keyed as in ``lengths``, all cross edge (0, 1)."""
    return info_from_path_edges({key: ((0, 1),) for key in lengths}, lengths)


def fill(path_edges, capacity):
    """PF over an abstract instance given as plain path -> edges."""
    return progressive_fill_by_key(path_edges, capacity)


def weights_by_key(lengths, alpha, beta):
    """``two_stage_weights`` over one edge crossed by the paths of ``lengths``."""
    info = one_edge(lengths)
    (groups,) = info.kept(len(lengths)).groups
    return by_key(info, [p for group in groups for p in group],
                  two_stage_weights(groups, info.lengths, alpha, beta))


# ------------------------------------------------------------------ f_min

def test_compute_f_min_examples():
    assert compute_f_min(line_network([100, 120]), 15) == 6
    assert compute_f_min(line_network([10, 40]), 10) == 1
    assert compute_f_min(line_network([15]), 15) == 1


def test_compute_f_min_empty_graph():
    net = line_network([0, 0])
    with pytest.raises(ValueError):
        compute_f_min(net, 10)


# --------------------------------------------------------------- truncation

def test_truncate_keeps_all_when_under_cap():
    lengths = {(1, 0): 4, (0, 1): 5, (0, 0): 4}
    assert truncate_keys(list(lengths), lengths, 10) == sorted(lengths)


def test_truncate_keeps_shortest():
    lengths = {(0, l): 4 + l for l in range(12)}
    kept = truncate_keys(list(lengths), lengths, 10)
    assert len(kept) == 10
    assert {l for _, l in kept} == set(range(10))


def test_truncate_sole_path_retained():
    # 10 short paths of request 0 plus one long sole path of request 1:
    # the sole path stays, evicting request 0's longest
    lengths = {(0, l): 4 for l in range(10)} | {(1, 0): 12}
    kept = truncate_keys(list(lengths), lengths, 10)
    assert (1, 0) in kept
    assert len(kept) == 10
    assert len([key for key in kept if key[0] == 0]) == 9


def test_truncate_sole_overflow_capped():
    # more sole paths than slots: the cap wins, shortest soles kept
    lengths = {(r, 0): 4 + r for r in range(5)}
    kept = truncate_keys(list(lengths), lengths, 3)
    assert [r for r, _ in kept] == [0, 1, 2]


def test_truncate_lone_overflow_ties_by_id():
    # lone paths alone exceed l_max: the shortest win, equal lengths by id,
    # and request 6's two paths give way to them although they are shorter
    lengths = {(0, 0): 5, (1, 0): 3, (2, 0): 3, (3, 0): 4, (4, 0): 3, (5, 0): 6,
               (6, 0): 1, (6, 1): 1}
    for l_max, want in ((3, [(1, 0), (2, 0), (4, 0)]), (2, [(1, 0), (2, 0)])):
        assert truncate_keys(list(lengths), lengths, l_max) == \
            reference_truncate_edge_paths(lengths, lengths, l_max) == want


def test_truncate_lengths_tie_across_requests():
    # the lone (2, 0) stays; the others rank by length, and equal lengths
    # in two requests by id, whatever the request
    lengths = {(0, 0): 4, (0, 1): 4, (0, 2): 5, (0, 3): 5, (1, 0): 4, (1, 1): 5, (1, 2): 4,
               (2, 0): 9}
    for l_max, want in ((5, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0)]),
                        (4, [(0, 0), (0, 1), (1, 0), (2, 0)]),
                        (6, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0)])):
        assert truncate_keys(list(lengths), lengths, l_max) == \
            reference_truncate_edge_paths(lengths, lengths, l_max) == want


def test_truncate_uncrowded_edge_returns_its_list():
    ids = [0, 2, 3]
    assert truncate_edge_paths(ids, [0, 0, 1, 1], [4, 4, 4, 4], 3) is ids


def test_path_dropped_on_one_crowded_edge_leaves_every_live_view():
    # at l_max 2 only edge 0 is crowded, with request 0's three paths, and it
    # drops the longest, (0, 2), id 2. Edges 1 and 2, which (0, 2) also
    # crosses, keep it but lose it from their live views and groups; the
    # other edges' live views are their kept lists
    net, info = abstract_instance([10, 10, 10, 10], {(0, 0): [0], (0, 1): [0, 3],
                                                     (0, 2): [0, 1, 2], (1, 0): [1],
                                                     (2, 0): [2, 3]})
    assert info.values() == [[0, 1, 2], [2, 3], [2, 4], [1, 4]]
    assert_kept_views(info, 2)
    kept = info.kept(2)
    assert kept.keys == [[0, 1], [2, 3], [2, 4], [1, 4]]
    assert kept.live_keys == [[0, 1], [3], [4], [1, 4]]
    assert kept.live_groups == [((0, 1),), ((3,),), ((4,),), ((1,), (4,))]
    assert kept.live_paths == [0, 1, 3, 4]
    assert kept.live_keys[0] is kept.keys[0] and kept.live_keys[3] is kept.keys[3]


def random_edge_paths(rng):
    """One edge's path lengths by key, keys in random order: 1-5 requests
    with random distinct ranks, lengths from a narrow range so ties are common."""
    lengths = {}
    for r in rng.choice(8, size=int(rng.integers(1, 6)), replace=False):
        for l in rng.choice(6, size=int(rng.integers(1, 5)), replace=False):
            lengths[(int(r), int(l))] = int(rng.integers(1, 5))
            rng.integers(0, 8)  # an unused draw of seed 808's instance stream
    keys = list(lengths)
    return {keys[i]: lengths[keys[i]] for i in rng.permutation(len(keys))}


def test_key_based_rules_match_entry_based_references():
    rng = np.random.default_rng(808)
    seen = Counter()
    exponents = (0.0, 0.5, 1.0, 2.0)
    for _ in range(400):
        lengths = random_edge_paths(rng)
        keys = list(lengths)
        counts = Counter(r for r, _ in keys)
        seen["sole"] += any(n == 1 for n in counts.values())
        seen["non-sole"] += any(n > 1 for n in counts.values())
        seen["tie"] += len(set(lengths.values())) < len(lengths)
        seen["single request"] += len(counts) == 1
        for l_max in range(1, len(keys) + 2):
            seen["truncated"] += l_max < len(keys)
            assert truncate_keys(keys, lengths, l_max) == \
                reference_truncate_edge_paths(keys, lengths, l_max)
        # the groups every scheduler reads: the edge's ids as PathSet.kept caches them
        info = one_edge(lengths)
        (groups,) = info.kept(len(keys)).groups
        ids = [p for group in groups for p in group]
        for alpha, beta in itertools.product(exponents, exponents):
            # key order and float bits both match, not just the values
            assert list(weights_by_key(lengths, alpha, beta).items()) == \
                list(reference_two_stage_weights(keys, lengths, alpha, beta).items())
            total = int(rng.integers(0, 60))
            seen["zero total"] += total == 0
            # the lone-key shortcut beside other requests, with units to hand out
            seen["single-key group"] += len(counts) > 1 and 1 in counts.values() and total > 0
            for path_exp in (-alpha, alpha):
                assert list(by_key(info, ids, _apportion(
                    _split(groups, info.lengths, path_exp, beta), total)).items()) == \
                    list(reference_apportion_two_stage(keys, lengths, total, path_exp,
                                                       beta).items())
    assert min(seen.values()) > 0 and len(seen) == 7


#: exponents of the tied-weight test: both zeros, and signs either way
TIE_EXPONENTS = (0.0, -0.0, 0.5, 1.0, 2.0, -1.0)


@st.composite
def apportion_edges(draw):
    """One edge's paths (1-8 requests of 1-15 paths) with units to split and
    both exponents. Group sizes, and each group's lengths, are all equal or
    drawn freely, so either stage's weights may tie without a zero exponent."""
    requests = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
    sizes = draw(st.one_of(
        st.integers(1, 15).map(lambda n: [n] * len(requests)),
        st.lists(st.integers(1, 15), min_size=len(requests), max_size=len(requests))))
    lengths = {}
    for r, n in zip(requests, sizes):
        ranks = draw(st.lists(st.integers(0, 30), min_size=n, max_size=n, unique=True))
        ds = draw(st.one_of(st.integers(1, 30).map(lambda d: [d] * n),
                            st.lists(st.integers(1, 30), min_size=n, max_size=n)))
        lengths.update({(r, l): d for l, d in zip(ranks, ds)})
    total = draw(st.integers(0, 60) | st.integers(61, 10**4) | st.integers(10**4, 10**6))
    return (lengths, total, draw(st.sampled_from(TIE_EXPONENTS)),
            draw(st.sampled_from(TIE_EXPONENTS)))


def test_tied_weights_apportion_in_closed_form(monkeypatch):
    # each stage whose weights tie is split by _even, each other stage of
    # more than one quota by largest_remainder; the shares equal the
    # key-based reference, which always computes the weights; _apportion of
    # the edge's _split, the form PS and PU call, adds a floor to each share
    calls = Counter()
    for name in ("_even", "largest_remainder"):
        def spy(*args, _inner=getattr(scheduler, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(scheduler, name, spy)
    seen = Counter()

    # these two alone cover every category counted in ``seen``, whatever
    # examples hypothesis's seed draws
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(apportion_edges())
    @example(({(0, 0): 2, (0, 1): 3, (1, 0): 4, (1, 1): 4}, 2 * 10**5, 1.0, 1.0))
    @example(({(0, 0): 2, (1, 0): 3, (1, 1): 5}, 50, -0.0, 2.0))
    def check(edge):
        lengths, total, path_exp, beta = edge
        info = one_edge(lengths)
        (groups,) = info.kept(len(lengths)).groups
        ids = [p for group in groups for p in group]
        calls.clear()
        got = _apportion(_split(groups, info.lengths, path_exp, beta), total)
        assert list(by_key(info, ids, got).items()) == \
            list(reference_apportion_two_stage(lengths, lengths, total, path_exp,
                                               beta).items())
        want = Counter()
        if len(groups) > 1:
            tied = beta == 0 or len({len(group) for group in groups}) == 1
            want["_even" if tied else "largest_remainder"] += 1
            seen["request stage tied" if tied else "request stage weighed"] += 1
            seen["groups of one size, beta != 0"] += tied and beta != 0
        for group in groups:
            if len(group) > 1:
                tied = path_exp == 0 or len({info.lengths[p] for p in group}) == 1
                want["_even" if tied else "largest_remainder"] += 1
                seen["path stage tied" if tied else "path stage weighed"] += 1
                seen["paths of one length, path_exp != 0"] += tied and path_exp != 0
                seen["path_exp == -0.0"] += path_exp == 0 and math.copysign(1.0, path_exp) < 0
        assert calls == want
        assert _apportion(_split(groups, info.lengths, path_exp, beta), total, 7) == \
            [7 + x for x in got]
        seen["total > 10**5"] += total > 10**5

    check()
    assert len(seen) == 8 and min(seen.values()) > 0, seen


@st.composite
def ps_instances(draw):
    """Disjoint edges crossed by 1-4 requests of 1-5 paths each, every path
    a nonempty edge subset or every edge, so that requests often meet an
    edge with equally many paths. One length for the whole PathSet, or per
    request one length or free lengths, from a narrow range so that lengths
    often tie across requests; l_max truncates or not; f_min and the spare
    units on each edge vary."""
    n_edges = draw(st.integers(1, 6))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    one_length = draw(st.booleans())
    sizes = draw(st.one_of(st.integers(1, 5).map(lambda n: [n] * 3),
                           st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    routes = st.lists(st.sampled_from(edges), min_size=1, unique=True).map(sorted)
    path_edges, lengths = {}, {}
    d = draw(st.integers(1, 6))
    for r, n in enumerate(sizes):
        tied = one_length or draw(st.booleans())
        d_r = d if one_length else draw(st.integers(1, 6))
        for l in range(n):
            path_edges[(r, l)] = tuple(edges if draw(st.booleans()) else draw(routes))
            lengths[(r, l)] = d_r if tied else draw(st.integers(1, 6))
    l_max = draw(st.integers(1, len(path_edges)))
    f_min = draw(st.integers(0, 5))
    capacity = {e: f_min * l_max + draw(st.integers(0, 60) | st.integers(61, 10**5))
                for e in edges}
    return (path_edges, lengths, l_max, f_min, capacity,
            draw(st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0))),
            draw(st.sampled_from((0.0, 0.5, 1.0))))


def test_proportional_share_rows_in_closed_form_match_references(monkeypatch):
    # a lone path takes its edge's capacity and an edge whose weights all tie
    # takes _even_split; only the other edges call _split, with a plan to
    # record or without one. Every row equals _apportion of the edge's
    # _split with the f_min floor, and the rows and flows equal the keyed
    # reference over reference_kept. A second run on the recorded plan gives
    # the same rows and flows and computes no weight, and so does
    # _share_arrays, called directly on these small windows
    calls = Counter()
    for name in ("_even_split", "_split", "two_stage_weights"):
        def spy(*args, _inner=getattr(scheduler, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(scheduler, name, spy)
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(ps_instances())
    # one request's two paths of unlike lengths on one edge, and two
    # requests' paths of one length on an edge of a mixed-length PathSet,
    # which the drawn examples need not hold
    @example(({(0, 0): ((0, 1),), (0, 1): ((0, 1),)}, {(0, 0): 1, (0, 1): 2}, 2, 0,
              {(0, 1): 10}, 1.0, 1.0))
    @example(({(0, 0): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((1, 2), (2, 3))},
              {(0, 0): 1, (1, 0): 1, (1, 1): 2}, 3, 0,
              {(0, 1): 10, (1, 2): 10, (2, 3): 10}, 1.0, 1.0))
    def check(instance):
        path_edges, lengths, l_max, f_min, capacity, alpha, beta = instance
        info = info_from_path_edges(path_edges, lengths)
        kept = info.kept(l_max)
        caps = [capacity[e] for e in info.edges]
        calls.clear()
        plan = []
        flows, rows = _proportional_share(info, kept, caps, f_min, alpha, beta, plan)
        cold = Counter(calls)
        assert len(plan) == len(kept.keys)
        calls.clear()
        assert _proportional_share(info, kept, caps, f_min, alpha, beta, plan) == \
            (flows, rows)
        assert calls["_split"] == calls["two_stage_weights"] == 0
        assert calls["_even_split"] == cold["_even_split"]
        calls.clear()
        assert _proportional_share(info, kept, caps, f_min, alpha, beta) == (flows, rows)
        plain = Counter(calls)
        assert _share_arrays(info, kept, caps, f_min, alpha, beta) == (flows, rows)
        params = RoutingParams(l_max=l_max, alpha=alpha, beta=beta, f_min=f_min)
        ref_kept, _, _ = reference_kept(path_edges, lengths, l_max)
        want = reference_proportional_share(abstract_network(capacity), ref_kept, lengths,
                                            params)
        got = {e: dict(zip(map(info.keys.__getitem__, ids), row, strict=True))
               for e, ids, row in zip(info.edges, kept.keys, rows, strict=True)}
        assert [(e, list(a.items())) for e, a in got.items()] == \
            [(e, list(a.items())) for e, a in want.items()]
        assert list(zip(info.keys, flows)) == \
            list(reference_flow_determination(want, path_edges).items())
        one_length = len(set(lengths.values())) == 1
        branches = Counter()
        for ids, groups, cap, row in zip(kept.keys, kept.groups, caps, rows):
            assert row == tuple(_apportion(_split(groups, info.lengths, -alpha, beta),
                                           cap - f_min * len(ids), f_min))
            edge_lengths = {info.lengths[p] for p in ids}
            if len(ids) == 1:
                shape = "lone path"
            elif len(groups) == 1:
                shape = ("one request, tied lengths" if len(edge_lengths) == 1
                         else "one request, mixed lengths")
            elif len({len(group) for group in groups}) == 1 and beta != 0:
                shape = "groups of one size, beta != 0"
            elif beta == 0:
                shape = "groups at beta == 0"
            else:
                shape = "weighed requests"
            # the path stage ties over the PathSet, or over a lone group
            tied = shape != "weighed requests" and (
                alpha == 0 or one_length or len(groups) == 1 and len(edge_lengths) == 1)
            if len(ids) > 1:
                branches["_even_split" if tied else "_split"] += 1
            seen[shape] += 1
            seen[("tied" if tied else "weighed", "one length" if one_length
                  else "mixed lengths")] += len(ids) > 1
            seen["alpha == -0.0"] += alpha == 0 and math.copysign(1.0, alpha) < 0
            # tied lengths on a multi-request edge of a mixed-length PathSet still
            # go to _split unless alpha == 0
            seen["groups of one length, mixed PathSet"] += (
                len(groups) > 1 and len(edge_lengths) == 1 and not one_length)
        assert cold == plain == branches

    check()
    assert len(seen) == 12 and min(seen.values()) > 0, seen


# ------------------------------------------------------------------ weights

def test_two_stage_weights_uniform():
    lengths = {(0, 0): 4, (1, 0): 4, (1, 1): 6}
    w = weights_by_key(lengths, alpha=0.0, beta=0.0)
    assert w[(0, 0)] == pytest.approx(0.5)
    assert w[(1, 0)] == pytest.approx(0.25)
    assert w[(1, 1)] == pytest.approx(0.25)


def test_two_stage_weights_beta_counts_paths():
    lengths = {(0, 0): 4, (1, 0): 4, (1, 1): 6}
    w = weights_by_key(lengths, alpha=0.0, beta=1.0)
    assert w[(0, 0)] == pytest.approx(1 / 3)
    assert w[(1, 0)] + w[(1, 1)] == pytest.approx(2 / 3)


def test_two_stage_weights_alpha_favors_short():
    lengths = {(0, 0): 4, (0, 1): 6}
    w = weights_by_key(lengths, alpha=1.0, beta=0.0)
    assert w[(0, 0)] == pytest.approx(0.6)
    assert w[(0, 1)] == pytest.approx(0.4)
    assert sum(w.values()) == pytest.approx(1.0)


# ------------------------------------------------------------- apportionment

def test_largest_remainder_examples():
    assert largest_remainder([3.5, 1.75, 1.75], 7) == [3, 2, 2]
    assert largest_remainder([2.5, 2.5], 5) == [3, 2]
    assert largest_remainder([0.0, 0.0], 0) == [0, 0]


def test_largest_remainder_ties_match_reference():
    # remainders that tie exactly go to the lower positions: thirds, equal
    # weights, two tiers of ties, every position short (quotas a hair below
    # whole numbers, so short == len) and nothing to hand out
    cases = [([total / 3] * 3, total) for total in range(7)]
    cases += [([total * w / (n * w)] * n, total)
              for n in range(1, 6) for total in range(11) for w in (1.0, 0.7, 3.0)]
    cases += [([2 / 3] * 3 + [1 / 3] * 3, 3), ([1 / 3, 2 / 3] * 3, 3)]
    cases += [([1 - 2**-53] * n, n) for n in range(1, 5)]
    cases += [([3 - 2**-51, 1 - 2**-53], 4), ([0.0] * 3, 0), ([0.0], 0)]
    for quotas, total in cases:
        assert largest_remainder(quotas, total) == \
            reference_largest_remainder(quotas, total), (quotas, total)
    assert largest_remainder([1 / 3] * 3, 2) == [1, 1, 0]
    assert largest_remainder([1 / 3, 2 / 3] * 3, 3) == [0, 1, 0, 1, 0, 1]
    assert largest_remainder([1 - 2**-53] * 3, 3) == [1, 1, 1]
    assert largest_remainder([0.0] * 3, 0) == [0, 0, 0]


def test_largest_remainder_rejects_quotas_off_total():
    # an explicit check, so it also holds under python -O
    with pytest.raises(InvariantError, match="do not sum"):
        largest_remainder([0.1, 0.1], 5)


@given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_largest_remainder_properties(weights, total):
    if sum(weights) <= 0:
        weights = [w + 1.0 for w in weights]
    quotas = [total * w / sum(weights) for w in weights]
    result = largest_remainder(quotas, total)
    assert result == reference_largest_remainder(quotas, total)
    assert sum(result) == total
    assert all(abs(x - q) < 1.0 + 1e-9 for x, q in zip(result, quotas))


# -------------------------------------------------------- proportional share

def params(k=10, l_max=10, alpha=0.0, beta=0.0, f_min=1):
    return RoutingParams(k=k, l_max=l_max, alpha=alpha, beta=beta, f_min=f_min)


def test_proportional_share_worked_example():
    # edge C=10 shared by r0:[d=4] and r1:[d=4, d=6], alpha=beta=0, f_min=1:
    # floors 1,1,1 then 7 spare units apportioned 3.5/1.75/1.75 stage-wise
    net, _ = abstract_instance([10], {(0, 0): [0]})
    info = one_edge({(0, 0): 4, (1, 0): 4, (1, 1): 6})
    allocations = keyed_allocations(run_algorithm("PS", net, info, params()), 10)
    assert allocations[(0, 1)] == {(0, 0): 5, (1, 0): 3, (1, 1): 2}


def test_proportional_share_sole_claimant():
    net = line_network([8])
    info = one_edge({(0, 0): 3})
    allocations = keyed_allocations(run_algorithm("PS", net, info, params()), 10)
    assert allocations[(0, 1)] == {(0, 0): 8}


def test_proportional_share_tie_broken_by_rank():
    net = line_network([9])
    info = one_edge({(0, 0): 4, (0, 1): 4})
    allocations = keyed_allocations(run_algorithm("PS", net, info, params()), 10)
    assert allocations[(0, 1)] == {(0, 0): 5, (0, 1): 4}


def test_proportional_share_respects_capacity():
    net = line_network([10])
    info = one_edge({(r, 0): 5 for r in range(4)})
    allocations = keyed_allocations(run_algorithm("PS", net, info,
                                                  params(alpha=1.5, beta=0.7)), 10)
    assert sum(allocations[(0, 1)].values()) == 10


def test_proportional_share_rejects_floor_above_capacity():
    with pytest.raises(InvariantError, match="Step 1"):
        run_algorithm("PS", line_network([3]), one_edge({(0, 0): 1}), params(f_min=5))


def test_share_arrays_rejects_floor_above_capacity():
    info = one_edge({(0, 0): 1})
    with pytest.raises(InvariantError, match=r"edge \(0, 1\).*Step 1"):
        _share_arrays(info, info.kept(10), [3], 5, 0.0, 0.0)


#: eight paths of one request whose weights d**-1 add to 1.422222222222222
#: in numpy's pairwise order and to 1.4222222222222223 left to right; at 32
#: units the two totals apportion differently
EIGHT_LENGTHS = (3, 3, 4, 9, 9, 10, 10, 12)

#: hand-built PS windows: path -> edges, path -> length, edge -> capacity,
#: l_max, f_min, alpha, beta
SHARE_WINDOWS = {
    "lone path": ({(0, 0): ((0, 1),)}, {(0, 0): 3}, {(0, 1): 7}, 10, 2, 1.0, 1.0),
    "groups of one size, beta != 0": (
        {(0, 0): ((0, 1),), (0, 1): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((0, 1),)},
        {(0, 0): 2, (0, 1): 5, (1, 0): 3, (1, 1): 4}, {(0, 1): 23}, 10, 1, 1.0, 1.5),
    "groups at beta == 0": (
        {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((0, 1),), (1, 2): ((0, 1),)},
        {(0, 0): 2, (1, 0): 2, (1, 1): 3, (1, 2): 7}, {(0, 1): 19}, 10, 1, 1.0, 0.0),
    "alpha == 0": (
        {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((0, 1),), (1, 2): ((0, 1),)},
        {(0, 0): 2, (1, 0): 2, (1, 1): 3, (1, 2): 7}, {(0, 1): 19}, 10, 1, 0.0, 1.0),
    "one length per group": (
        {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((0, 1),), (1, 2): ((0, 1),)},
        {(0, 0): 2, (1, 0): 5, (1, 1): 5, (1, 2): 5}, {(0, 1): 19}, 10, 1, 2.0, 1.0),
    "both stages weighed": (
        {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((0, 1),), (2, 0): ((0, 1),),
         (2, 1): ((0, 1),), (2, 2): ((0, 1),)},
        {(0, 0): 4, (1, 0): 2, (1, 1): 6, (2, 0): 3, (2, 1): 4, (2, 2): 9}, {(0, 1): 47},
        10, 2, 1.0, 1.0),
    "eight mixed lengths": (
        {(0, l): ((0, 1),) for l in range(8)}, dict(zip([(0, l) for l in range(8)],
                                                        EIGHT_LENGTHS)),
        {(0, 1): 40}, 10, 1, 1.0, 1.0),
    "spare 0": (
        {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (1, 1): ((0, 1),)},
        {(0, 0): 2, (1, 0): 3, (1, 1): 6}, {(0, 1): 6}, 10, 2, 1.0, 1.0),
    "no unit left over": (
        {(0, 0): ((0, 1),), (0, 1): ((0, 1),)}, {(0, 0): 1, (0, 1): 2}, {(0, 1): 5},
        10, 1, 1.0, 1.0),
    # flows are each path's smallest row entry, and 0 for the path that the
    # crowded edge (2, 3) drops, though edge (0, 1) keeps it
    "several edges, a path dropped": (
        {(0, 0): ((0, 1), (2, 3)), (0, 1): ((2, 3), (4, 5)), (1, 0): ((0, 1), (2, 3)),
         (1, 1): ((2, 3),), (1, 2): ((0, 1), (2, 3), (4, 5))},
        {(0, 0): 2, (0, 1): 2, (1, 0): 3, (1, 1): 1, (1, 2): 5},
        {(0, 1): 30, (2, 3): 41, (4, 5): 17}, 4, 3, 1.0, 1.0),
}


@pytest.mark.parametrize("window", SHARE_WINDOWS.values(), ids=SHARE_WINDOWS)
def test_share_arrays_match_the_loop_and_the_keyed_reference(window):
    path_edges, lengths, capacity, l_max, f_min, alpha, beta = window
    info = info_from_path_edges(path_edges, lengths)
    kept = info.kept(l_max)
    caps = [capacity[e] for e in info.edges]
    flows, rows = _share_arrays(info, kept, caps, f_min, alpha, beta)
    assert len(kept.keys) < scheduler._SHARE_ARRAYS_MIN_EDGES
    assert (flows, rows) == _proportional_share(info, kept, caps, f_min, alpha, beta)
    assert all(type(x) is int for x in itertools.chain(flows, *rows))
    ref_kept, _, _ = reference_kept(path_edges, lengths, l_max)
    want = reference_proportional_share(
        abstract_network(capacity), ref_kept, lengths,
        RoutingParams(l_max=l_max, alpha=alpha, beta=beta, f_min=f_min))
    assert [(e, list(zip(map(info.keys.__getitem__, ids), row)))
            for e, ids, row in zip(info.edges, kept.keys, rows)] == \
        [(e, list(a.items())) for e, a in want.items()]
    assert list(zip(info.keys, flows)) == \
        list(reference_flow_determination(want, path_edges).items())


def test_eight_mixed_lengths_apportion_by_the_left_sum():
    # the window above is one that a pairwise sum, as np.add.reduce adds
    # eight terms, would split differently
    w = [float(d) ** -1.0 for d in EIGHT_LENGTHS]
    pairwise = ((w[0] + w[1]) + (w[2] + w[3])) + ((w[4] + w[5]) + (w[6] + w[7]))
    assert pairwise != left_sum(w)
    assert largest_remainder([32 * x / pairwise for x in w], 32) != \
        largest_remainder([32 * x / left_sum(w) for x in w], 32)


# -------------------------------------------------------- flow determination

def test_flow_determination_short_board():
    # a sole claimant takes each edge whole, so its allocations are 4, 6 and 3
    net, info = abstract_instance([4, 6, 3], {(0, 0): [0, 1, 2]})
    outcome = run_algorithm("PS", net, info, params())
    assert keyed_allocations(outcome, 10) == {(0, 1): {(0, 0): 4}, (2, 3): {(0, 0): 6},
                                              (4, 5): {(0, 0): 3}}
    assert outcome.flows[(0, 0)] == 3


def test_flow_determination_single_edge():
    net = line_network([9])
    info = one_edge({(0, 0): 1})
    outcome = run_algorithm("PS", net, info, params())
    assert outcome.flows[(0, 0)] == 9


# --------------------------------------------------------- progressive fill

def test_pf_single_path_takes_bottleneck():
    assert fill({(0, 0): ((0, 1), (1, 2))}, {(0, 1): 7, (1, 2): 30}) == {(0, 0): 7}


def test_pf_three_paths_capacity_three():
    paths = {(0, 0): ((0, 1),), (1, 0): ((0, 1),), (2, 0): ((0, 1),)}
    assert fill(paths, {(0, 1): 3}) == {(0, 0): 1, (1, 0): 1, (2, 0): 1}


def test_pf_leftover_stays_unallocated():
    paths = {(0, 0): ((0, 1),), (1, 0): ((0, 1),)}
    assert fill(paths, {(0, 1): 5}) == {(0, 0): 2, (1, 0): 2}


def test_pf_zero_freeze_when_paths_exceed_capacity():
    paths = {(r, 0): ((0, 1),) for r in range(4)}
    assert fill(paths, {(0, 1): 3}) == {(r, 0): 0 for r in range(4)}


def test_pf_freeze_events_match_unit_rounds(monkeypatch):
    # each event jumps min floor(slack / n) rounds over the open edges, read
    # by one ``min`` call, and freezes the paths of the edges the jump filled
    jumps = []

    def spy(values):
        jumps.append(min(values))
        return jumps[-1]

    monkeypatch.setattr(scheduler, "min", spy, raising=False)
    e0, e1, e2 = (0, 1), (2, 3), (4, 5)
    cases = (
        # one jump of 3 rounds fills edges e0 and e1 (slack 1 below 2 paths
        # each); every path freezes, and e2 leaves the open set with them
        ({(0, 0): (e0, e2), (0, 1): (e0,), (1, 0): (e1, e2), (1, 1): (e1,)},
         {e0: 7, e1: 7, e2: 20}, {(0, 0): 3, (0, 1): 3, (1, 0): 3, (1, 1): 3}, [3]),
        # e0 starts with slack 1 below its 2 paths, so they freeze at level 0
        ({(0, 0): (e0, e1), (1, 0): (e0,), (2, 0): (e1,)},
         {e0: 1, e1: 9}, {(0, 0): 0, (1, 0): 0, (2, 0): 9}, [0, 9]),
        # e1's only path freezes on e0, so e1 leaves the open set with slack
        # left and no path to divide it by
        ({(0, 0): (e0,), (1, 0): (e0, e1), (2, 0): (e2,)},
         {e0: 4, e1: 30, e2: 10}, {(0, 0): 2, (1, 0): 2, (2, 0): 10}, [2, 8]),
    )
    for path_edges, capacity, flows, events in cases:
        jumps.clear()
        assert fill(path_edges, capacity) == unit_progressive_fill(path_edges, capacity) \
            == flows
        assert jumps == events


def test_pf_matches_max_min_oracle_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        path_edges, capacity = random_fill_instance(rng)
        flows = fill(path_edges, capacity)
        assert_integer_max_min(path_edges, capacity, flows)


def test_pf_fair_on_symmetric_requests():
    # identical path systems per request: equal aggregate flows
    paths = {(0, 0): ((0, 1),), (0, 1): ((2, 3),),
             (1, 0): ((0, 1),), (1, 1): ((2, 3),)}
    flows = fill(paths, {(0, 1): 9, (2, 3): 13})
    total0 = flows[(0, 0)] + flows[(0, 1)]
    total1 = flows[(1, 0)] + flows[(1, 1)]
    assert total0 == total1


# -------------------------------------------------------- propagatory update

def test_pu_single_path_takes_bottleneck():
    net, info = abstract_instance([12, 30], {(0, 0): [0, 1]})
    out = run_algorithm("PU", net, info, params())
    assert out.flows[(0, 0)] == 12


def test_pu_ample_edges_keep_initial_bottlenecks():
    # disjoint paths, every edge at least as large as the bottleneck sum
    net, info = abstract_instance([10, 40, 20, 40],
                                  {(0, 0): [0, 1], (1, 0): [2, 3]})
    out = run_algorithm("PU", net, info, params())
    assert out.flows[(0, 0)] == 10
    assert out.flows[(1, 0)] == 20


def test_pu_deductions_hit_longer_paths_harder_when_alpha_positive():
    # one tight shared edge (C=30), ample elsewhere; request 1 holds the two
    # longer paths. Hand trace at alpha=1, beta=0: desired capacities start at
    # 30 each; request-level deduction quotas are 30/30; within request 1 the
    # 60-unit excess splits 13/17 by length (d=6 vs d=8), and request 0's
    # single path is capped at the f_min floor.
    net, info = abstract_instance(
        [30, 100, 100, 100],
        {(0, 0): [0, 1], (1, 0): [0, 2], (1, 1): [0, 3]},
        lengths={(0, 0): 4, (1, 0): 6, (1, 1): 8})
    out = run_algorithm("PU", net, info, params(alpha=1.0, beta=0.0))
    flows = out.flows
    assert flows[(0, 0)] == 1
    assert flows[(1, 0)] > flows[(1, 1)]
    assert flows[(0, 0)] + flows[(1, 0)] + flows[(1, 1)] == 30
    # the longer path loses strictly more once alpha is switched on
    flat = run_algorithm("PU", net, info, params(alpha=0.0, beta=0.0))
    assert flows[(1, 1)] < flat.flows[(1, 1)]


def exhaustive_best_total(bottlenecks, tight_cap, f_min):
    """Max total flow on a single contended edge subject to per-path f_min
    floors and bottleneck caps, by brute force."""
    best = 0
    ranges = [range(f_min, b + 1) for b in bottlenecks]
    for combo in itertools.product(*ranges):
        if sum(combo) <= tight_cap:
            best = max(best, sum(combo))
    return best


def test_pu_total_flow_optimal_on_single_contended_edge():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n_paths = int(rng.integers(1, 4))
        tight = int(rng.integers(n_paths, 31))
        side_caps = [int(rng.integers(tight, 61)) for _ in range(n_paths)]
        edge_caps = [tight] + side_caps
        paths = {(p, 0): [0, 1 + p] for p in range(n_paths)}
        net, info = abstract_instance(edge_caps, paths)
        out = run_algorithm("PU", net, info, params(f_min=1, l_max=30))
        total = sum(out.flows.values())
        bottlenecks = [min(tight, side_caps[p]) for p in range(n_paths)]
        assert total == exhaustive_best_total(bottlenecks, tight, 1)


def test_pu_flows_never_below_f_min_for_live_paths():
    rng = np.random.default_rng(5)
    for _ in range(50):
        path_edges, capacity = random_fill_instance(rng, max_cap=40)
        # scale capacities so the f_min floor is feasible
        l_max = 4
        capacity = {e: max(c, l_max) for e, c in capacity.items()}
        f_min = min(capacity.values()) // l_max
        net = abstract_network(capacity)
        info = info_from_path_edges(path_edges)
        p = params(l_max=l_max, f_min=f_min)
        out = run_algorithm("PU", net, info, p)
        kept = {info.keys[p] for p in info.kept(l_max).live_paths}
        for key, flow in out.flows.items():
            if key in kept:
                assert flow >= f_min


# ---------------------------------------------------------------- dispatch

def routed_instance(seed=0):
    import qroute
    rng = np.random.default_rng(seed)
    net = qroute.build_lattice(5, 5)
    net = qroute.sample_edge_states(net, qroute.ScenarioParams(c0=60), rng)
    net = qroute.purify_network(net, 0.8)
    net = qroute.deactivate_low_capacity_edges(net, 5)
    paths = {0: qroute.k_shortest_paths(net, 0, 24, 6), 1: qroute.k_shortest_paths(net, 4, 20, 6)}
    info = qroute.build_path_info(net, paths, 5)
    f_min = qroute.compute_f_min(net, 5)
    return net, info, RoutingParams(k=6, l_max=5, alpha=1.0, beta=1.0, f_min=f_min)


@pytest.mark.parametrize("name", ["PS", "PF", "PU"])
def test_algorithms_deterministic_and_feasible(name):
    net, info, p = routed_instance()
    a = run_algorithm(name, net, info, p)
    b = run_algorithm(name, net, info, p)
    assert a.flows == b.flows
    caps = net.capacity_map()
    for e, used in a.edge_usage().items():
        assert used <= caps[e]


def test_ps_floor_on_fully_kept_paths():
    net, info, p = routed_instance(3)
    out = run_algorithm("PS", net, info, p)
    for key in (info.keys[q] for q in info.kept(p.l_max).live_paths):
        assert out.flows[key] >= p.f_min


def test_infeasible_outcome_rejected():
    # 10 units on a capacity-3 edge; an explicit check, so it also holds under python -O
    net = line_network([3])
    outcome = RoutingOutcome("PS", {(0, 0): 10},
                             info_from_path_edges({(0, 0): ((0, 1),)}, {(0, 0): 1}))
    with pytest.raises(InvariantError, match="exceeds capacity"):
        _assert_feasible(outcome, outcome.paths.capacities(net))


def test_run_algorithm_checks_each_core_for_feasibility(monkeypatch):
    # a core that puts 10 units on a capacity-3 edge is caught on every path
    info = info_from_path_edges({(0, 0): ((0, 1),)}, {(0, 0): 1})
    for name, core, result in [("PS", "_proportional_share", ([10], {})),
                               ("PF", "_progressive_fill", [10]),
                               ("PU", "_propagatory_core", [10])]:
        monkeypatch.setattr(scheduler, core, lambda *args, result=result: result)
        with pytest.raises(InvariantError, match="exceeds capacity"):
            run_algorithm(name, line_network([3]), info, params())


def test_run_algorithm_checks_the_f_min_floor(monkeypatch):
    # three one-hop paths on one edge; l_max = 2 keeps the first two there,
    # so those are live and (2, 0) is not. A live path below f_min, or a
    # path that is not live with flow, is caught on PS and on PU
    keys = [(r, 0) for r in range(3)]
    info = info_from_path_edges(dict.fromkeys(keys, ((0, 1),)), dict.fromkeys(keys, 1))
    assert info.kept(2).live_paths == [0, 1]
    for flows, message in (([4, 5, 0], "below f_min"), ([5, 5, 3], "not live")):
        for name, core, result in [("PS", "_proportional_share", (flows, {})),
                                   ("PU", "_propagatory_core", flows)]:
            monkeypatch.setattr(scheduler, core, lambda *args, result=result: result)
            with pytest.raises(InvariantError, match=message):
                run_algorithm(name, line_network([30]), info, params(l_max=2, f_min=5))


def test_outcome_rejects_flows_off_the_path_set_order():
    # the metrics zip flows with per-path-id lists, so the order is checked
    paths = info_from_path_edges({(0, 0): ((0, 1),), (1, 0): ((1, 2),)}, {(0, 0): 1, (1, 0): 1})
    RoutingOutcome("PS", {(0, 0): 1, (1, 0): 2}, paths)
    for flows in ({(1, 0): 2, (0, 0): 1}, {(0, 0): 1}):
        with pytest.raises(ValueError, match="key order"):
            RoutingOutcome("PS", flows, paths)


def test_unknown_algorithm_rejected():
    net, info, p = routed_instance()
    with pytest.raises(ValueError):
        run_algorithm("RR", net, info, p)


def pu_table(outcome, info, l_max):
    """PU's per-edge table, rebuilt from its flows: each live kept edge holds
    the flow of every live path crossing it."""
    kept = info.kept(l_max)
    return {info.edges[e]: {info.keys[p]: outcome.flows[info.keys[p]] for p in ids}
            for e, ids in enumerate(kept.live_keys) if ids}


def test_schedule_table_allocations_within_capacity():
    net, info, p = routed_instance(8)
    allocations = keyed_allocations(run_algorithm("PS", net, info, p), p.l_max)
    caps = net.capacity_map()
    for e, alloc in allocations.items():
        assert sum(alloc.values()) <= caps[e]
    assert run_algorithm("PF", net, info, p).allocations is None
    pu = run_algorithm("PU", net, info, p)
    assert pu.allocations is None
    table = pu_table(pu, info, p.l_max)
    for e, alloc in table.items():
        assert sum(alloc.values()) <= caps[e]
    assert table


def test_flow_equals_floor_when_all_allocations_at_floor():
    # two paths share both edges; f_min = 2 fills each capacity-4 edge with floors
    net, info = abstract_instance([4, 4], {(0, 0): [0, 1], (1, 0): [0, 1]})
    outcome = run_algorithm("PS", net, info, params(f_min=2))
    assert keyed_allocations(outcome, 10) == {(0, 1): {(0, 0): 2, (1, 0): 2},
                                              (2, 3): {(0, 0): 2, (1, 0): 2}}
    assert outcome.flows == {(0, 0): 2, (1, 0): 2}


# ------------------------------------------------- unit-step oracles, bulk code

def random_schedule_instance(rng, max_cap):
    """Random PU/PF instance: 1-8 disjoint edges, 1-3 requests of 1-4 ranks,
    every path a random edge subset; f_min derived as in production from the
    smallest capacity and the largest per-edge path count."""
    n_edges = int(rng.integers(1, 9))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    capacity = {e: int(rng.integers(1, max_cap + 1)) for e in edges}
    path_edges, keys_by_edge, lengths = {}, {}, {}
    for r in range(int(rng.integers(1, 4))):
        for l in range(int(rng.integers(1, 5))):
            picks = sorted(rng.choice(n_edges, size=int(rng.integers(1, n_edges + 1)),
                                      replace=False))
            path_edges[(r, l)] = tuple(edges[i] for i in picks)
            lengths[(r, l)] = len(picks) + int(rng.integers(0, 4))
            for i in picks:
                keys_by_edge.setdefault(edges[i], []).append((r, l))
    f_min = min(capacity.values()) // max(len(keys) for keys in keys_by_edge.values())
    alpha, beta = (float(rng.choice([0.5, 1.0, 2.0])) for _ in range(2))
    return capacity, keys_by_edge, lengths, path_edges, f_min, alpha, beta


@pytest.mark.slow
def test_bulk_steps_match_unit_step_oracles():
    rng = np.random.default_rng(31)
    hits = Counter()
    for i in range(2000):
        max_cap = (5, 50, 500, 10_000)[i % 4]
        capacity, keys_by_edge, lengths, path_edges, f_min, alpha, beta = \
            random_schedule_instance(rng, max_cap)
        assert progressive_fill_by_key(path_edges, capacity) == \
            unit_progressive_fill(path_edges, capacity)
        # no edge holds more keys than there are paths, so all paths are live
        info = info_from_path_edges(path_edges, lengths)
        kept = info.kept(len(path_edges))
        assert {info.edges[e]: [info.keys[p] for p in ids]
                for e, ids in enumerate(kept.live_keys) if ids} == keys_by_edge
        assert propagatory_core_by_key(info, len(path_edges), capacity, f_min, alpha,
                                       beta) == \
            unit_propagatory_core(capacity, keys_by_edge, lengths, path_edges, f_min,
                                  alpha, beta, hits=hits)
    # both unit loops that PU replaces actually ran, so the match is not vacuous
    assert hits["residual"] > 0 and hits["raise"] > 0


@st.composite
def tied_pu_windows(draw):
    """PU instance over 1-4 edges whose paths mostly share one length. An
    edge's capacity is f_min per path plus at most two units per path, so
    even splits of its excess run into f_min on some paths and the residual
    rule takes the rest. In one draw of five every capacity falls short of
    f_min per path instead, and then the residual cannot be covered."""
    n_edges = draw(st.integers(1, 4))
    edges = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    d = draw(st.integers(1, 6))
    path_edges, lengths = {}, {}
    for r in range(draw(st.integers(1, 3))):
        for l in range(draw(st.integers(1, 5))):
            picks = draw(st.sets(st.integers(0, n_edges - 1), min_size=1))
            path_edges[(r, l)] = tuple(edges[i] for i in sorted(picks))
            lengths[(r, l)] = d + draw(st.sampled_from((0, 0, 0, 1)))
    count = Counter(e for route in path_edges.values() for e in route)
    f_min = draw(st.integers(1, 12))
    short = draw(st.integers(0, 4)) == 0
    capacity = {e: max(1, f_min * n + draw(st.integers(-n, -1) if short
                                           else st.integers(0, 2 * n)))
                for e, n in count.items()}
    exponents = st.sampled_from((0.0, 0.5, 1.0, 2.0))
    return capacity, lengths, path_edges, f_min, draw(exponents), draw(exponents)


def test_pu_residual_on_tied_lengths_matches_oracles():
    # the closed-form residual against the bulk and the unit-step oracles,
    # and its shortfall message against the bulk oracle's
    hits = Counter()

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(tied_pu_windows())
    def check(window):
        capacity, lengths, path_edges, f_min, alpha, beta = window
        info = info_from_path_edges(path_edges, lengths)
        # l_max = #paths keeps every path live
        keys_by_edge = {info.edges[e]: [info.keys[p] for p in ids]
                        for e, ids in enumerate(info.kept(len(path_edges)).live_keys)}
        try:
            want = reference_propagatory_core(capacity, keys_by_edge, lengths, path_edges,
                                              f_min, alpha, beta)
        except InvariantError as exc:
            with pytest.raises(InvariantError, match=re.escape(str(exc))):
                propagatory_core_by_key(info, len(path_edges), capacity, f_min, alpha, beta)
            hits["shortfall"] += 1
            return
        got = propagatory_core_by_key(info, len(path_edges), capacity, f_min, alpha, beta)
        assert list(got.items()) == list(want.items())
        before = hits["residual"]
        assert got == unit_propagatory_core(capacity, keys_by_edge, lengths, path_edges,
                                            f_min, alpha, beta, hits=hits)
        hits["windows with a residual"] += hits["residual"] > before

    check()
    # the residual ran, often over several levels, and some could not be covered
    assert hits["windows with a residual"] >= 100 and hits["residual levels"] >= 50, hits
    assert hits["shortfall"] >= 10, hits


def random_routed_window(rng, kind):
    """A prepared random window on a lattice of ``kind``: its network, its
    PathSet, its routing parameters with f_min and its requests; None when
    the window is degenerate."""
    rows, cols = (int(x) for x in rng.integers(4, 11, size=2))
    config = ExperimentConfig(
        rows=rows, cols=cols, kind=kind,
        scenario=ScenarioParams(c0=int(rng.choice([20, 60, 100, 1000]))),
        routing=RoutingParams(k=int(rng.integers(1, 11)), l_max=int(rng.integers(1, 11))),
        requests=RequestSpec(count=int(rng.integers(1, 9)), distance=None))
    ctx = prepare_trial(config, int(rng.integers(0, 2**31)))
    if ctx.reason is not None:
        return None
    info = build_path_info(ctx.revised, ctx.paths, ctx.params.l_max)
    return ctx.revised, info, ctx.params, ctx.requests


def test_pu_core_matches_reference_on_random_windows():
    rng = np.random.default_rng(1111)
    exponents = (0.0, 0.5, 1.0, 2.0)
    compared = Counter()
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        window = random_routed_window(rng, kind)
        if window is None:
            continue
        net, info, p, _ = window
        caps = net.capacity_map()
        lengths = dict(zip(info.keys, info.lengths))
        _, live_keys, live_paths = reference_kept(info.path_edges, lengths, p.l_max)
        for alpha, beta in itertools.product(exponents, exponents):
            got = propagatory_core_by_key(info, p.l_max, caps, p.f_min, alpha, beta)
            want = reference_propagatory_core(caps, live_keys, lengths, live_paths,
                                              p.f_min, alpha, beta)
            # key order too, so the core stays a drop-in for the reference
            assert list(got.items()) == list(want.items()), (kind, n, alpha, beta)
        compared[kind] += 1
        compared["truncated"] += len(live_paths) < len(info.keys)
    assert all(compared[kind] >= 10 for kind in TOPOLOGIES) and compared["truncated"]


def keyed_reference_windows():
    """90 random windows, a third on each lattice kind, the degenerate ones
    skipped: (kind, n, the window of ``random_routed_window``, and the alpha,
    beta and p_in drawn for it)."""
    rng = np.random.default_rng(4242)
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        window = random_routed_window(rng, kind)
        if window is None:
            continue
        alpha, beta = (float(x) for x in rng.choice([0.0, 0.5, 1.0, 2.0], size=2))
        yield kind, n, window, alpha, beta, float(rng.choice([0.5, 0.9, 1.0]))


def test_cores_match_keyed_references_on_random_windows():
    compared = Counter()
    for kind, n, (net, info, p, requests), alpha, beta, p_in in keyed_reference_windows():
        p = RoutingParams(k=p.k, l_max=p.l_max, alpha=alpha, beta=beta, f_min=p.f_min)
        caps = net.capacity_map()
        lengths = dict(zip(info.keys, info.lengths))
        kept, live_keys, live_paths = reference_kept(info.path_edges, lengths, p.l_max)
        allocations = reference_proportional_share(net, kept, lengths, p)
        f_max = reference_propagatory_core(caps, live_keys, lengths, live_paths, p.f_min,
                                           alpha, beta)
        want = {"PS": reference_flow_determination(allocations, info.path_edges),
                "PF": unit_progressive_fill(info.path_edges, caps),
                "PU": {key: f_max.get(key, 0) for key in info.path_edges}}
        for name, flows in want.items():
            outcome = run_algorithm(name, net, info, p)
            # key order and values both match
            assert list(outcome.flows.items()) == list(flows.items()), (kind, n, name)
            report = evaluate(outcome, net, requests, p_in)
            # repr shows every float's bits, and the dicts' order
            assert repr(report) == repr(reference_evaluate(KeyedOutcome.of(outcome), net,
                                                           requests, p_in)), (kind, n, name)
            if name == "PS":
                keyed = keyed_allocations(outcome, p.l_max)
                assert [(e, list(a.items())) for e, a in keyed.items()] == \
                    [(e, list(a.items())) for e, a in allocations.items()]
                # the arrays, whichever side of their threshold the window is
                assert _share_arrays(info, info.kept(p.l_max), info.capacities(net), p.f_min,
                                     alpha, beta) == \
                    (list(outcome.flows.values()), outcome.allocations)
        compared[kind] += 1
        compared["truncated"] += len(live_paths) < len(info.keys)
        compared["PU deducted"] += any(f_max[key] < min(caps[e] for e in edges)
                                       for key, edges in live_paths.items())
    assert all(compared[kind] >= 10 for kind in TOPOLOGIES), compared
    assert compared["truncated"] and compared["PU deducted"], compared


def test_share_arrays_records_equal_the_loop_on_seeded_windows(monkeypatch):
    # seeded windows on each lattice kind, 8x8 ones with two requests below
    # the arrays' threshold and 16x16 ones with twelve above it, give equal
    # records whether PS runs the loop on every window, the arrays on every
    # window, or each as _proportional_share selects
    kept_edges = {kind: [] for kind in TOPOLOGIES}
    share = scheduler._proportional_share

    def spy(info, kept, *args):
        kept_edges[kind].append(len(kept.keys))
        return share(info, kept, *args)

    monkeypatch.setattr(scheduler, "_proportional_share", spy)
    selected = scheduler._SHARE_ARRAYS_MIN_EDGES
    for kind in TOPOLOGIES:
        for rows, count in ((8, 2), (16, 12)):
            config = ExperimentConfig(rows=rows, cols=rows, kind=kind,
                                      requests=RequestSpec(count=count, distance=None))
            for seed in range(4):
                records = []
                for threshold in (10**9, 1, selected):
                    monkeypatch.setattr(scheduler, "_SHARE_ARRAYS_MIN_EDGES", threshold)
                    records.append(json.dumps(record_to_dict(run_trial(config, seed))))
                assert records[0] == records[1] == records[2], (kind, rows, seed)
    for kind, sizes in kept_edges.items():
        # three runs per window
        assert min(sizes) < selected <= max(sizes), (kind, sizes)


def seeded_windows(seeds=range(3)):
    """(kind, prepared window) on each lattice kind: 8x8 windows with two
    requests, below the PS arrays' threshold, and 16x16 ones with twelve,
    above it; degenerate windows are skipped."""
    for kind in TOPOLOGIES:
        for rows, count in ((8, 2), (16, 12)):
            config = ExperimentConfig(rows=rows, cols=rows, kind=kind,
                                      requests=RequestSpec(count=count, distance=None))
            for seed in seeds:
                ctx = prepare_trial(config, seed)
                if ctx.reason is None:
                    yield kind, ctx


def cold_path_set(ctx):
    """The window's PathSet with no view built: a copy, which the memo does
    not hold."""
    return pickle.loads(pickle.dumps(build_path_info(ctx.revised, ctx.paths, ctx.params.l_max)))


def test_request_groups_are_computed_per_edge_on_first_read():
    # an edge's groups, read by index in any order or in a pass over every
    # edge, are request_groups of its kept or live list; each is computed
    # once and kept with its view. On windows on both sides of the arrays'
    # threshold, with crowded edges that drop paths from the live views
    rng = np.random.default_rng(41)
    seen = Counter()
    for kind, ctx in seeded_windows():
        info = cold_path_set(ctx)
        for l_max in (ctx.params.l_max, 2):
            kept = info.kept(l_max)
            for keys, groups in ((kept.keys, kept.groups), (kept.live_keys, kept.live_groups)):
                want = [request_groups(ids, info.request_of) for ids in keys]
                first = {int(e): None for e in rng.permutation(len(keys))[:len(keys) // 2]}
                for e in first:
                    first[e] = groups[e]
                    assert first[e] == want[e] and groups[e] is first[e]
                assert len(groups) == len(want) and list(groups) == want and groups == want
                assert all(groups[e] is got for e, got in first.items())
            assert_kept_views(info, l_max)
            seen[kind] += 1
            seen["arrays" if len(kept.keys) >= scheduler._SHARE_ARRAYS_MIN_EDGES else "loop"] += 1
            seen["paths dropped"] += len(kept.live_paths) < len(info.keys)
    assert len(seen) == len(TOPOLOGIES) + 3, seen


def test_share_arrays_group_sizes_are_those_of_request_groups(monkeypatch):
    # _share_arrays starts a group where an edge starts or the request
    # changes: its request stage splits each edge over as many groups as
    # request_groups forms, of the same sizes, in the same order
    apportion_rows, stages = scheduler._apportion_rows, []

    def spy(totals, counts, values, *args):
        stages.append((counts.tolist(), values.tolist()))
        return apportion_rows(totals, counts, values, *args)

    monkeypatch.setattr(scheduler, "_apportion_rows", spy)
    compared = Counter()
    for kind, ctx in seeded_windows():
        info = build_path_info(ctx.revised, ctx.paths, ctx.params.l_max)
        for l_max in (ctx.params.l_max, 2):
            kept = info.kept(l_max)
            stages.clear()
            scheduler._share_arrays(info, kept, info.capacities(ctx.revised),
                                    compute_f_min(ctx.revised, l_max), 1.0, 1.0)
            assert stages[0] == ([len(groups) for groups in kept.groups],
                                 [len(group) for groups in kept.groups for group in groups])
            compared[kind] += 1
            compared["several groups on an edge"] += any(len(g) > 1 for g in kept.groups)
    assert len(compared) == len(TOPOLOGIES) + 1, compared


def test_schedulers_compute_only_the_groups_they_read(monkeypatch):
    # on a cold window above the arrays' threshold PS computes no group, and
    # PU computes, once each, the live groups of the edges it deducts on or
    # orders for raising: the groups it passes to _split or
    # two_stage_weights. Below the threshold the loop computes every kept
    # edge's groups once, and a second run none
    made, read = [], []
    make = pathfinder.request_groups
    monkeypatch.setattr(pathfinder, "request_groups",
                        lambda ids, request_of: made.append(tuple(ids)) or make(ids, request_of))
    for name in ("_split", "two_stage_weights"):
        def spy(groups, *args, _inner=getattr(scheduler, name)):
            read.append(tuple(itertools.chain.from_iterable(groups)))
            return _inner(groups, *args)
        monkeypatch.setattr(scheduler, name, spy)
    seen = Counter()
    for kind, ctx in seeded_windows():
        info = cold_path_set(ctx)
        kept = info.kept(ctx.params.l_max)  # truncation groups the crowded edges' lists
        made.clear()
        read.clear()
        if len(kept.keys) < scheduler._SHARE_ARRAYS_MIN_EDGES:
            for _ in range(2):
                run_algorithm("PS", ctx.revised, info, ctx.params)
                assert len(made) == len(kept.keys)
            seen["loop"] += 1
            continue
        run_algorithm("PS", ctx.revised, info, ctx.params)
        assert made == [] and read == [] and set(kept.groups._cache) == {None}
        for _ in range(2):
            run_algorithm("PU", ctx.revised, info, ctx.params)
            computed = [e for e, groups in enumerate(kept.live_groups._cache) if groups]
            assert len(made) == len(computed) and set(made) <= set(read)
        assert 0 < len(computed) < sum(map(bool, kept.live_keys))
        seen[kind] += 1
    assert len(seen) == len(TOPOLOGIES) + 1, seen


def test_plans_match_cold_runs_and_keyed_references_on_random_windows():
    # PS and PU run on one PathSet that keeps plans, as the memo's hits do,
    # through points that repeat and that give alpha and beta as 0.0 and as
    # -0.0, equal keys that share a plan; every outcome equals a run on a new
    # PathSet of the same paths, whose plan that run records, and the keyed
    # references
    compared = Counter()
    for kind, n, (net, built, p, _), alpha, beta, _ in keyed_reference_windows():
        # the memo may hand out a PathSet that an earlier test routed
        info = pickle.loads(pickle.dumps(built))
        assert info._plans is None
        info.keep_plans()
        caps = net.capacity_map()
        lengths = dict(zip(info.keys, info.lengths))
        points = [(p.l_max, alpha, beta), (p.l_max, 0.0, 0.5), (1, 2.0, -0.0),
                  (p.l_max, -0.0, 0.5), (p.l_max, alpha, beta), (1, 2.0, 0.0)]
        references = {}
        for l_max, a, b in points:
            params = RoutingParams(k=p.k, l_max=l_max, alpha=a, beta=b, f_min=p.f_min)
            # the references run on their own at -0.0
            point = (l_max, repr(a), repr(b))
            if point not in references:
                kept, live_keys, live_paths = reference_kept(info.path_edges, lengths, l_max)
                allocations = reference_proportional_share(net, kept, lengths, params)
                f_max = reference_propagatory_core(caps, live_keys, lengths, live_paths,
                                                   p.f_min, a, b)
                references[point] = {
                    "PS": (reference_flow_determination(allocations, info.path_edges),
                           allocations),
                    "PU": ({key: f_max.get(key, 0) for key in info.path_edges}, None)}
            for name, (flows, allocations) in references[point].items():
                compared["warm"] += (name, l_max, a, b) in info._plans
                outcome = run_algorithm(name, net, info, params)
                fresh = info_from_path_edges(info.path_edges, lengths)
                fresh.keep_plans()
                cold = run_algorithm(name, net, fresh, params)
                assert len(fresh._plans) == 1
                assert outcome.flows == cold.flows and outcome.allocations == cold.allocations, \
                    (kind, n, name, l_max, a, b)
                assert list(outcome.flows.items()) == list(flows.items()), (kind, n, name)
                if name == "PS":
                    keyed = keyed_allocations(outcome, l_max)
                    assert [(e, list(x.items())) for e, x in keyed.items()] == \
                        [(e, list(x.items())) for e, x in allocations.items()]
        # one plan per algorithm and distinct point, 0.0 and -0.0 alike
        assert len(info._plans) == 2 * len(set(points)) < 2 * len(references)
        compared[kind] += 1
        compared["truncated at l_max 1"] += any(len(ids) > 1 for ids in info.values())
    assert all(compared[kind] >= 10 for kind in TOPOLOGIES), compared
    assert compared["truncated at l_max 1"], compared
    # a repeat or a -0.0 finds its plan: at least 3 of the 6 points per window
    assert compared["warm"] >= 3 * 2 * sum(compared[kind] for kind in TOPOLOGIES), compared


def test_kept_views_match_definitions_on_random_windows():
    # PathSet.kept's one-request and nothing-truncated shortcuts against the
    # definitions of its views, at l_max values with and without truncation
    rng = np.random.default_rng(5150)
    seen = Counter()
    for n in range(90):
        kind = TOPOLOGIES[n % len(TOPOLOGIES)]
        window = random_routed_window(rng, kind)
        if window is None:
            continue
        net, info, p, requests = window
        seen[kind] += 1
        for l_max in (p.l_max, 1, max(map(len, info.values()))):
            assert_kept_views(info, l_max)
            truncated = any(len(ids) > l_max for ids in info.values())
            seen["truncated" if truncated else "not truncated"] += 1
            for grouped in info.kept(l_max).groups:
                seen["one request" if len(grouped) == 1 else "several requests"] += 1
        # the live views may be the kept lists themselves, so nothing may write to them
        kept = info.kept(p.l_max)
        seen["live views are the kept lists"] += kept.live_keys is kept.keys
        before = copy.deepcopy(kept)
        for name in ALGORITHMS:
            evaluate(run_algorithm(name, net, info, p), net, requests, 0.9)
        assert info.kept(p.l_max) is kept and kept == before
    assert all(seen[kind] >= 10 for kind in TOPOLOGIES), seen
    assert len(seen) == len(TOPOLOGIES) + 5 and min(seen.values()) > 0, seen


def test_uncoverable_residual_raises_invariant_error():
    # two paths share a capacity-10 edge, so 10 units must go; with f_min = 9
    # (above what production derives) only 2 can, leaving a shortfall of 8.
    # An explicit check, so it also holds under python -O
    info = one_edge({(0, 0): 1, (1, 0): 1})
    with pytest.raises(InvariantError, match=r"edge \(0, 1\): 8 units"):
        _propagatory_core(info, info.kept(2), [10], 9, 1.0, 1.0)


# ------------------------------------------------- PU's fixed point

def test_pu_stops_at_the_fixed_point():
    # PU stops where a full pass would change nothing, on random small
    # instances, on tied-length instances and on routed lattice windows
    seen = Counter()

    def check(info, l_max, capacity, f_min, alpha, beta, label):
        # one more full pass would deduct on an edge over capacity, or raise
        # a live path on an edge below capacity with room on its whole route
        kept = info.kept(l_max)
        f_max = _propagatory_core(info, kept, capacity, f_min, alpha, beta)
        usage = [sum(f_max[p] for p in ids) for ids in kept.live_keys]
        assert all(used <= cap for used, cap in zip(usage, capacity)), (label, f_max)
        for e, ids in enumerate(kept.live_keys):
            if usage[e] < capacity[e]:
                for p in ids:
                    assert any(usage[e2] >= capacity[e2] for e2 in info.edge_ids[p]), \
                        (label, e, p, f_max)
                    seen["paths on edges below capacity"] += 1
        seen[label] += 1

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((5, 50, 500)))
    def small(seed, max_cap):
        capacity, _, lengths, path_edges, f_min, alpha, beta = \
            random_schedule_instance(np.random.default_rng(seed), max_cap)
        info = info_from_path_edges(path_edges, lengths)
        check(info, len(path_edges), [capacity[e] for e in info.edges], f_min, alpha,
              beta, "small")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(tied_pu_windows())
    def tied(window):
        capacity, lengths, path_edges, f_min, alpha, beta = window
        info = info_from_path_edges(path_edges, lengths)
        try:
            check(info, len(path_edges), [capacity[e] for e in info.edges], f_min, alpha,
                  beta, "tied")
        except InvariantError:
            seen["tied shortfall"] += 1

    @settings(derandomize=True, max_examples=90, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(TOPOLOGIES),
           st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.sampled_from((0.0, 0.5, 1.0, 2.0)))
    def lattice(seed, kind, alpha, beta):
        window = random_routed_window(np.random.default_rng(seed), kind)
        if window is None:
            return
        net, info, p, _ = window
        check(info, p.l_max, info.capacities(net), p.f_min, alpha, beta, kind)

    small()
    tied()
    lattice()
    assert seen["small"] == 300 and seen["tied"] >= 100, seen
    assert all(seen[kind] >= 10 for kind in TOPOLOGIES), seen
    assert seen["paths on edges below capacity"] >= 1000, seen


def test_pu_raises_a_path_the_silent_steps_skipped():
    # f_min = 1, every edge at capacity 3, every path starting at 3. The
    # first pass deducts on (0, 1) and (1, 2), leaving (0, 1) at 2 of 3 and
    # the path (0, 1) at 1. The second pass visits the full edges (1, 2) and
    # (3, 4) first; a stop after len(edges) = 3 silent steps in a row ended
    # there, before edge (0, 1) raised its path to 2
    pe = {(0, 0): ((1, 2), (3, 4)), (0, 1): ((0, 1),), (1, 0): ((0, 1), (1, 2), (3, 4))}
    info = info_from_path_edges(pe, {key: len(route) for key, route in pe.items()})
    assert _propagatory_core(info, info.kept(3), [3, 3, 3], 1, 1.0, 1.0) == [2, 2, 1]


def test_pu_routes_the_fixed_point_on_a_lattice_window():
    # a 4x4 window where the silent-step stop left one unit unrouted (46)
    config = config_from_mapping({
        "lattice": {"rows": 4, "cols": 4}, "scenario": {"c0": 20},
        "routing": {"k": 7, "l_max": 3, "alpha": 0.0, "beta": 0.0},
        "requests": {"count": 6, "distance": None},
        "experiment": {"algorithms": ["PU"]}})
    record = run_trial(config, 429560)
    assert record.reason is None
    assert sum(record.results["PU"].outcome.flows.values()) == 47


# ------------------------------------------------- when alpha cannot change a table

def test_one_path_length_leaves_ps_and_pu_at_beta_0_blind_to_alpha():
    seen = Counter()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((5, 50, 500)), st.integers(1, 12),
           st.integers(1, 12), st.lists(st.floats(-1, 1), min_size=2, max_size=4),
           st.sampled_from((0.0, 0.5, 1.0, 2.0)))
    def check(seed, max_cap, length, l_max, scales, beta):
        capacity, _, lengths, path_edges, f_min, _, _ = \
            random_schedule_instance(np.random.default_rng(seed), max_cap)
        l_max = min(l_max, len(path_edges))
        # alphas within the config's bound: length**|alpha| * l_max**2 * c0 is finite
        headroom = math.log(sys.float_info.max) - 2 * math.log(l_max) - math.log(max_cap)
        alphas = [s * headroom / math.log(max(length, 2)) for s in scales]
        tied = info_from_path_edges(path_edges, dict.fromkeys(lengths, length))
        kept, caps = tied.kept(l_max), [capacity[e] for e in tied.edges]
        assert len({repr(_proportional_share(tied, kept, caps, f_min, alpha, beta))
                    for alpha in alphas}) == 1
        assert len({tuple(_propagatory_core(tied, kept, caps, f_min, alpha, 0.0))
                    for alpha in alphas}) == 1
        seen["groups of two sizes"] += any(len(set(map(len, groups))) > 1
                                           for groups in kept.live_groups)

        def keys(name, info):
            return {schedule_key(name, info, RoutingParams(l_max=l_max, alpha=alpha,
                                                           beta=beta, f_min=f_min))
                    for alpha in alphas}
        assert len(keys("PS", tied)) == 1
        assert len(keys("PU", tied)) == (1 if beta == 0 else len(set(alphas)))
        mixed = info_from_path_edges(path_edges, lengths)
        if len(set(lengths.values())) > 1:
            assert len(keys("PS", mixed)) == len(keys("PU", mixed)) == len(set(alphas))
            seen["mixed"] += 1

    check()
    # PU's raise order met groups of different sizes, and lengths often differed
    assert seen["groups of two sizes"] >= 50 and seen["mixed"] >= 100, seen


# ------------------------------------------------- capacity-independent work
# The unit-step loops would need ~1e9 rounds or ~1e6 raises here; these pin
# that PF and PU no longer do work proportional to capacity.

def test_pf_billion_unit_capacities_hand_computed():
    # p0 crosses e0 and e1, p1 only e0, p2 e1 and e2. The first event freezes
    # p2 at e2's 300_000_007; p0 and p1 then split e0 (1e9 + 1) evenly and the
    # odd unit stays unallocated
    paths = {(0, 0): ((0, 1), (2, 3)), (1, 0): ((0, 1),), (2, 0): ((2, 3), (4, 5))}
    capacity = {(0, 1): 1_000_000_001, (2, 3): 2_000_000_000, (4, 5): 300_000_007}
    flows = fill(paths, capacity)
    assert flows == {(0, 0): 500_000_000, (1, 0): 500_000_000, (2, 0): 300_000_007}
    assert_integer_max_min(paths, capacity, flows)


def test_pu_raise_of_millions_of_units_hand_computed():
    # p0 = (0, 0) crosses e0 (12M) and e1 (6M), p1 = (1, 0) only e0, p2 = (2, 0)
    # only e1; one path per request, so every apportionment splits evenly.
    # Desired capacities start at 6M, 12M, 6M. Pass 1: e1 (ratio 2) deducts
    # 3M from p0 and p2, then e0 deducts 1.5M from p0 and p1. Pass 2: e1 has
    # 1.5M free; p0 ties p2 on weight and comes first but e0 is full, so p2
    # is raised by 1.5M units
    net, info = abstract_instance([12_000_000, 6_000_000],
                                  {(0, 0): [0, 1], (1, 0): [0], (2, 0): [1]})
    p = params(alpha=1.0, beta=1.0)
    out = run_algorithm("PU", net, info, p)
    assert out.flows == {(0, 0): 1_500_000, (1, 0): 10_500_000, (2, 0): 4_500_000}
    assert pu_table(out, info, p.l_max) == {
        (0, 1): {(0, 0): 1_500_000, (1, 0): 10_500_000},
        (2, 3): {(0, 0): 1_500_000, (2, 0): 4_500_000}}


def test_pf_max_min_on_large_capacity_instances():
    rng = np.random.default_rng(77)
    for _ in range(300):
        path_edges, capacity = random_fill_instance(rng, max_cap=10_000)
        assert_integer_max_min(path_edges, capacity,
                               fill(path_edges, capacity))
