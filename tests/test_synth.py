import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica.correspond import count_correspondences
from nexica.errors import ValidationError
from nexica.events import extract_events
from nexica.mle import CausalCase, estimate
from nexica.synth import (
    _EDGE_STREAM_BASE,
    SynthSpec,
    _stream,
    generate_event_pair,
    generate_network,
    line_geometry,
    render_speed_series,
)


def test_generation_is_deterministic():
    spec = SynthSpec(n_stations=4, n_slots=5000, p_s=0.05,
                     edges=((1, 0, 2, 0.5), (3, 2, 4, 0.7)), seed=42)
    a, truth_a = generate_network(spec)
    b, truth_b = generate_network(spec)
    assert truth_a == truth_b
    for s, t in zip(a, b):
        assert np.array_equal(s.events, t.events)


def test_different_seeds_differ():
    s1, _ = generate_network(SynthSpec(n_stations=1, n_slots=4000, p_s=0.1, seed=1))
    s2, _ = generate_network(SynthSpec(n_stations=1, n_slots=4000, p_s=0.1, seed=2))
    assert not np.array_equal(s1[0].events, s2[0].events)


def test_self_edge_rejected():
    with pytest.raises(ValidationError):
        SynthSpec(n_stations=3, n_slots=100, p_s=0.1, edges=((1, 1, 2, 0.5),))


def test_pc_zero_gives_independent_streams():
    cause, effect = generate_event_pair(0.05, 0.0, 3, 52416, seed=5)
    counts = count_correspondences(cause, effect, 3)
    est = estimate(counts)
    assert abs(est.p_c) <= 0.03
    assert abs(est.p_s - 0.05) <= 0.01


def test_pc_one_every_cause_event_is_followed():
    cause, effect = generate_event_pair(0.02, 1.0, 4, 20000, seed=6)
    counts = count_correspondences(cause, effect, 4)
    assert counts.a10 == 0
    assert estimate(counts).p_c == 1.0


def test_recovery_of_planted_parameters():
    cause, effect = generate_event_pair(0.05, 0.4, 3, 52416, seed=7)
    est = estimate(count_correspondences(cause, effect, 3))
    assert est.case is CausalCase.INTERIOR
    assert abs(est.p_s - 0.05) <= 0.01
    assert abs(est.p_c - 0.4) <= 0.03


def test_event_rate_within_binomial_bounds():
    n = 52416
    for ps in (0.01, 0.05, 0.1, 0.5):
        series, _ = generate_network(
            SynthSpec(n_stations=1, n_slots=n, p_s=ps, seed=11)
        )
        rate = series[0].count() / n
        assert abs(rate - ps) <= 4 * math.sqrt(ps * (1 - ps) / n)


def test_estimates_tighten_with_more_data():
    ps, pc, lag = 0.05, 0.4, 2
    medians = []
    for n in (1000, 10000, 100000):
        errors = []
        for seed in range(100):
            cause, effect = generate_event_pair(ps, pc, lag, n, seed=seed)
            est = estimate(count_correspondences(cause, effect, lag))
            if est.case is CausalCase.UNDEFINED:
                continue
            errors.append(abs(est.p_c - pc))
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2]


def test_no_edges_all_pairwise_estimates_near_zero():
    spec = SynthSpec(n_stations=4, n_slots=52416, p_s=0.05, seed=13)
    series, truth = generate_network(spec)
    assert truth == []
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            for lag in (1, 3):
                est = estimate(count_correspondences(series[i], series[j], lag))
                assert abs(est.p_c) <= 0.03


def test_chained_edges_propagate_through_full_event_stream():
    # a -> b at lag 2 and b -> c at lag 3 with certain triggering: every
    # a event must reappear at c five slots later.
    spec = SynthSpec(
        n_stations=3, n_slots=30000, p_s=0.02,
        edges=((0, 1, 2, 1.0), (1, 2, 3, 1.0)), seed=17,
    )
    series, _ = generate_network(spec)
    counts = count_correspondences(series[0], series[2], 5)
    assert counts.a10 == 0


def test_cyclic_station_graph_converges():
    spec = SynthSpec(
        n_stations=2, n_slots=8000, p_s=0.03,
        edges=((0, 1, 2, 0.6), (1, 0, 3, 0.6)), seed=19,
    )
    series, _ = generate_network(spec)
    est01 = estimate(count_correspondences(series[0], series[1], 2))
    assert est01.p_c > 0.3
    # rerun reproduces exactly (fixpoint is deterministic)
    series2, _ = generate_network(spec)
    assert np.array_equal(series[0].events, series2[0].events)
    assert np.array_equal(series[1].events, series2[1].events)


@st.composite
def networks(draw):
    """Small specs on random station graphs, acyclic or cyclic, with repeated
    cause->effect pairs at different lags."""
    n = draw(st.integers(2, 5))
    n_slots = draw(st.integers(2, 60))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = []
    for cause, effect in draw(st.lists(pair, max_size=8)):
        for lag in draw(st.sets(st.integers(1, min(n_slots - 1, 6)), min_size=1, max_size=2)):
            edges.append((cause, effect, lag, draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))))
    return SynthSpec(
        n_stations=n, n_slots=n_slots, p_s=draw(st.sampled_from([0.0, 0.05, 0.2, 0.5])),
        edges=tuple(edges), seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=200, deadline=None)
@given(networks())
def test_network_events_are_the_least_closure_of_the_spontaneous_events(spec):
    series, _ = generate_network(spec)
    events = [s.events for s in series]
    m = spec.n_slots
    spont = [_stream(spec.seed, s).random(m) < spec.p_s for s in range(spec.n_stations)]
    coins = [
        _stream(spec.seed, _EDGE_STREAM_BASE + k).random(m) < p_c
        for k, (_, _, _, p_c) in enumerate(spec.edges)
    ]
    for s in range(spec.n_stations):
        assert np.all(events[s][spont[s]])
    for k, (cause, effect, lag, _) in enumerate(spec.edges):
        for t in range(m - lag):
            if events[cause][t] and coins[k][t]:
                assert events[effect][t + lag]
    for s in range(spec.n_stations):
        for t in np.flatnonzero(events[s] & ~spont[s]).tolist():
            assert any(
                effect == s and lag <= t and events[cause][t - lag] and coins[k][t - lag]
                for k, (cause, effect, lag, _) in enumerate(spec.edges)
            ), (s, t)


def test_rendered_speeds_reproduce_isolated_events():
    spec = SynthSpec(n_stations=1, n_slots=8 * 2016, p_s=0.02, seed=23, alpha=0.25)
    series, _ = generate_network(spec)
    from datetime import datetime

    speeds = render_speed_series(series[0], 0.25, 65.0, datetime(2024, 1, 1))
    recovered = extract_events(speeds, 0.25)
    planted = series[0].events
    # adjacent planted events merge into one run; every recovered event
    # is planted and every isolated planted event is recovered
    assert np.all(planted[recovered.events])
    isolated = planted.copy()
    isolated[1:] &= ~planted[:-1]
    assert np.all(recovered.events[isolated])


def test_line_geometry_matches_rule_expectations():
    from nexica.groundtruth import DatasetSpec, label_pairs

    spec = SynthSpec(n_stations=5, n_slots=10, p_s=0.0)
    meta, matrix = line_geometry(spec)
    truth = label_pairs(meta, matrix, DatasetSpec())
    positives = truth.positives()
    positive = set(zip(positives.cause.tolist(), positives.effect.tolist(), positives.lag.tolist()))
    # cause one station downstream of effect, one free-flow minute apart
    assert ("S001", "S000", 1) in positive
    assert ("S003", "S001", 2) in positive
    assert ("S000", "S001", 1) not in positive
