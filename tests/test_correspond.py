import time

import numpy as np
import pytest

from nexica.correspond import (
    CorrespondenceCounts,
    count_correspondences,
    count_from_indices,
)
from nexica.errors import ConsistencyError, ParameterError, ValidationError
from nexica.events import EventSeries
from nexica.ingest import MAX_WINDOW
from nexica.pipeline import sweep

from oracles import brute_force_counts, greedy_counts


def make_series(bits, station="x"):
    return EventSeries(station, bits)


def test_spec_example_lag1():
    cause = make_series([1, 0, 1, 0], "c")
    effect = make_series([0, 1, 0, 0], "e")
    c = count_correspondences(cause, effect, lag=1, tau=0)
    assert (c.a00, c.a01, c.a10, c.a11) == (1, 0, 1, 1)
    assert c.window == 3


def test_identical_shifted_pair():
    cause = make_series([1, 0, 0], "c")
    effect = make_series([0, 1, 0], "e")
    c = count_correspondences(cause, effect, lag=1, tau=0)
    assert (c.a00, c.a01, c.a10, c.a11) == (1, 0, 0, 1)


def test_all_false_gives_pure_a00():
    cause = make_series([0] * 10, "c")
    effect = make_series([0] * 10, "e")
    for lag in (1, 3, 8):
        c = count_correspondences(cause, effect, lag=lag, tau=0)
        assert c.a00 == c.window == 10 - lag
        assert c.a01 == c.a10 == c.a11 == 0


def test_lag_zero_disallowed():
    cause = make_series([1, 0, 1, 0])
    with pytest.raises(ParameterError):
        count_correspondences(cause, cause, lag=0)


def test_length_mismatch():
    with pytest.raises(ConsistencyError):
        count_correspondences(make_series([1, 0]), make_series([1, 0, 0]), lag=1)


def test_window_exhausted():
    cause = make_series([1, 0, 1])
    with pytest.raises(ParameterError):
        count_correspondences(cause, cause, lag=2, tau=1)


def test_counts_invariants_enforced():
    with pytest.raises(ValidationError):
        CorrespondenceCounts(1, 1, 1, 1, lag=1, tau=0, window=5)
    with pytest.raises(ValidationError):
        CorrespondenceCounts(-1, 1, 1, 1, lag=1, tau=0, window=2)


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for trial in range(3000):
        m = int(rng.integers(10, 65))
        density = rng.uniform(0.05, 0.6)
        cause = rng.random(m) < density
        effect = rng.random(m) < rng.uniform(0.05, 0.6)
        tau = int(rng.integers(0, 3))
        max_lag = min(8, m - tau - 1)
        lag = int(rng.integers(1, max_lag + 1))
        got = count_from_indices(
            np.flatnonzero(cause), np.flatnonzero(effect), m, lag, tau
        )
        want = brute_force_counts(cause, effect, lag, tau)
        assert (got.a00, got.a01, got.a10, got.a11, got.window) == want, (
            trial, cause.tolist(), effect.tolist(), lag, tau
        )


def test_matches_oracle_on_dense_and_sparse_extremes():
    rng = np.random.default_rng(7)
    for density in (0.0, 0.02, 0.98, 1.0):
        for _ in range(100):
            m = int(rng.integers(12, 64))
            cause = rng.random(m) < density
            effect = rng.random(m) < density
            lag = int(rng.integers(1, 4))
            tau = int(rng.integers(0, 3))
            if lag + tau >= m:
                continue
            got = count_from_indices(
                np.flatnonzero(cause), np.flatnonzero(effect), m, lag, tau
            )
            assert (got.a00, got.a01, got.a10, got.a11, got.window) == brute_force_counts(
                cause, effect, lag, tau
            )


def test_trailing_false_pad_changes_only_window_bookkeeping():
    # Padding both series with trailing quiet slots admits previously
    # window-excluded cause slots (they become a10 or a00 at tau=0) but
    # never changes a11 or a01.
    rng = np.random.default_rng(5)
    for _ in range(300):
        m = int(rng.integers(10, 50))
        cause = rng.random(m) < 0.3
        effect = rng.random(m) < 0.3
        lag = int(rng.integers(1, 5))
        if lag >= m:
            continue
        pad = int(rng.integers(1, 10))
        base = count_from_indices(np.flatnonzero(cause), np.flatnonzero(effect), m, lag, 0)
        padded = count_from_indices(
            np.flatnonzero(cause), np.flatnonzero(effect), m + pad, lag, 0
        )
        assert padded.a11 == base.a11
        assert padded.a01 == base.a01
        newly_eligible = int(np.count_nonzero(cause[m - lag : m - lag + pad]))
        assert padded.a10 == base.a10 + newly_eligible
        assert padded.window == base.window + pad


def test_tau_monotonicity_over_common_window():
    # Comparing tau+1 on length m against tau on length m-1 keeps the
    # eligible cause population identical, isolating the slack effect.
    rng = np.random.default_rng(9)
    for _ in range(500):
        m = int(rng.integers(12, 64))
        cause = rng.random(m) < rng.uniform(0.05, 0.5)
        effect = rng.random(m) < rng.uniform(0.05, 0.5)
        lag = int(rng.integers(1, 5))
        tau = int(rng.integers(0, 3))
        if lag + tau + 1 >= m:
            continue
        loose = count_from_indices(
            np.flatnonzero(cause), np.flatnonzero(effect), m, lag, tau + 1
        )
        tight = count_from_indices(
            np.flatnonzero(cause), np.flatnonzero(effect), m - 1, lag, tau
        )
        assert loose.a11 >= tight.a11


def test_indices_at_and_past_m_count_as_the_clipped_arrays():
    # Indices of a longer series: those at or past m are dropped at every tau.
    rng = np.random.default_rng(12)
    m = 40
    for tau in range(4):
        for _ in range(100):
            cause = rng.random(m + 5) < 0.4
            effect = rng.random(m + 5) < 0.4
            cause[m] = effect[m] = True
            lag = int(rng.integers(1, 6))
            got = count_from_indices(np.flatnonzero(cause), np.flatnonzero(effect), m, lag, tau)
            clipped = count_from_indices(
                np.flatnonzero(cause[:m]), np.flatnonzero(effect[:m]), m, lag, tau
            )
            assert got == clipped
            assert (*got.as_tuple(), got.window) == brute_force_counts(
                cause[:m], effect[:m], lag, tau
            )


def test_tau_above_zero_rejects_a_window_past_max_window():
    none = np.zeros(0, dtype=np.int64)
    # tau 0 counts any window; at tau 1 the lag-1 window here is MAX_WINDOW + 1.
    assert count_from_indices(none, none, MAX_WINDOW + 3, 1, 0).window == MAX_WINDOW + 2
    with pytest.raises(ParameterError, match=f"window exceeds {MAX_WINDOW} slots"):
        count_from_indices(none, none, MAX_WINDOW + 3, 1, 1)


@pytest.mark.parametrize("density", [0.05, 0.2])
def test_matches_greedy_oracle_on_six_month_pairs(density):
    # Six months of slots: such pairs cluster at tau >= 1, so the cluster
    # steps and the first-effect table of lagged_counts run on two series.
    rng = np.random.default_rng(int(density * 100))
    m = 52416
    cause = make_series(rng.random(m) < density, "c")
    effect = make_series(rng.random(m) < density, "e")
    for tau in (1, 2, 3):
        assert np.diff(cause.event_indices()).min() <= tau
        for lag in (1, 3, 8):
            want = greedy_counts(cause.event_indices(), effect.event_indices(), m, lag, tau)
            assert count_correspondences(cause, effect, lag, tau) == want, (tau, lag)


def test_tau_matching_is_one_to_one():
    # One effect event cannot satisfy two cause events.
    cause = make_series([1, 1, 0, 0, 0, 0], "c")
    effect = make_series([0, 0, 1, 0, 0, 0], "e")
    c = count_correspondences(cause, effect, lag=1, tau=1)
    assert c.a11 == 1
    assert c.a10 == 1


def test_tau_greedy_takes_earliest_effect():
    # Cause at 0 takes the effect at lag exactly, leaving the later one
    # for the cause at 1.
    cause = make_series([1, 1, 0, 0, 0, 0, 0], "c")
    effect = make_series([0, 0, 1, 1, 0, 0, 0], "e")
    c = count_correspondences(cause, effect, lag=2, tau=1)
    assert c.a11 == 2


def test_sweep_covers_all_ordered_pairs():
    rng = np.random.default_rng(3)
    series = [make_series(rng.random(40) < 0.3, f"s{k}") for k in range(4)]
    table = sweep(series, l_max=3)
    assert len(table) == 4 * 3 * 3
    for k, counts in enumerate(table.counts.tolist()):
        cause_id, effect_id, lag = table.key(k)
        assert cause_id != effect_id
        assert sum(counts) == 40 - lag
    with pytest.raises(ParameterError):
        sweep(series, l_max=0)


def test_counting_speed_on_six_month_series():
    rng = np.random.default_rng(0)
    m = 52416
    cause = np.flatnonzero(rng.random(m) < 0.05)
    effect = np.flatnonzero(rng.random(m) < 0.05)
    t0 = time.perf_counter()
    for lag in range(1, 9):
        count_from_indices(cause, effect, m, lag, 0)
    elapsed = (time.perf_counter() - t0) / 8
    assert elapsed < 0.005  # well under a millisecond per tuple in practice
