from datetime import datetime, timedelta

import numpy as np
import pytest

from nexica.errors import ParameterError, ValidationError
from nexica.events import (
    WEEK_SLOTS,
    EventSeries,
    detect_slowdowns,
    extract_events,
    leading_edges,
    median_week_profile,
    week_slot_index,
)
from nexica.ingest import SpeedSeries

from oracles import count_true_runs

MONDAY = datetime(2024, 1, 1, 0, 0)  # a Monday


def flat_series(weeks=3, speed=65.0, start=MONDAY, station="a"):
    n = weeks * WEEK_SLOTS
    return SpeedSeries(station, start, np.full(n, speed), np.zeros(n, dtype=bool))


def test_constant_speed_gives_constant_profile():
    profile = median_week_profile(flat_series())
    assert np.all(profile == 65.0)


def test_week_slot_median_odd_count():
    s = flat_series(weeks=3)
    ws = week_slot_index(datetime(2024, 1, 2, 8, 0))  # Tuesday 08:00
    for week, v in enumerate((60.0, 64.0, 62.0)):
        s.speeds[week * WEEK_SLOTS + ws] = v
    profile = median_week_profile(s)
    assert profile[ws] == 62.0


def test_week_slot_median_even_count_takes_lower():
    s = flat_series(weeks=2)
    ws = 100
    s.speeds[ws] = 60.0
    s.speeds[WEEK_SLOTS + ws] = 64.0
    profile = median_week_profile(s)
    assert profile[ws] == 60.0


def test_monday_ten_am_pools_only_monday_ten_am():
    s = flat_series(weeks=4)
    ws = week_slot_index(datetime(2024, 1, 1, 10, 0))
    values = (50.0, 52.0, 54.0, 56.0)
    for week, v in enumerate(values):
        s.speeds[week * WEEK_SLOTS + ws] = v
    profile = median_week_profile(s)
    assert profile[ws] == 52.0  # lower median of the four Mondays
    assert profile[ws - 1] == 65.0


def test_profile_ignores_imputed_samples():
    s = flat_series(weeks=3)
    ws = 7
    s.speeds[ws] = 10.0
    s.imputed[ws] = True
    profile = median_week_profile(s)
    assert profile[ws] == 65.0


def test_profile_undefined_when_all_samples_imputed():
    s = flat_series(weeks=2)
    ws = 12
    s.imputed[ws] = True
    s.imputed[WEEK_SLOTS + ws] = True
    profile = median_week_profile(s)
    assert np.isnan(profile[ws])


def test_profile_respects_start_offset():
    start = MONDAY + timedelta(minutes=35)  # week slot 7
    n = 2 * WEEK_SLOTS
    speeds = np.full(n, 65.0)
    s = SpeedSeries("a", start, speeds, np.zeros(n, dtype=bool))
    s.speeds[0] = 30.0
    s.speeds[WEEK_SLOTS] = 32.0
    profile = median_week_profile(s)
    assert profile[7] == 30.0


def test_detect_threshold_is_strict():
    s = flat_series(weeks=1)
    profile = median_week_profile(flat_series(weeks=2, speed=60.0))
    s.speeds[:] = 60.0
    s.speeds[10] = 44.0  # (44-60)/60 = -0.2667 < -0.25
    s.speeds[11] = 46.0  # (46-60)/60 = -0.2333 >= -0.25
    u = detect_slowdowns(s, profile, 0.25)
    assert u[10] and not u[11]


def test_detect_skips_imputed_slots():
    s = flat_series(weeks=1, speed=60.0)
    profile = median_week_profile(flat_series(weeks=2, speed=60.0))
    s.speeds[5] = 10.0
    s.imputed[5] = True
    u = detect_slowdowns(s, profile, 0.25)
    assert not u[5]


def test_detect_guards_zero_and_undefined_profile():
    profile = median_week_profile(flat_series(weeks=2, speed=0.0))
    assert np.all(profile == 0.0)
    s = flat_series(weeks=1, speed=0.0)
    assert not detect_slowdowns(s, profile, 0.25).any()
    undefined = median_week_profile(
        SpeedSeries("a", MONDAY, np.zeros(WEEK_SLOTS), np.ones(WEEK_SLOTS, dtype=bool))
    )
    s2 = flat_series(weeks=1, speed=1.0)
    assert not detect_slowdowns(s2, undefined, 0.25).any()


@pytest.mark.parametrize("shape", [(WEEK_SLOTS - 1,), (WEEK_SLOTS + 1,), (1, WEEK_SLOTS)])
def test_detect_rejects_a_profile_of_the_wrong_shape(shape):
    with pytest.raises(ValidationError, match=f"must have {WEEK_SLOTS} values"):
        detect_slowdowns(flat_series(weeks=1), np.full(shape, 65.0), 0.25)


def test_detect_rejects_bad_alpha():
    s = flat_series(weeks=1)
    profile = median_week_profile(s)
    with pytest.raises(ParameterError):
        detect_slowdowns(s, profile, 0.0)


@pytest.mark.parametrize(
    "u,expected",
    [
        ([0, 1, 1, 0, 1], [0, 1, 0, 0, 1]),
        ([1, 1, 1], [1, 0, 0]),
        ([0, 0, 0], [0, 0, 0]),
        ([1], [1]),
        ([], []),
    ],
)
def test_leading_edges_cases(u, expected):
    got = leading_edges(np.asarray(u, dtype=bool))
    assert got.tolist() == [bool(v) for v in expected]


def test_leading_edge_count_equals_run_count():
    rng = np.random.default_rng(0)
    for _ in range(300):
        u = rng.random(rng.integers(0, 60)) < rng.uniform(0, 1)
        v = leading_edges(u)
        assert int(v.sum()) == count_true_runs(u)
        # v never has two adjacent trues, and re-extracting is a no-op
        assert not np.any(v[1:] & v[:-1])
        assert np.array_equal(leading_edges(v), v)


def test_raising_alpha_never_adds_slowdowns():
    rng = np.random.default_rng(1)
    n = 2 * WEEK_SLOTS
    speeds = 65.0 + rng.normal(0, 12, n).clip(-60, 30)
    s = SpeedSeries("a", MONDAY, speeds.clip(0), np.zeros(n, dtype=bool))
    profile = median_week_profile(s)
    prev = None
    for alpha in (0.05, 0.1, 0.2, 0.3, 0.5):
        u = detect_slowdowns(s, profile, alpha)
        if prev is not None:
            assert not np.any(u & ~prev)  # u is a subset of the looser mask
        prev = u


def test_events_never_fire_on_imputed_slots():
    rng = np.random.default_rng(2)
    n = 3 * WEEK_SLOTS
    speeds = 65.0 + rng.normal(0, 20, n)
    imputed = rng.random(n) < 0.3
    s = SpeedSeries("a", MONDAY, speeds.clip(0), imputed)
    es = extract_events(s, 0.2)
    assert not np.any(es.events & imputed)
    assert not np.any(detect_slowdowns(s, median_week_profile(s), 0.2) & imputed)


def test_extract_events_structure():
    # three weeks so a single dipped sample cannot move the median
    s = flat_series(weeks=3, speed=60.0)
    s.speeds[30:33] = 40.0
    s.speeds[40] = 40.0
    es = extract_events(s, 0.25)
    assert isinstance(es, EventSeries)
    assert detect_slowdowns(s, median_week_profile(s), 0.25)[30:33].all()
    assert es.events[30] and not es.events[31] and not es.events[32]
    assert es.events[40]
    assert es.count() == 2
    assert np.array_equal(es.event_indices(), [30, 40])


def test_event_series_rejects_2d_events():
    with pytest.raises(ValidationError, match="1-D"):
        EventSeries("a", np.zeros((2, 3), dtype=bool))


def test_event_series_reads_its_events_after_an_in_place_edit():
    es = EventSeries("a", [0, 1, 0, 1, 1])
    assert es.events.dtype == bool
    assert es.event_indices().tolist() == [1, 3, 4] and es.count() == 3
    es.events[es.event_indices()[:1]] = False
    es.events[0] = True
    assert es.event_indices().tolist() == [0, 3, 4] and es.count() == 3
    es.events[3:] = False
    assert es.event_indices().tolist() == [0] and es.count() == 1
