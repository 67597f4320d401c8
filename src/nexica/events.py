"""Slowdown-event extraction from speed series.

A station's "normal" speed for each of the 2016 five-minute slots of a
generic week is the median of everything observed at that week slot.
A slot is a slowdown when the relative prediction error drops below
``-alpha``; the event series keeps only the first slot of each maximal
run of slowdowns (the leading edge), which is the unit all downstream
causal analysis works on.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ParameterError, ValidationError
from .ingest import SLOT_MINUTES, SpeedSeries

SLOTS_PER_DAY = 24 * 60 // SLOT_MINUTES
WEEK_SLOTS = 7 * SLOTS_PER_DAY  # 2016


def week_slot_index(ts: datetime) -> int:
    """Index of a timestamp within the generic week (Monday 00:00 is 0)."""
    return ts.weekday() * SLOTS_PER_DAY + (ts.hour * 60 + ts.minute) // SLOT_MINUTES


@dataclass(eq=False)
class EventSeries:
    """Binary slowdown events for one station, one flag per slot.

    Extracted series hold leading edges, so no two events are adjacent;
    directly generated streams (see :mod:`nexica.synth`) may have them.
    """

    station_id: str
    events: np.ndarray

    def __post_init__(self):
        self.events = np.asarray(self.events, dtype=bool)
        if self.events.ndim != 1:
            raise ValidationError(f"station {self.station_id}: events must be 1-D")

    def __len__(self) -> int:
        return self.events.size

    def event_indices(self) -> np.ndarray:
        """Sorted slot indices of events."""
        return np.flatnonzero(self.events)

    def count(self) -> int:
        return int(np.count_nonzero(self.events))


def median_week_profile(series: SpeedSeries) -> np.ndarray:
    """Lower median of non-imputed speeds per week slot, as
    ``WEEK_SLOTS`` float64 values indexed by :func:`week_slot_index`.

    An even sample count takes the lower of the two middle values, so the
    profile always equals an observed speed.  Week slots with no usable
    samples come back NaN and never produce events downstream.
    """
    m = len(series)
    ws0 = week_slot_index(series.start_time)
    # Lay the series on a (weeks, WEEK_SLOTS) grid with NaN for imputed or
    # absent slots, then take the per-column lower median.
    n_weeks = (ws0 + m + WEEK_SLOTS - 1) // WEEK_SLOTS
    grid = np.full(n_weeks * WEEK_SLOTS, np.nan)
    vals = np.where(series.imputed, np.nan, series.speeds)
    grid[ws0 : ws0 + m] = vals
    grid = grid.reshape(n_weeks, WEEK_SLOTS)
    order = np.sort(grid, axis=0)  # NaNs sort to the end
    counts = np.count_nonzero(~np.isnan(grid), axis=0)
    pick = np.maximum(counts - 1, 0) // 2
    medians = np.take_along_axis(order, pick[None, :], axis=0)[0]
    medians[counts == 0] = np.nan
    return medians


def detect_slowdowns(
    series: SpeedSeries, medians: np.ndarray, alpha: float
) -> np.ndarray:
    """Boolean mask of slots where (s - predicted) / predicted < -alpha,
    predicting each slot by its week slot's entry of ``medians``.

    Imputed slots and slots whose prediction is undefined or zero never
    count as slowdowns.
    """
    if not alpha > 0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    medians = np.asarray(medians, dtype=np.float64)
    if medians.shape != (WEEK_SLOTS,):
        raise ValidationError(
            f"profile for {series.station_id} must have {WEEK_SLOTS} values, "
            f"got shape {medians.shape}"
        )
    ws0 = week_slot_index(series.start_time)
    predicted = medians[(ws0 + np.arange(len(series))) % WEEK_SLOTS]
    eligible = ~series.imputed & np.isfinite(predicted) & (predicted > 0)
    u = np.zeros(len(series), dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = (series.speeds - predicted) / predicted
    u[eligible] = rel[eligible] < -alpha
    return u


def leading_edges(u: np.ndarray) -> np.ndarray:
    """First slot of each maximal run of true values."""
    u = np.asarray(u, dtype=bool)
    v = u.copy()
    if v.size > 1:
        v[1:] = u[1:] & ~u[:-1]
    return v


def extract_events(series: SpeedSeries, alpha: float) -> EventSeries:
    """Full extraction for one station: profile, slowdowns, leading edges."""
    u = detect_slowdowns(series, median_week_profile(series), alpha)
    return EventSeries(series.station_id, leading_edges(u))
