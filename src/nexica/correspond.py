"""Correspondence counting between a cause and an effect event series.

For a lag ``l`` the slot pairs ``(t, t+l)`` are classified into the four
cells of a 2x2 contingency table: a11 (cause and effect), a10 (cause
only), a01 (effect only), a00 (neither).  Only slots with a defined
partner are classified, so the window is ``M - lag - tau`` and the four
counts always sum to it.

With a tolerance ``tau > 0`` a cause event at ``t`` also matches an
effect event anywhere in ``[t+lag, t+lag+tau]``.  Matching is greedy
earliest-first and one-to-one: each cause event takes the earliest
still-unmatched effect event in its window, so no effect event is
counted twice.  Effect events in ``[lag, lag + window)`` left unmatched
count toward a01; none sits at the exact offset ``lag`` from a cause,
because that cause would have taken it.

``lagged_counts`` counts every ordered pair at every lag at once, for every
tau: one matrix product per lag over the stations' 0/1 event matrix, plus
greedy steps over the events that lie within tau slots of another.
``count_from_indices`` counts one (pair, lag) tuple on sorted event-index
arrays: by exact alignment at tau 0, as one row of ``lagged_counts`` at
tau > 0.  The greedy loop in ``tests/oracles.py`` is the tau > 0 reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError, ValidationError
from .events import EventSeries
from .ingest import MAX_WINDOW


@dataclass(frozen=True)
class CorrespondenceCounts:
    """The 2x2 paired-slot counts for one (cause, effect, lag, tau) tuple."""

    a00: int
    a01: int
    a10: int
    a11: int
    lag: int
    tau: int
    window: int

    def __post_init__(self):
        counts = (self.a00, self.a01, self.a10, self.a11)
        if any(c < 0 for c in counts):
            raise ValidationError(f"negative correspondence count in {counts}")
        if self.lag < 0 or self.tau < 0:
            raise ValidationError("lag and tau must be >= 0")
        if sum(counts) != self.window:
            raise ValidationError(
                f"counts {counts} sum to {sum(counts)}, window is {self.window}"
            )

    @classmethod
    def from_counts(
        cls, a00: int, a01: int, a10: int, a11: int, lag: int = 1, tau: int = 0
    ) -> "CorrespondenceCounts":
        """Build a standalone table; the window is the sum of the counts."""
        return cls(a00, a01, a10, a11, lag, tau, a00 + a01 + a10 + a11)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a00, self.a01, self.a10, self.a11)


def count_correspondences(
    cause: EventSeries, effect: EventSeries, lag: int, tau: int = 0
) -> CorrespondenceCounts:
    """Count the four correspondence types between two event series."""
    m = len(cause)
    if len(effect) != m:
        raise ConsistencyError(
            f"series lengths differ: {cause.station_id} has {m}, "
            f"{effect.station_id} has {len(effect)}"
        )
    return count_from_indices(cause.event_indices(), effect.event_indices(), m, lag, tau)


def count_from_indices(
    cause_idx: np.ndarray, effect_idx: np.ndarray, m: int, lag: int, tau: int = 0
) -> CorrespondenceCounts:
    """Counting kernel over sorted event-index arrays of length-``m`` series;
    at tau > 0, row ``[0, 1, lag - 1]`` of ``lagged_counts`` on the pair."""
    if lag < 1:
        raise ParameterError(f"lag must be >= 1, got {lag}")
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if lag + tau >= m:
        raise ParameterError(f"lag {lag} + tau {tau} leaves no window for m={m}")
    window = m - lag - tau
    if tau:
        pair = [idx[: np.searchsorted(idx, m)] for idx in (cause_idx, effect_idx)]
        row = lagged_counts(pair, m, lag, tau)[0, 1, lag - 1].tolist()
        return CorrespondenceCounts(*row, lag, tau, window)

    # Exact alignment: membership of c+lag in the effect set, for the cause
    # events with a defined partner and the effect events in [lag, lag + window).
    c = cause_idx[: np.searchsorted(cause_idx, window)]
    e_lo = np.searchsorted(effect_idx, lag)
    e_hi = np.searchsorted(effect_idx, lag + window)
    pos = np.searchsorted(effect_idx, c + lag)
    valid = pos < effect_idx.size
    a11 = int(np.count_nonzero(effect_idx[pos[valid]] == c[valid] + lag))
    a01 = int(e_hi - e_lo) - a11
    a10 = int(c.size) - a11
    a00 = window - a11 - a10 - a01
    return CorrespondenceCounts(a00, a01, a10, a11, lag, tau, window)


def lagged_counts(indices: list[np.ndarray], m: int, l_max: int, tau: int = 0) -> np.ndarray:
    """The four counts of every (cause, effect, lag) tuple over n series.

    ``indices`` holds each series' sorted event indices; all series have
    length ``m``.  Returns an int64 array of shape ``(n, n, l_max, 4)``
    whose entry ``[i, j, lag - 1]`` holds the counts of cause ``i``, effect
    ``j`` and that lag (the diagonal ``i == j`` is filled too); the greedy
    loop in ``tests/oracles.py`` is its reference.  For lag ``l`` and window
    ``W = m - l - tau``,

        a10 = causes in [0, W) - a11
        a01 = effects in [l, l+W) - matches in [l, l+W)

    A cluster is a maximal run of a station's events with gaps of at most
    tau (leading edges have none at tau <= 1).  Clusters have disjoint
    windows, so greedy matching treats each on its own.  A lone event takes
    the first effect in its window: its matches are the product
    ``X[:, :W] @ D[:, l:l+W].T`` of the 0/1 event matrix X, clustered
    events cleared, against the dilated effect matrix
    ``D[j, s] = any(X[j, s:s+tau+1])`` (``D = X`` at tau 0).  Those in the
    window are the same product against D', the dilation with its last tau
    columns cleared.  D - D' is zero but in columns c0 = max(m - 2 tau, 0)
    to m - tau, which only the last tau causes of a window reach: their
    product is the difference.  A cluster takes one greedy step per event
    for all effects and lags at once; each (cluster, effect, lag) carries
    its first unmatched slot.  The products are float32: their partial sums
    are integers no larger than a window, at most ``MAX_WINDOW`` = 2**24, so
    exact, and the same in whatever order BLAS adds them.
    """
    if l_max < 1:
        raise ParameterError(f"l_max must be >= 1, got {l_max}")
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if l_max + tau >= m:
        raise ParameterError(f"lag {l_max} + tau {tau} leaves no window for m={m}")
    if m - 1 - tau > MAX_WINDOW:  # the lag-1 window, the widest
        raise ParameterError(f"window exceeds {MAX_WINDOW} slots")
    n = len(indices)
    x = np.zeros((n, m), dtype=np.float32)
    for i, idx in enumerate(indices):
        x[i, idx] = 1
    d = x.copy() if tau else x
    for shift in range(1, tau + 1):
        np.maximum(d[:, :-shift], x[:, shift:], out=d[:, :-shift])
    c0 = max(m - 2 * tau, 0)
    edge = d[:, c0 : m - tau] - np.maximum.accumulate(x[:, c0 : m - tau][:, ::-1], axis=1)[:, ::-1]

    # out[..., 3] first sums the clusters' matches, out[..., 1] those inside the window.
    out = np.zeros((n, n, l_max, 4), dtype=np.int64)
    clustered = {}
    for i, idx in enumerate(indices):
        close = np.diff(idx) <= tau
        if close.any():
            clustered[i] = idx[np.append(close, False) | np.insert(close, 0, False)]
    if clustered:  # first[j, s]: the first event of j at or after slot s, else m
        first = np.empty((n, m + 1), dtype=np.int32)
        for j, idx in enumerate(indices):
            first[j] = np.append(idx, m)[np.searchsorted(idx, np.arange(m + 1))]
    for i, ev in clustered.items():
        x[i, ev] = 0
        starts = np.flatnonzero(np.diff(ev, prepend=ev[0] - tau - 1) > tau)
        size = np.diff(starts, append=ev.size)
        starts = starts[np.argsort(-size)]  # the clusters live at a step come first
        slot = np.zeros((starts.size, n, l_max), dtype=np.int32)  # the first unmatched slot
        for q in range(size.max()):
            live = np.count_nonzero(size > q)
            lo = ev[starts[:live] + q, None, None] + np.arange(1, l_max + 1)  # window starts
            hi = np.where(lo + tau < m, lo + tau, -1)  # -1: no window at this lag
            s = first[np.arange(n)[:, None], np.maximum(slot[:live], np.minimum(lo, m))]
            hit = s <= hi
            np.copyto(slot[:live], s + 1, where=hit)
            out[i, ..., 3] += hit.sum(axis=0)
            out[i, ..., 1] += (s <= np.minimum(hi, m - tau - 1)).sum(axis=0)

    for lag in range(1, l_max + 1):
        window = m - lag - tau
        causes = np.array([np.searchsorted(idx, window) for idx in indices], dtype=np.int64)
        effects = np.array(
            [np.searchsorted(idx, lag + window) - np.searchsorted(idx, lag) for idx in indices],
            dtype=np.int64,
        )
        lone = (x[:, :window] @ d[:, lag : lag + window].T).astype(np.int64)
        start = max(window - tau, 0)  # the first cause whose window reaches column c0
        beyond = (x[:, start:window] @ edge[:, start + lag - c0 :].T).astype(np.int64) if tau else 0
        cell = out[:, :, lag - 1]
        a11 = lone + cell[..., 3]
        a10 = causes[:, None] - a11
        a01 = effects[None, :] - (lone - beyond + cell[..., 1])
        cell[..., 0] = window - a11 - a10 - a01
        cell[..., 1] = a01
        cell[..., 2] = a10
        cell[..., 3] = a11
    return out
