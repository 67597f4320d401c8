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

``count_from_indices`` counts one (pair, lag) tuple on sorted event-index
arrays.  ``lagged_counts`` counts every ordered pair at every lag at once,
with one matrix product per lag over the stations' 0/1 event matrix; the
per-tuple kernel is its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ParameterError, ValidationError
from .events import EventSeries


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
    return count_from_indices(
        cause.event_indices(), effect.event_indices(), m, lag, tau
    )


def count_from_indices(
    cause_idx: np.ndarray, effect_idx: np.ndarray, m: int, lag: int, tau: int = 0
) -> CorrespondenceCounts:
    """Counting kernel over sorted event-index arrays of length-``m`` series."""
    if lag < 1:
        raise ParameterError(f"lag must be >= 1, got {lag}")
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if lag + tau >= m:
        raise ParameterError(f"lag {lag} + tau {tau} leaves no window for m={m}")
    window = m - lag - tau

    # Cause events with a defined partner window, effect events reachable
    # at the exact offset.
    c = cause_idx[: np.searchsorted(cause_idx, window)]
    e_lo = np.searchsorted(effect_idx, lag)
    e_hi = np.searchsorted(effect_idx, lag + window)

    if tau == 0:
        # Exact alignment: membership of c+lag in the effect set.
        pos = np.searchsorted(effect_idx, c + lag)
        valid = pos < effect_idx.size
        a11 = int(np.count_nonzero(effect_idx[pos[valid]] == c[valid] + lag))
        a01 = int(e_hi - e_lo) - a11
    else:
        a11, matched = _greedy_match(c, effect_idx, lag, tau)
        a01 = int(np.count_nonzero(~matched[e_lo:e_hi]))
    a10 = int(c.size) - a11
    a00 = window - a11 - a10 - a01
    return CorrespondenceCounts(a00, a01, a10, a11, lag, tau, window)


def _greedy_match(
    c: np.ndarray, effect_idx: np.ndarray, lag: int, tau: int
) -> tuple[int, np.ndarray]:
    """Greedy earliest-first one-to-one matching of cause to effect events.

    Cause events are processed in time order; each takes the earliest
    still-unmatched effect event in ``[t+lag, t+lag+tau]``.  A single
    forward pointer suffices: effect events skipped at one cause can never
    fall inside a later cause's window.
    """
    matched = np.zeros(effect_idx.size, dtype=bool)
    e = effect_idx
    j = 0
    a11 = 0
    for t in c:
        lo = t + lag
        hi = lo + tau
        while j < e.size and e[j] < lo:
            j += 1
        if j < e.size and e[j] <= hi:
            matched[j] = True
            a11 += 1
            j += 1
    return a11, matched


def product_dtype(m: int) -> np.dtype:
    """Float dtype of the event-matrix products for length-``m`` series.

    Every entry of a product is a count of at most ``m`` slots, summed
    from 0/1 terms, so all partial sums are integers no larger than ``m``.
    float32 holds every such integer exactly while ``m < 2**24``, float64
    while ``m < 2**53``; exact integer sums do not depend on the order in
    which BLAS adds them, so any thread count gives the same bytes.
    """
    return np.dtype(np.float32) if m < 1 << 24 else np.dtype(np.float64)


def lagged_counts(indices: list[np.ndarray], m: int, l_max: int, tau: int = 0) -> np.ndarray:
    """The four counts of every (cause, effect, lag) tuple over n series.

    ``indices`` holds each series' sorted event indices; all series have
    length ``m``.  Returns an int64 array of shape ``(n, n, l_max, 4)``
    whose entry ``[i, j, lag - 1]`` equals
    ``count_from_indices(indices[i], indices[j], m, lag, tau).as_tuple()``
    (the diagonal ``i == j`` is filled too).

    a11 for lag ``l`` and window ``W = m - l - tau`` is the product
    ``X[:, :W] @ D[:, l:l+W].T`` of the 0/1 event matrix X against the
    dilated effect matrix ``D[j, s] = any(X[j, s:s+tau+1])`` (``D = X`` at
    tau 0).  That product counts the causes with some effect in their
    window, which is what greedy matching counts when no two cause events
    of a station lie within ``tau`` slots of each other: their windows are
    disjoint, so each cause takes the first effect of its own window.
    Leading edges always satisfy this at tau <= 1.  Then

        a10 = causes in [0, W) - a11
        a01 = effects in [l, l+W) - matches in [l, l+W)

    The matches in the window are the same product against D', the
    dilation of X with its last tau columns cleared (a first effect lies in
    the window when any effect does).  D - D' is zero but in columns c0 =
    max(m - 2 tau, 0) to m - tau, which only the last tau causes of a
    window reach: their product is the difference.  Cause series with
    events closer than ``tau + 1`` slots are counted row by row by the exact
    ``count_from_indices``; counts are exact within :func:`product_dtype`'s bound.
    """
    if l_max < 1:
        raise ParameterError(f"l_max must be >= 1, got {l_max}")
    if tau < 0:
        raise ParameterError(f"tau must be >= 0, got {tau}")
    if l_max + tau >= m:
        raise ParameterError(f"lag {l_max} + tau {tau} leaves no window for m={m}")
    n = len(indices)
    x = np.zeros((n, m), dtype=product_dtype(m))
    for i, idx in enumerate(indices):
        x[i, idx] = 1
    d = x.copy() if tau else x
    for shift in range(1, tau + 1):
        np.maximum(d[:, :-shift], x[:, shift:], out=d[:, :-shift])
    c0 = max(m - 2 * tau, 0)
    edge = d[:, c0 : m - tau] - np.maximum.accumulate(x[:, c0 : m - tau][:, ::-1], axis=1)[:, ::-1]
    spaced = [idx.size < 2 or int(np.diff(idx).min()) > tau for idx in indices]

    out = np.empty((n, n, l_max, 4), dtype=np.int64)
    for lag in range(1, l_max + 1):
        window = m - lag - tau
        causes = np.array([np.searchsorted(idx, window) for idx in indices], dtype=np.int64)
        effects = np.array(
            [np.searchsorted(idx, lag + window) - np.searchsorted(idx, lag) for idx in indices],
            dtype=np.int64,
        )
        a11 = (x[:, :window] @ d[:, lag : lag + window].T).astype(np.int64)
        start = max(window - tau, 0)  # the first cause whose window reaches column c0
        beyond = (x[:, start:window] @ edge[:, start + lag - c0 :].T).astype(np.int64) if tau else 0
        a10 = causes[:, None] - a11
        a01 = effects[None, :] - (a11 - beyond)
        cell = out[:, :, lag - 1]
        cell[..., 0] = window - a11 - a10 - a01
        cell[..., 1] = a01
        cell[..., 2] = a10
        cell[..., 3] = a11

    for i, idx in enumerate(indices):
        if spaced[i]:
            continue
        for j, other in enumerate(indices):
            for lag in range(1, l_max + 1):
                out[i, j, lag - 1] = count_from_indices(idx, other, m, lag, tau).as_tuple()
    return out
