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
counted twice.  Effect events left unmatched count toward a01 when they
sit at the exact offset ``lag`` from a cause-free slot.

Counting works on sorted event-index arrays, iterating the smaller side,
which keeps one (pair, lag) evaluation near O(min(|C|, |E|)) and makes
full sweeps over hundreds of stations cheap.
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
        # Exact alignment: membership of c+lag in the effect set, counted
        # from the smaller side.
        if c.size <= effect_idx.size:
            pos = np.searchsorted(effect_idx, c + lag)
            valid = pos < effect_idx.size
            a11 = int(np.count_nonzero(effect_idx[pos[valid]] == c[valid] + lag))
        else:
            e = effect_idx[e_lo:e_hi]
            pos = np.searchsorted(c, e - lag)
            valid = pos < c.size
            a11 = int(np.count_nonzero(c[pos[valid]] == e[valid] - lag))
        a10 = int(c.size) - a11
        a01 = int(e_hi - e_lo) - a11
    else:
        a11, matched = _greedy_match(c, effect_idx, lag, tau)
        a10 = int(c.size) - a11
        # Unmatched effect events at the exact offset from a cause-free slot.
        in_range = effect_idx[e_lo:e_hi]
        unmatched = in_range[~matched[e_lo:e_hi]]
        pos = np.searchsorted(c, unmatched - lag)
        valid = pos < c.size
        hits = np.zeros(unmatched.size, dtype=bool)
        hits[valid] = c[pos[valid]] == unmatched[valid] - lag
        a01 = int(np.count_nonzero(~hits))
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

