"""Synthetic event streams and networks with known causal structure.

Generation follows the estimator's own probabilistic model exactly: each
station fires spontaneously per slot with probability ``p_s``, and an
edge (cause, effect, lag, p_c) adds a triggered event at ``t + lag``
whenever the cause fired at ``t`` and an independent coin with
probability ``p_c`` comes up.  Spontaneous and triggered events combine
by logical OR, which is what makes the 11-cell probability
``p_s + p_c - p_s p_c`` hold by construction.

All randomness comes from counter-based streams keyed by
(seed, station-or-edge), so regenerating with the same spec is
bit-identical and stations can be generated independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import NexicaError, ParameterError, ValidationError
from .events import EventSeries
from .ingest import (
    FREE_FLOW_KPH,
    MAX_WINDOW,
    DriveTimeMatrix,
    SpeedSeries,
    StationMeta,
    _check_slot_aligned,
    load_fields,
    write_csv,
    write_drive_times,
    write_speed_csv,
    write_station_meta,
)

_EDGE_STREAM_BASE = 1 << 32


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic multi-station event dataset."""

    n_stations: int
    n_slots: int
    p_s: float
    edges: tuple[tuple[int, int, int, float], ...] = ()
    seed: int = 0
    alpha: float = 0.25
    base_speed: float = 65.0
    start_time: str = "2024-01-01T00:00:00"

    def __post_init__(self):
        if self.n_stations < 1 or self.n_slots < 1:
            raise ParameterError("need at least one station and one slot")
        if self.n_slots > MAX_WINDOW:
            raise ParameterError(f"n_slots must be in 1..{MAX_WINDOW}, got {self.n_slots}")
        if not 0.0 <= self.p_s <= 1.0:
            raise ParameterError(f"p_s {self.p_s} outside [0, 1]")
        if not 0.0 < self.alpha < 0.5:
            raise ParameterError("alpha must be in (0, 0.5) so dips stay positive")
        try:
            _check_slot_aligned(datetime.fromisoformat(self.start_time), "start_time")
        except ValueError:
            raise ParameterError(
                f"start_time {self.start_time!r} is not an ISO 8601 timestamp"
            ) from None
        for cause, effect, lag, p_c in self.edges:
            if cause == effect:
                raise ValidationError(f"self-edge on station {cause} rejected")
            if not (0 <= cause < self.n_stations and 0 <= effect < self.n_stations):
                raise ValidationError(f"edge ({cause}, {effect}) endpoint out of range")
            if lag < 1 or lag >= self.n_slots:
                raise ValidationError(f"edge lag {lag} out of range")
            if not 0.0 <= p_c <= 1.0:
                raise ValidationError(f"edge p_c {p_c} outside [0, 1]")

    @classmethod
    def from_json(cls, path) -> "SynthSpec":
        raw = load_fields(path, cls, "spec")
        raw["edges"] = tuple(tuple(e) for e in raw.get("edges", ()))
        try:
            return cls(**raw)
        except NexicaError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    def station_id(self, index: int) -> str:
        return f"S{index:03d}"


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream_id & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate_network(spec: SynthSpec) -> tuple[list[EventSeries], list[tuple[str, str, int, float]]]:
    """Event series for every station plus the planted edge list.

    The synthetic ``events`` array doubles as the slowdown mask: directly
    generated streams have no leading-edge structure, so adjacent events
    are possible (and are exactly what the pair model assumes).
    """
    n = spec.n_stations
    events = [
        _stream(spec.seed, s).random(spec.n_slots) < spec.p_s for s in range(n)
    ]
    coins = [
        _stream(spec.seed, _EDGE_STREAM_BASE + k).random(spec.n_slots) < p_c
        for k, (_, _, _, p_c) in enumerate(spec.edges)
    ]

    # Iterate the monotone OR propagation to its least fixpoint; positive
    # lags move events strictly forward, so the loop ends on any graph.
    changed = True
    while changed:
        changed = False
        for k, (cause, effect, lag, _) in enumerate(spec.edges):
            add = events[cause][: spec.n_slots - lag] & coins[k][: spec.n_slots - lag]
            if np.any(add & ~events[effect][lag:]):
                events[effect][lag:] |= add
                changed = True

    series = [EventSeries(spec.station_id(s), events[s]) for s in range(n)]
    truth = [
        (spec.station_id(c), spec.station_id(e), lag, p_c)
        for c, e, lag, p_c in spec.edges
    ]
    return series, truth


def generate_event_pair(
    p_s: float, p_c: float, lag: int, n_slots: int, seed: int
) -> tuple[EventSeries, EventSeries]:
    """One (cause, effect) pair drawn from the two-parameter model."""
    spec = SynthSpec(
        n_stations=2, n_slots=n_slots, p_s=p_s, edges=((0, 1, lag, p_c),), seed=seed
    )
    series, _ = generate_network(spec)
    return series[0], series[1]


def render_speed_series(
    events: EventSeries, alpha: float, base_speed: float, start_time: datetime
) -> SpeedSeries:
    """Speeds whose slowdown extraction at ``alpha`` recovers the events.

    Event slots dip to ``base * (1 - 2 alpha)``, twice the detection
    threshold below the flat baseline.  Adjacent generated events merge
    into one slowdown run on re-extraction, so round trips through the
    speed representation lose a small fraction (about ``p_s`` squared per
    slot) of events.
    """
    speeds = np.full(len(events), base_speed)
    speeds[events.events] = base_speed * (1.0 - 2.0 * alpha)
    imputed = np.broadcast_to(False, len(events))  # no slot is imputed: one read-only view
    return SpeedSeries(events.station_id, start_time, speeds, imputed)


def line_geometry(spec: SynthSpec) -> tuple[list[StationMeta], DriveTimeMatrix]:
    """Stations evenly spaced along one northbound road ``SYN-1``, traffic
    flowing toward higher indices (the return drive takes 1.5x as long).

    Adjacent stations lie one free-flow minute apart, so a planted edge
    (cause, effect, lag) whose cause index exceeds its effect index by
    ``lag`` stations matches the rule-derived expected lag window.
    """
    ids = [spec.station_id(s) for s in range(spec.n_stations)]
    meta = [
        StationMeta(ids[s], "SYN-1", "N", 0.0, round(s * 0.01, 6), "Mainline")
        for s in range(spec.n_stations)
    ]
    pos = np.arange(spec.n_stations) * (FREE_FLOW_KPH / 60.0)
    gap = np.abs(pos[None, :] - pos[:, None])
    minutes = gap / FREE_FLOW_KPH * 60.0
    minutes[np.tril_indices(spec.n_stations, -1)] *= 1.5
    return meta, DriveTimeMatrix(ids, minutes)


def write_dataset(spec: SynthSpec, out_dir) -> dict[str, str]:
    """Emit a loadable synthetic corpus: speeds, metadata, drive times,
    and the planted-truth table.

    ``truth.csv`` is the authoritative label source for synthetic data;
    the one-road geometry exists so the rule-based labeler can run end to
    end on the same files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series, truth = generate_network(spec)
    start = datetime.fromisoformat(spec.start_time)
    speeds = [
        render_speed_series(es, spec.alpha, spec.base_speed, start) for es in series
    ]
    meta, matrix = line_geometry(spec)

    paths = {
        "speeds": str(out / "speeds.csv"),
        "meta": str(out / "meta.csv"),
        "drive_times": str(out / "drive_times.csv"),
        "truth": str(out / "truth.csv"),
    }
    write_speed_csv(paths["speeds"], speeds)
    write_station_meta(paths["meta"], meta)
    write_drive_times(paths["drive_times"], matrix)
    write_csv(paths["truth"], ["cause", "effect", "lag", "p_c"], (
        [c, e, lag, repr(float(p_c))] for c, e, lag, p_c in truth
    ))
    return paths
