"""Loading and validation of speed series, station metadata, and drive times.

All files are plain CSV with a header row:

* speeds:      ``station_id,timestamp_iso8601,mean_speed,imputed``
* metadata:    ``station_id,road,direction,lat,lon,type``
* drive times: header row/column of station ids, cells in minutes

Speed rows may arrive unsorted and with missing slots; series are returned
on a contiguous 5-minute grid with gaps marked ``imputed=True``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    ParameterError,
    ParseError,
    ValidationError,
)

SLOT_MINUTES = 5
SLOT = timedelta(minutes=SLOT_MINUTES)

DIRECTIONS = ("N", "S", "E", "W")

SPEED_HEADER = ["station_id", "timestamp_iso8601", "mean_speed", "imputed"]
META_HEADER = ["station_id", "road", "direction", "lat", "lon", "type"]


@dataclass(frozen=True)
class StationMeta:
    """Static description of one road sensor."""

    station_id: str
    road: str
    direction: str
    latitude: float
    longitude: float
    sensor_type: str = ""

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValidationError(
                f"station {self.station_id}: direction {self.direction!r} "
                f"not one of {DIRECTIONS}"
            )


@dataclass(eq=False)
class SpeedSeries:
    """Mean speeds for one station on a contiguous 5-minute grid.

    ``imputed[j]`` is True for slots whose value was filled in, either by
    the upstream provider or by this loader when a row was missing.
    """

    station_id: str
    start_time: datetime
    speeds: np.ndarray
    imputed: np.ndarray

    def __post_init__(self):
        self.speeds = np.asarray(self.speeds, dtype=np.float64)
        self.imputed = np.asarray(self.imputed, dtype=bool)
        if self.speeds.shape != self.imputed.shape or self.speeds.ndim != 1:
            raise ValidationError(
                f"station {self.station_id}: speeds and imputed flags must be "
                f"1-D and equal length"
            )
        if self.speeds.size and np.nanmin(self.speeds) < 0:
            raise ValidationError(f"station {self.station_id}: negative speed")
        _check_slot_aligned(self.start_time, context=f"station {self.station_id}")

    def __len__(self) -> int:
        return self.speeds.size

    def slot_time(self, j: int) -> datetime:
        return self.start_time + j * SLOT


@dataclass(eq=False)
class DriveTimeMatrix:
    """Free-flow drive times in minutes between every ordered station pair."""

    station_ids: list[str]
    minutes: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.minutes = np.asarray(self.minutes, dtype=np.float64)
        n = len(self.station_ids)
        if len(set(self.station_ids)) != n:
            raise ValidationError("duplicate station id in drive-time matrix")
        if self.minutes.shape != (n, n):
            raise ValidationError(
                f"drive-time matrix shape {self.minutes.shape} does not match "
                f"{n} station ids"
            )
        if not np.all(np.isfinite(self.minutes)):
            raise ValidationError("drive-time matrix contains non-finite entries")
        if np.any(self.minutes < 0):
            raise ValidationError("drive-time matrix contains negative entries")
        diag = np.diagonal(self.minutes)
        if np.any(diag != 0):
            bad = int(np.flatnonzero(diag != 0)[0])
            raise ValidationError(
                f"drive-time matrix diagonal must be zero "
                f"(station {self.station_ids[bad]} has {diag[bad]})"
            )
        self._index = {sid: k for k, sid in enumerate(self.station_ids)}

    def index(self, station_id: str) -> int:
        try:
            return self._index[station_id]
        except KeyError:
            raise ConsistencyError(f"station {station_id} not in drive-time matrix")

    def get(self, from_id: str, to_id: str) -> float:
        return float(self.minutes[self.index(from_id), self.index(to_id)])

    def __contains__(self, station_id: str) -> bool:
        return station_id in self._index


def _check_slot_aligned(ts: datetime, context: str = "") -> None:
    if ts.minute % SLOT_MINUTES or ts.second or ts.microsecond:
        where = f" ({context})" if context else ""
        raise FormatError(f"timestamp {ts.isoformat()} not on a 5-minute boundary{where}")


def _parse_timestamp(text: str, line: int) -> datetime:
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"line {line}: bad timestamp {text!r}")
    try:
        _check_slot_aligned(ts)
    except FormatError as exc:
        raise FormatError(f"line {line}: {exc}")
    return ts


def load_speed_csv(path) -> list[SpeedSeries]:
    """Load one or more stations' speed rows into gridded series.

    Rows are grouped by station and sorted by time; interior gaps become
    ``imputed=True`` slots whose speed is copied from the nearest
    non-imputed slot (the value is a placeholder, only the flag matters).
    """
    rows: dict[str, list[tuple[datetime, float, bool]]] = {}
    aware = None  # whether the file's timestamps carry a UTC offset
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if [h.strip() for h in header] != SPEED_HEADER:
            raise ParseError(f"{path}: expected header {','.join(SPEED_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"line {line}: expected 4 fields, got {len(row)}")
            sid = row[0].strip()
            if not sid:
                raise ParseError(f"line {line}: empty station_id")
            ts = _parse_timestamp(row[1].strip(), line)
            if aware is None:
                aware = ts.utcoffset() is not None
            elif aware != (ts.utcoffset() is not None):
                raise FormatError(
                    f"line {line}: timestamp {row[1].strip()!r} mixes naive and "
                    "timezone-aware timestamps in one file"
                )
            try:
                speed = float(row[2])
            except ValueError:
                raise ParseError(f"line {line}: bad speed {row[2]!r}")
            if not math.isfinite(speed) or speed < 0:
                raise ParseError(f"line {line}: speed must be finite and >= 0")
            flag = row[3].strip()
            if flag not in ("0", "1"):
                raise ParseError(f"line {line}: imputed flag must be 0 or 1")
            rows.setdefault(sid, []).append((ts, speed, flag == "1"))

    out = []
    for sid in sorted(rows):
        out.append(_grid_station(sid, rows[sid]))
    return out


def _grid_station(sid: str, triples: list[tuple[datetime, float, bool]]) -> SpeedSeries:
    triples.sort(key=lambda t: t[0])
    start = triples[0][0]
    offsets = []
    for ts, _, _ in triples:
        delta = ts - start
        slots, rem = divmod(int(delta.total_seconds()), SLOT_MINUTES * 60)
        if rem:
            raise FormatError(
                f"station {sid}: timestamp {ts.isoformat()} not on the 5-minute "
                f"grid anchored at {start.isoformat()}"
            )
        offsets.append(slots)
    m = offsets[-1] + 1
    speeds = np.zeros(m)
    imputed = np.ones(m, dtype=bool)
    filled = np.zeros(m, dtype=bool)
    for k, (ts, speed, imp) in enumerate(triples):
        j = offsets[k]
        if filled[j]:
            raise ConsistencyError(f"station {sid}: duplicate slot at {ts.isoformat()}")
        filled[j] = True
        speeds[j] = speed
        imputed[j] = imp

    gaps = np.flatnonzero(~filled)
    if gaps.size:
        # Placeholder values come from the nearest non-imputed slot when one
        # exists, otherwise the nearest loaded row (ties prefer the earlier).
        source = np.flatnonzero(filled & ~imputed)
        if source.size == 0:
            source = np.flatnonzero(filled)
        pos = np.searchsorted(source, gaps)
        left = source[np.clip(pos - 1, 0, source.size - 1)]
        right = source[np.clip(pos, 0, source.size - 1)]
        nearest = np.where(gaps - left <= right - gaps, left, right)
        speeds[gaps] = speeds[nearest]
    return SpeedSeries(sid, start, speeds, imputed)


def write_speed_csv(path, series: list[SpeedSeries]) -> None:
    """Write series back to the speed CSV schema, one row per slot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPEED_HEADER)
        for s in series:
            for j in range(len(s)):
                writer.writerow(
                    [
                        s.station_id,
                        s.slot_time(j).isoformat(),
                        repr(float(s.speeds[j])),
                        int(bool(s.imputed[j])),
                    ]
                )


def completeness(series: SpeedSeries) -> float:
    """Fraction of slots whose value came from a real measurement."""
    if len(series) == 0:
        raise DomainError(f"station {series.station_id}: empty series")
    return float(np.count_nonzero(~series.imputed)) / len(series)


def filter_stations(
    series: list[SpeedSeries],
    meta: list[StationMeta],
    min_completeness: float,
) -> tuple[list[SpeedSeries], list[StationMeta]]:
    """Keep stations whose completeness is at least the threshold.

    Series and metadata stay consistent: the returned metadata covers
    exactly the retained stations.
    """
    if not 0.0 <= min_completeness <= 1.0:
        raise ParameterError(f"min_completeness {min_completeness} outside [0, 1]")
    meta_by_id = {m.station_id: m for m in meta}
    kept_series = []
    kept_ids = set()
    for s in series:
        if s.station_id not in meta_by_id:
            raise ConsistencyError(f"station {s.station_id} has no metadata")
        if completeness(s) >= min_completeness:
            kept_series.append(s)
            kept_ids.add(s.station_id)
    kept_meta = [m for m in meta if m.station_id in kept_ids]
    return kept_series, kept_meta


def load_station_meta(path) -> list[StationMeta]:
    out = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != META_HEADER:
            raise ParseError(f"{path}: expected header {','.join(META_HEADER)}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(f"line {line}: expected 6 fields, got {len(row)}")
            sid = row[0].strip()
            if sid in seen:
                raise ParseError(f"line {line}: duplicate station_id {sid!r}")
            seen.add(sid)
            try:
                lat, lon = float(row[3]), float(row[4])
            except ValueError:
                raise ParseError(f"line {line}: bad coordinates")
            try:
                out.append(
                    StationMeta(sid, row[1].strip(), row[2].strip(), lat, lon, row[5].strip())
                )
            except ValidationError as exc:
                raise ParseError(f"line {line}: {exc}")
    return out


def write_station_meta(path, meta: list[StationMeta]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(META_HEADER)
        for m in meta:
            writer.writerow(
                [m.station_id, m.road, m.direction, repr(m.latitude), repr(m.longitude), m.sensor_type]
            )


def load_drive_times(path) -> DriveTimeMatrix:
    """Load and validate the square drive-time matrix (minutes)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{path}: empty file")
    col_ids = [c.strip() for c in rows[0][1:]]
    n = len(col_ids)
    if len(rows) - 1 != n:
        raise ValidationError(
            f"{path}: matrix is not square ({len(rows) - 1} rows, {n} columns)"
        )
    row_ids = []
    minutes = np.empty((n, n))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise ValidationError(f"line {i}: expected {n + 1} fields, got {len(row)}")
        row_ids.append(row[0].strip())
        try:
            minutes[i - 2] = [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError(f"line {i}: non-numeric drive time")
    if row_ids != col_ids:
        raise ValidationError(f"{path}: row and column station ids differ")
    return DriveTimeMatrix(row_ids, minutes)


def write_drive_times(path, matrix: DriveTimeMatrix) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(matrix.station_ids))
        for i, sid in enumerate(matrix.station_ids):
            writer.writerow([sid] + [repr(float(v)) for v in matrix.minutes[i]])
