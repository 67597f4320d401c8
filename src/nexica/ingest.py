"""Loading and validation of speed series, station metadata, and drive times;
the one CSV reader, CSV writer and JSON loader behind every file of nexica.

All input files are plain UTF-8 CSV with a header row:

* speeds:      ``station_id,timestamp_iso8601,mean_speed,imputed``
* metadata:    ``station_id,road,direction,lat,lon,type``
* drive times: header row/column of station ids, cells in minutes

Speed rows may arrive unsorted and with missing slots; series are returned
on a contiguous 5-minute grid with gaps marked ``imputed=True``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    NexicaError,
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


def read_rows(path, header_ok, parse, header_error: NexicaError):
    """Yield ``parse(row)`` for each non-blank row after the header, one row
    at a time.  Raises ``header_error`` unless ``header_ok`` accepts the first
    row (``[]`` for an empty file), a ``ParseError`` naming the file and line
    for a row that ``parse`` rejects or csv cannot split, and one naming the
    file for bytes that are not UTF-8."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if not header_ok(next(reader, None) or []):
                raise header_error
            for row in reader:
                if not row:
                    continue
                try:
                    value = parse(row)
                except (ValueError, IndexError, KeyError, NexicaError) as exc:
                    raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
                yield value
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # Decoding runs ahead of the rows in chunks, so no line is known.
            raise ParseError(f"{path}: not UTF-8 text") from exc


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_json(path):
    """The JSON value in ``path``; a ``ParseError`` naming the file if it is
    not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


# The JSON types a value of each dataclass field annotation may have: an int
# passes as a float, a bool not as an int, and a synth edge is [int, int, int, number].
_JSON_TYPES = {
    "str": (str,), "str | None": (str, type(None)), "float": (int, float),
    "int": (int,), "bool": (bool,),
}


def _json_matches(annotation: str, value) -> bool:
    if annotation == "tuple[tuple[int, int, int, float], ...]":
        return type(value) is list and all(
            type(e) is list and len(e) == 4
            and all(map(_json_matches, ("int", "int", "int", "float"), e)) for e in value
        )
    return type(value) in _JSON_TYPES[annotation]


def load_fields(path, cls, label: str) -> dict:
    """Keyword arguments for dataclass ``cls`` from the JSON object in
    ``path``; a ``ParameterError`` naming the file for any other value, an
    unknown or missing key, or a value of the wrong JSON type."""
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise ParameterError(f"{path}: {label} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ParameterError(f"{path}: unknown {label} keys: {sorted(unknown)}")
    missing = [k for k, f in fields.items() if k not in raw and f.default is dataclasses.MISSING]
    if missing:
        raise ParameterError(f"{path}: missing {label} keys: {missing}")
    for key, value in raw.items():
        if not _json_matches(fields[key].type, value):
            raise ParameterError(
                f"{path}: {label}.{key}: expected {fields[key].type}, got {value!r}"
            )
    return raw


def load_speed_csv(path) -> list[SpeedSeries]:
    """Load one or more stations' speed rows into gridded series.

    Rows are grouped by station and sorted by time; interior gaps become
    ``imputed=True`` slots whose speed is copied from the nearest
    non-imputed slot (the value is a placeholder, only the flag matters).
    """
    aware = None  # whether the file's timestamps carry a UTC offset

    def header_ok(header):
        if not header:
            raise ParseError(f"{path}: empty file")
        return [h.strip() for h in header] == SPEED_HEADER

    def parse(row):
        nonlocal aware
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise ParseError("empty station_id")
        text = row[1].strip()
        try:
            ts = datetime.fromisoformat(text)
        except ValueError:
            raise ParseError(f"bad timestamp {text!r}") from None
        _check_slot_aligned(ts)
        if aware is None:
            aware = ts.utcoffset() is not None
        elif aware != (ts.utcoffset() is not None):
            raise FormatError(f"timestamp {text!r} mixes naive and timezone-aware timestamps")
        try:
            speed = float(row[2])
        except ValueError:
            raise ParseError(f"bad speed {row[2]!r}") from None
        if not math.isfinite(speed) or speed < 0:
            raise ParseError("speed must be finite and >= 0")
        flag = row[3].strip()
        if flag not in ("0", "1"):
            raise ParseError("imputed flag must be 0 or 1")
        return sid, (ts, speed, flag == "1")

    rows: dict[str, list[tuple[datetime, float, bool]]] = {}
    header_error = ParseError(f"{path}: expected header {','.join(SPEED_HEADER)}")
    for sid, triple in read_rows(path, header_ok, parse, header_error):
        rows.setdefault(sid, []).append(triple)
    return [_grid_station(path, sid, rows[sid]) for sid in sorted(rows)]


def _grid_station(path, sid: str, triples: list[tuple[datetime, float, bool]]) -> SpeedSeries:
    from .mle import MAX_WINDOW  # imported here: mle imports this module through events

    triples.sort(key=lambda t: t[0])
    start = triples[0][0]
    span = (triples[-1][0] - start) // SLOT + 1
    if span > MAX_WINDOW:
        raise FormatError(f"{path}: station {sid}: rows span {span} slots, more than {MAX_WINDOW}")
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
    write_csv(path, SPEED_HEADER, (
        [s.station_id, s.slot_time(j).isoformat(), repr(speed), int(imputed)]
        for s in series
        for j, (speed, imputed) in enumerate(zip(s.speeds.tolist(), s.imputed.tolist()))
    ))


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
    seen = set()

    def parse(row):
        if len(row) != 6:
            raise ParseError(f"expected 6 fields, got {len(row)}")
        sid = row[0].strip()
        if sid in seen:
            raise ParseError(f"duplicate station_id {sid!r}")
        seen.add(sid)
        try:
            lat, lon = float(row[3]), float(row[4])
        except ValueError:
            raise ParseError("bad coordinates") from None
        return StationMeta(sid, row[1].strip(), row[2].strip(), lat, lon, row[5].strip())

    return list(read_rows(
        path, lambda header: [h.strip() for h in header] == META_HEADER, parse,
        ParseError(f"{path}: expected header {','.join(META_HEADER)}"),
    ))


def write_station_meta(path, meta: list[StationMeta]) -> None:
    write_csv(path, META_HEADER, (
        [m.station_id, m.road, m.direction, repr(m.latitude), repr(m.longitude), m.sensor_type]
        for m in meta
    ))


def load_drive_times(path) -> DriveTimeMatrix:
    """Load and validate the square drive-time matrix (minutes)."""
    col_ids: list[str] = []

    def header_ok(header):
        col_ids.extend(c.strip() for c in header[1:])
        return bool(header)

    def parse(row):
        if len(row) != len(col_ids) + 1:
            raise ParseError(f"expected {len(col_ids) + 1} fields, got {len(row)}")
        try:
            return row[0].strip(), [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError("non-numeric drive time") from None

    rows = list(read_rows(path, header_ok, parse, ParseError(f"{path}: empty file")))
    n = len(col_ids)
    if len(rows) != n:
        raise ValidationError(f"{path}: matrix is not square ({len(rows)} rows, {n} columns)")
    if [sid for sid, _ in rows] != col_ids:
        raise ValidationError(f"{path}: row and column station ids differ")
    return DriveTimeMatrix(col_ids, np.array([m for _, m in rows]).reshape(n, n))


def write_drive_times(path, matrix: DriveTimeMatrix) -> None:
    write_csv(path, ["", *matrix.station_ids], (
        [sid, *map(repr, row)] for sid, row in zip(matrix.station_ids, matrix.minutes.tolist())
    ))
