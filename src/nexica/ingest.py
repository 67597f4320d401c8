"""Loading and validation of speed series, station metadata, and drive times;
the one CSV reader, the CSV writers and the JSON loader behind every file of
nexica.  ``read_columns`` reads speeds, events, counts, mle and dataset
files in their writers' form, parsing spans of whole lines into columns on
every usable core, each field read from its offset in the span, and
renumbering each span's station ids in file order; ``load_speed_csv``
grids a speeds file in its writer's order a station at a time as those
spans arrive, without the columns; any other file goes through the CSV
reader.  ``write_columns`` writes large
tables a column at a time, its blocks of rows formatted on every usable core.

All input files are plain UTF-8 CSV with a header row:

* speeds:      ``station_id,timestamp_iso8601,mean_speed,imputed``
* metadata:    ``station_id,road,direction,lat,lon,type``
* drive times: header row/column of station ids, cells in minutes

Speed rows may arrive unsorted and with missing slots; series are returned
on a contiguous 5-minute grid with gaps marked ``imputed=True``, each gap
slot repeating the speed of the station's row before it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, repeat

import numpy as np

from ._slices import in_slices
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

# The longest series a loader lays out, in slots (about 160 years), and the
# largest window for which ``mle.estimate_many`` reproduces ``mle.estimate``:
# every integer it forms is below 2 * window**2 <= 2**49, so exact in float64.
# ``correspond.lagged_counts`` sums at most this many 0/1 products in float32,
# which holds every integer up to 2**24 exactly.
MAX_WINDOW = 1 << 24

# Free-flow speed that turns drive-time minutes into kilometres and back, for
# the ground-truth lag windows and the synthetic road alike.
FREE_FLOW_KPH = 100.0

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


def numbered_rows(path, header_ok, parse, header_error: NexicaError):
    """Yield ``(line, parse(row))`` for each non-blank row after the header,
    one row at a time.  Raises ``header_error`` unless ``header_ok`` accepts
    the first row (``[]`` for an empty file), a ``ParseError`` naming the
    file and line for a row that ``parse`` rejects or csv cannot split, and
    one naming the file for bytes that are not UTF-8."""
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
                yield reader.line_num, value
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # Decoding runs ahead of the rows in chunks, so no line is known.
            raise ParseError(f"{path}: not UTF-8 text") from exc


def read_rows(path, header_ok, parse, header_error: NexicaError):
    """``numbered_rows`` without the line numbers."""
    return (value for _, value in numbered_rows(path, header_ok, parse, header_error))


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it in a row of two or more fields."""
    out = io.StringIO()
    # A one-field row of "" is written as '""', and a writer with another
    # line terminator does not quote \r and \n: write two fields, drop ",\r\n".
    csv.writer(out).writerow([value, ""])
    return out.getvalue()[:-3]


_BLOCK = 1 << 13  # rows ``write_columns`` formats into one string


def write_columns(path, header: list[str], columns: list[np.ndarray]) -> None:
    """``write_csv`` of the rows of equal-length ``columns``, built one
    column at a time, ``_BLOCK`` rows at a time: a number as ``repr`` writes
    it, an object column's values CSV-quoted once per distinct value.  Each
    block becomes one string.  ``_slices.in_slices`` cuts the blocks into
    contiguous slices: this process formats the first slice and writes each
    of its blocks as it goes, and one forked child per further usable core
    formats each other slice, whose blocks are written as they arrive, in
    order.  A table of one block is written in this process.  The bytes are
    the same either way; a child that dies is a ``NexicaError`` naming the
    file."""
    quoted = [
        {v: _csv_field(v) for v in set(c.tolist())}.__getitem__ if c.dtype == object else repr
        for c in columns
    ]

    def text(start: int) -> str:
        fields = [map(q, c[start:start + _BLOCK].tolist()) for c, q in zip(columns, quoted)]
        return "\r\n".join(map(",".join, zip(*fields))) + "\r\n"

    def dead(pid: int, status: int) -> NexicaError:
        return NexicaError(f"{path}: writer {pid} exited with status {status}")

    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        in_slices(text, range(0, len(columns[0]), _BLOCK), fh.write, dead)


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


# ``read_columns`` parses spans of about this many bytes, which bounds their
# per-field arrays, and reads this far ahead at a time for a span's line end.
_CHUNK_BYTES = 1 << 18
_SEEK_BYTES = 1 << 12
# The widest ``ID`` or ``SPEED`` field a span may hold, in bytes: each is
# read as a key of up to this many bytes, and a wider one declines the span.
_WIDE = 64
_US = timedelta(microseconds=1)
_SLOT_US = SLOT // _US
_EPOCH = datetime(1970, 1, 1)
# A naive stamp has digits everywhere except at these separators.
_STAMP = np.frombuffer(b"0000-00-00T00:00:00", np.uint8)
_STAMP_DIGIT = _STAMP == ord("0")
# numpy also parses year 0, which datetime rejects.
_YEAR_1 = np.datetime64("0001-01-01T00:00:00", "s").astype(np.int64)
_TENS = 10 ** np.arange(18, dtype=np.int64)[::-1]  # 10**17 .. 10**0
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # a word's low k bytes
_BYTE = 0x0101010101010101  # times a byte: that byte in each of a word's 8


def _require(ok) -> None:
    if not ok:
        raise ValueError("not in the writer's form")


def _fields(word: np.ndarray, at: np.ndarray, size: np.ndarray, fill: bytes) -> np.ndarray:
    """Each field from its offset ``at`` as a row of little-endian words,
    enough for the widest, the bytes past its ``size`` set to ``fill``;
    ``word[i]`` is the span's 8 bytes from offset i."""
    w = int(size.max())
    _require(w <= _WIDE)
    fields = np.empty((at.size, -(-w // 8)), "<u8")
    for j in range(fields.shape[1]):
        low = _LOW[np.clip(size - 8 * j, 0, 8)]
        fields[:, j] = word[at + 8 * j] & low | np.uint64(ord(fill) * _BYTE) & ~low
    return fields


def _ints(word: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    _require(((size >= 1) & (size <= 18)).all())
    w = int(size.max())
    digits = _fields(word, at, size, b"0").view(np.uint8)[:, :w] - ord("0")
    _require((digits < 10).all())  # a byte below "0" wraps past 9
    # The digits padded with zeros read as value * 10**(w - size) < 10**18.
    return digits.astype(np.int64) @ _TENS[-w:] // _TENS[size + 17 - w]


def _flags(word: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    flag = (word[at] & 0xFF) - ord("0")
    _require((size == 1).all() and (flag < 2).all())
    return flag == 1


def _stamps(word: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    _require((size == _STAMP.size).all())
    fields = _fields(word, at, size, b"\0")  # numpy reads trailing NULs as no bytes
    chars = fields.view(np.uint8)[:, :_STAMP.size]
    _require((chars[:, _STAMP_DIGIT] - ord("0") < 10).all()
             and (chars[:, ~_STAMP_DIGIT] == _STAMP[~_STAMP_DIGIT]).all())
    seconds = fields.view(f"S{fields.itemsize * fields.shape[1]}").ravel().astype("datetime64[s]")
    seconds = seconds.astype(np.int64)
    _require((seconds >= _YEAR_1).all() and not (seconds % (SLOT_MINUTES * 60)).any())
    return seconds * 10**6


def _speeds(word: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``float`` of each field, or of each distinct field once when every
    field fits one word, as short speeds such as ``65.3`` do, which repeat.
    Fields are read padded with NULs, so a NUL within one declines the span."""
    fields = _fields(word, at, size, b"\0")
    _require(np.count_nonzero(fields.view(np.uint8)) == size.sum())
    inverse = None
    if fields.shape[1] == 1:
        _, first, inverse = np.unique(fields, return_index=True, return_inverse=True)
        fields = fields[first]
    tokens = fields.view(f"S{fields.itemsize * fields.shape[1]}").ravel().tolist()
    value = np.fromiter(map(float, tokens), np.float64, len(tokens))
    _require((np.isfinite(value) & (value >= 0)).all())
    return value if inverse is None else value[inverse.ravel()]


ID, INT, FLAG, STAMP, SPEED, SKIP = "id", _ints, _flags, _stamps, _speeds, None  # column kinds


def _read_spans(path, forms: dict[str, tuple], take) -> list[str] | None:
    """The ids of a file in its writer's form, each span of its lines handed
    to ``take(ids, columns)`` in file order as it is parsed; None for any
    other file.  ``forms`` maps each header line a file may start with to
    its column kinds; ``columns`` has an array per kind but ``SKIP``:
    ``ID``, an id of at most ``_WIDE`` bytes without surrounding whitespace,
    as an int32 code into ``ids`` (numbered by first appearance, row by row;
    ``take`` sees the ids so far); ``INT``, 1 to 18 digits, as int64;
    ``FLAG``, 0 or 1, as bool; ``STAMP``, a naive ``YYYY-MM-DDTHH:MM:SS`` of
    year 1 or later on the 5-minute grid, as int64 microseconds after 1970;
    ``SPEED``, at most ``_WIDE`` bytes that ``float`` reads as finite and
    >= 0.  Fields are unquoted UTF-8 within csv's field limit, and every
    line ends as the header does.

    The lines after the header are cut into spans of about ``_CHUNK_BYTES``
    that each end at a line end, and ``_slices.in_slices`` parses them: each
    job ``os.pread``s its own span, converts each column from its fields'
    bytes (``_parse_chunk``) and numbers its ids in a dict of its own, and
    this process renumbers each span's ids into ``ids`` in span order,
    which numbers them as one pass over the rows would, before ``take``
    sees the span.  A span that fails its checks, in this process or a
    child, makes the result None, after ``take`` has seen the spans before
    it; a child that dies is a ``NexicaError`` naming the file.  Any other
    exception, ``take``'s included, stops every child and propagates."""
    with open(path, "rb") as fh:
        first = fh.readline()
        eol = b"\r\n" if first.endswith(b"\r\n") else b"\n"
        kinds = forms.get(first[:-len(eol)].decode("latin-1")) if first.endswith(b"\n") else None
        if kinds is None:
            return None
        fd = fh.fileno()
        size, cuts = os.fstat(fd).st_size, [len(first)]
        while cuts[-1] < size:
            cuts.append(_line_end(fd, cuts[-1] + _CHUNK_BYTES - 1, size))
        kept = [kind for kind in kinds if kind is not SKIP]
        codes: dict[bytes, int] = {}
        ids: list[str] = []

        def parse(span: tuple[int, int]) -> tuple[list[bytes], list]:
            text = os.pread(fd, span[1] - span[0], span[0])
            if not text.endswith(b"\n"):  # the last line has no line end
                text += eol
            return _parse_chunk(text, kinds, len(eol) - 1)

        def renumber(result: tuple[list[bytes], list]) -> None:
            sids, parsed = result
            for sid in sids:
                if sid not in codes:
                    codes[sid] = len(ids)
                    ids.append(sid.decode())
            to_global = np.array([codes[sid] for sid in sids], np.int32)
            take(ids, [to_global[c] if kind is ID else c for kind, c in zip(kept, parsed)])

        def dead(pid: int, status: int) -> NexicaError:
            return NexicaError(f"{path}: reader {pid} exited with status {status}")

        try:
            in_slices(parse, list(zip(cuts[:-1], cuts[1:])), renumber, dead)
        except ValueError:  # UnicodeDecodeError included
            return None
    return ids


def read_columns(path, forms: dict[str, tuple]):
    """``(ids, columns)`` of a file in its writer's form (``_read_spans``,
    which gives the forms, kinds and columns), all its rows at once; None
    for any other file or one without rows.  Row k is on line k + 2.  The
    rows are counted when the first span arrives (``_row_count``), and
    each span's columns are copied into columns of that many rows as it
    arrives, so that no span's arrays outlive their copy and the peak
    memory is the columns and a span or two, however the allocator places
    them."""
    columns: list[np.ndarray] = []
    done = 0

    def take(ids: list[str], parsed: list) -> None:
        nonlocal done
        if not columns:
            rows = _row_count(path)  # once, not once per column
            columns.extend(np.empty(rows, c.dtype) for c in parsed)
        for c, column in zip(parsed, columns):
            column[done:done + len(c)] = c
        done += len(parsed[0])

    ids = _read_spans(path, forms, take)
    if ids is None or not columns or done != len(columns[0]):
        return None
    return ids, columns


def _row_count(path) -> int:
    """The lines of ``path`` after its first, the last counted whether or
    not it ends."""
    with open(path, "rb") as fh:
        fh.readline()
        lines, last = 0, b"\n"
        while block := fh.read(_CHUNK_BYTES):
            lines, last = lines + block.count(b"\n"), block[-1:]
    return lines + (last != b"\n")


def _line_end(fd: int, at: int, size: int) -> int:
    """The offset after the first line end at or after ``at`` in the first
    ``size`` bytes of ``fd``, else ``size``."""
    for at in range(at, size, _SEEK_BYTES):
        nl = os.pread(fd, _SEEK_BYTES, at).find(b"\n")
        if nl >= 0:
            return min(at + nl + 1, size)
    return size


def _parse_chunk(text: bytes, kinds: tuple, cr: int) -> tuple[list[bytes], list]:
    """The ids and columns of ``text``, whole lines of one field per kind,
    each ending in CRLF if ``cr`` else LF; a ValueError unless every field
    is of its kind.  An ``ID`` column holds codes into the ids, which are
    numbered by first appearance, row by row.

    One pass over the separators checks the layout and gives each field's
    offset and size, and each kind converts its column straight from the
    bytes there, read as 8-byte words: ``INT`` from its digits to int64,
    ``FLAG`` from one byte, ``STAMP`` through numpy's ``datetime64[s]``,
    ``SPEED`` by ``float`` (once per distinct field when all fit one word),
    and ``ID`` by one dict lookup per run of equal ids in its column.  No
    other field becomes a Python object."""
    width = len(kinds)
    raw = np.frombuffer(text, np.uint8)
    seps = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    n, ends, lf = seps.size // width, seps[width - 1::width], raw[seps] == ord("\n")
    _require(b'"' not in text and seps.size == width * n and lf[width - 1::width].all()
             and np.count_nonzero(lf) == n and np.count_nonzero(raw == ord("\r")) == cr * n
             and (not cr or (raw[ends - 1] == ord("\r")).all()))
    at = np.concatenate(([0], seps[:-1] + 1)).reshape(n, width)
    size = seps.reshape(n, width) - at
    size[:, -1] -= cr
    _require((size < csv.field_size_limit()).all())
    text.decode()
    # word[i]: the 8 bytes from offset i, for every i a field of _WIDE bytes reads.
    word = np.ndarray(len(text) + _WIDE - 7, "<u8", text + bytes(_WIDE), strides=(1,))

    # Each run of equal ids in a column has its id looked up once, at its
    # first row, row by row across the id columns.
    id_at = [k for k, kind in enumerate(kinds) if kind is ID]
    new = np.ones((n, len(id_at)), bool)  # the fields that start a run
    for j, k in enumerate(id_at):  # commas, which no field holds, pad ids apart
        keys = _fields(word, at[:, k], size[:, k], b",")
        new[1:, j] = (keys[1:] != keys[:-1]).any(axis=1)
    codes: dict[bytes, int] = {}
    code = np.fromiter((codes.setdefault(text[a:a + z], len(codes)) for a, z in zip(
        at[:, id_at][new].tolist(), size[:, id_at][new].tolist())), np.int32, np.count_nonzero(new))
    for name in map(bytes.decode, codes):
        _require(name and name == name.strip())
    run = np.where(new, np.cumsum(new).reshape(new.shape) - 1, 0)  # each field's run
    code = iter(code[np.maximum.accumulate(run, axis=0)].T)
    return list(codes), [
        next(code) if kind is ID else kind(word, at[:, k], size[:, k])
        for k, kind in enumerate(kinds) if kind is not SKIP
    ]


_SPEED_FORMS = {",".join(SPEED_HEADER): (ID, STAMP, SPEED, FLAG)}


def load_speed_csv(path) -> list[SpeedSeries]:
    """Load one or more stations' speed rows into gridded series.

    Rows are grouped by station and sorted by time; interior gaps become
    ``imputed=True`` slots that repeat the speed of the row before them
    (the value is a placeholder, only the flag matters).  A valid file in
    ``write_speed_csv``'s form and order (stations contiguous and in id
    order, each in time order) is gridded a station at a time as its spans
    arrive (``_Stations``), so that no column of all the rows is built.  A
    file in that form but out of that order stops streaming at its first
    span out of order, then is read again into columns (``read_columns``)
    and sorted (``_grid_stations``).  Any other file,
    valid or not, goes through the per-row parser, which gives the same
    series and is the one place that names the line of a bad row.
    """
    stations = _Stations(path)
    try:
        ids = _read_spans(path, _SPEED_FORMS, stations.take)
        if ids is not None:
            return stations.finish(ids)
    except _OutOfOrder:
        ids = []  # in the writer's form: read again below
    del stations  # no series gridded so far outlives the streaming attempt
    table = None if ids is None else read_columns(path, _SPEED_FORMS)
    if table is None:
        return _grid_stations(path, *_speed_rows(path))
    ids, (code, micros, speed, imputed) = table
    return _grid_stations(
        path, ids, code, micros, speed, imputed, lambda k: _EPOCH + int(micros[k]) * _US, lambda k: k + 2
    )


class _OutOfOrder(Exception):
    """A speeds file in the writer's form but not in writer order.  Not a
    ``ValueError``, which ``_read_spans`` takes for an unreadable span: it
    ends the span loop, and ``in_slices`` kills the children still
    parsing."""


class _Stations:
    """The ``_read_spans`` consumer that grids each station of a speeds file
    in writer order as its rows arrive.  It holds the rows of one station
    until the next one starts, then grids them (``_grid_station``).  The
    first grid fault is kept for ``finish`` to raise, after the last span
    has parsed, and no later station is gridded.  A span in which a station
    starts out of id order or again, or a row goes back in time, raises
    ``_OutOfOrder``."""

    def __init__(self, path):
        self.path, self.series, self.fault = path, [], None
        self.code, self.micros = -1, 0  # the current station and its last stamp
        self.start, self.rows = 0, 0  # the rows before the current station, before the next span
        self.held: list[tuple] = []  # the current station's (micros, speed, imputed) pieces

    def take(self, ids: list[str], columns: list) -> None:
        code, micros, speed, imputed = columns
        step = np.diff(code, prepend=self.code)  # 1 where a station starts, else 0
        starts = np.flatnonzero(step).tolist()
        if not (((step == 0) | (step == 1)).all()
                and all(ids[k - 1] < ids[k] for k in code[starts].tolist() if k)
                and (np.diff(micros, prepend=self.micros)[step == 0] >= 0).all()):
            raise _OutOfOrder
        bounds = [0, *starts, len(code)]
        for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            if k:  # a station starts at row a
                self._grid(ids)
                self.code, self.start = int(code[a]), self.rows + a
            if self.fault is None and a < b:
                self.held.append((micros[a:b], speed[a:b], imputed[a:b]))
        self.micros, self.rows = int(micros[-1]), self.rows + len(code)

    def _grid(self, ids: list[str]) -> None:
        """Grid the held rows, unless a station before them failed."""
        if self.fault is None and self.held:
            micros, speed, imputed = map(np.concatenate, zip(*self.held))
            try:
                self.series.append(_grid_station(
                    self.path, ids[self.code], micros, speed, imputed,
                    lambda j: _EPOCH + int(micros[j]) * _US, lambda j: self.start + j + 2,
                ))
            except NexicaError as exc:
                self.fault = exc
        self.held = []

    def finish(self, ids: list[str]) -> list[SpeedSeries]:
        """The series, once the last span has been taken; the first fault
        raises."""
        self._grid(ids)
        if self.fault is not None:
            raise self.fault
        return self.series


def _speed_rows(path) -> tuple:
    """The arguments of ``_grid_stations`` after the path for any speeds
    file, parsed one csv row at a time; a ``ParseError`` or ``FormatError``
    naming the file and line of the first row that is not a valid speed row."""
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
        return sid, ts, speed, flag == "1"

    codes: dict[str, int] = {}
    code, stamps, speeds, imputed, lines = [], [], [], [], []
    header_error = ParseError(f"{path}: expected header {','.join(SPEED_HEADER)}")
    for line, (sid, ts, speed, imp) in numbered_rows(path, header_ok, parse, header_error):
        code.append(codes.setdefault(sid, len(codes)))
        stamps.append(ts)
        speeds.append(speed)
        imputed.append(imp)
        lines.append(line)
    epoch = _EPOCH.replace(tzinfo=timezone.utc) if aware else _EPOCH
    return (
        list(codes), np.array(code, np.int32),
        np.array([(ts - epoch) // _US for ts in stamps], np.int64),
        np.array(speeds, np.float64), np.array(imputed, bool),
        stamps.__getitem__, lines.__getitem__,
    )


def _grid_stations(path, ids, code, micros, speed, imputed, stamp, line) -> list[SpeedSeries]:
    """Every station's rows on its own 5-minute grid, in station id order,
    by one stable sort on (station, time) and then ``_grid_station`` on each
    station's slice of the sorted rows.  Row k is station ``ids[code[k]]``
    at ``micros[k]`` microseconds after 1970-01-01 (UTC for timezone-aware
    stamps), ``stamp(k)`` is its timestamp and ``line(k)`` its line.  Rows
    already in that order, as ``write_speed_csv`` writes them, are not
    sorted.  The first station in id order with a fault raises."""
    if not ids:
        return []
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), np.int32)
    rank[by_id] = np.arange(len(ids))
    station = rank[code]
    row = int  # the input row of sorted row k
    same = station[1:] == station[:-1]
    if not ((station[1:] > station[:-1]) | (same & (micros[1:] >= micros[:-1]))).all():
        order = np.lexsort((micros, station))
        station, micros = station[order], micros[order]
        speed, imputed = speed[order], imputed[order]
        row = order.__getitem__
    del same
    ends = np.cumsum(np.bincount(station, minlength=len(ids))).tolist()
    del station  # the per-station pass holds no array over all rows but the sort
    return [
        _grid_station(path, ids[i], micros[start:end], speed[start:end], imputed[start:end],
                      lambda j: stamp(row(start + j)), lambda j: line(row(start + j)))
        for i, start, end in zip(by_id, [0] + ends[:-1], ends)
    ]


def _grid_station(path, sid, micros, speed, imputed, stamp, line) -> SpeedSeries:
    """The rows of station ``sid``, in time order, on its own 5-minute grid:
    row j is at ``micros[j]`` microseconds after 1970-01-01, ``stamp(j)`` is
    its timestamp and ``line(j)`` its line.  Raises for rows spanning more
    than ``MAX_WINDOW`` slots, before any allocation; else for a stamp off
    the grid of the first; else for the second of two rows in one slot."""
    first = micros[0]
    span = (micros[-1] - first) // _SLOT_US + 1
    if span > MAX_WINDOW:
        raise FormatError(f"{path}: station {sid}: rows span {span} slots, more than {MAX_WINDOW}")
    # Whole seconds after the station's first row, as int(total_seconds())
    # of their timedelta: below the span bound (under 2**34 s) its float
    # quotient never rounds a microsecond fraction up to the next second.
    slot, rem = np.divmod((micros - first) // 10**6, SLOT_MINUTES * 60)
    off_grid = np.flatnonzero(rem)
    if off_grid.size:
        j = off_grid[0]
        raise FormatError(
            f"{path}: line {line(j)}: station {sid}: timestamp {stamp(j).isoformat()} "
            f"not on the 5-minute grid anchored at {stamp(0).isoformat()}"
        )
    repeated = np.flatnonzero(slot[1:] == slot[:-1])
    if repeated.size:
        j = 1 + repeated[0]
        raise ConsistencyError(
            f"{path}: line {line(j)}: station {sid}: duplicate slot at {stamp(j).isoformat()}"
        )
    # Each row takes its own slot and repeats its speed over the gap up to
    # the station's next row (a placeholder, only the flag matters).
    grid_imputed = np.ones(slot[-1] + 1, bool)
    grid_imputed[slot] = imputed
    grid_speed = np.repeat(speed, np.diff(slot, append=slot[-1] + 1))
    return SpeedSeries(sid, stamp(0), grid_speed, grid_imputed)


def _slot_stamps(s: SpeedSeries) -> list[str]:
    """``s.slot_time(j).isoformat()`` for every slot j, column-wise for a
    naive start time."""
    if s.start_time.tzinfo is not None or not len(s):
        return [s.slot_time(j).isoformat() for j in range(len(s))]
    times = np.datetime64(s.start_time, "s") + np.arange(len(s)) * np.timedelta64(SLOT_MINUTES, "m")
    return np.datetime_as_string(times, unit="s").tolist()


def write_speed_csv(path, series: list[SpeedSeries]) -> None:
    """Write series back to the speed CSV schema, one row per slot.  A
    series whose last slot falls after year 9999 raises before the file
    is opened."""
    for s in series:
        if len(s):
            try:
                s.slot_time(len(s) - 1)
            except OverflowError:
                raise FormatError(
                    f"station {s.station_id}: {len(s)} slots from "
                    f"{s.start_time.isoformat()} run past year 9999"
                ) from None
    write_csv(path, SPEED_HEADER, chain.from_iterable(
        zip(repeat(s.station_id), _slot_stamps(s), map(repr, s.speeds.tolist()),
            s.imputed.astype(np.uint8).tolist())
        for s in series
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
    """Station metadata in station-id order, the order of every loader."""
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

    return sorted(read_rows(
        path, lambda header: [h.strip() for h in header] == META_HEADER, parse,
        ParseError(f"{path}: expected header {','.join(META_HEADER)}"),
    ), key=lambda m: m.station_id)


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
            minutes = [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError("non-numeric drive time") from None
        for m in minutes:
            if not 0 <= m < math.inf:
                raise ParseError(f"drive time {m!r} is not finite and >= 0")
        return row[0].strip(), minutes

    rows = list(read_rows(path, header_ok, parse, ParseError(f"{path}: empty file")))
    n = len(col_ids)
    if len(rows) != n:
        raise ValidationError(f"{path}: matrix is not square ({len(rows)} rows, {n} columns)")
    if [sid for sid, _ in rows] != col_ids:
        raise ValidationError(f"{path}: row and column station ids differ")
    try:
        return DriveTimeMatrix(col_ids, np.array([m for _, m in rows]).reshape(n, n))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def write_drive_times(path, matrix: DriveTimeMatrix) -> None:
    write_csv(path, ["", *matrix.station_ids], (
        [sid, *map(repr, row)] for sid, row in zip(matrix.station_ids, matrix.minutes.tolist())
    ))
