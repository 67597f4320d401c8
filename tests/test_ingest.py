import csv
import os
import re
import tracemalloc
from contextlib import nullcontext
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica import ingest
from nexica.errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    NexicaError,
    ParameterError,
    ParseError,
    ValidationError,
)
from nexica.ingest import (
    SLOT,
    SPEED_HEADER,
    DriveTimeMatrix,
    SpeedSeries,
    StationMeta,
    completeness,
    filter_stations,
    load_drive_times,
    load_speed_csv,
    load_station_meta,
    write_drive_times,
    write_speed_csv,
    write_station_meta,
)
from nexica.synth import SynthSpec, line_geometry
from oracles import load_speed_csv_reference, write_speed_csv_reference

T0 = datetime(2024, 1, 1, 0, 0)


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "timestamp_iso8601", "mean_speed", "imputed"])
        w.writerows(rows)


def test_three_rows_one_station(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
        ["a", "2024-01-01T00:05:00", "64.0", "0"],
        ["a", "2024-01-01T00:10:00", "63.0", "0"],
    ])
    series = load_speed_csv(path)
    assert len(series) == 1
    s = series[0]
    assert len(s) == 3
    assert s.start_time == T0
    assert list(s.speeds) == [65.0, 64.0, 63.0]
    assert not s.imputed.any()


# Each gap slot repeats the speed of the station's row before it, even when
# that row is imputed and a measured row lies nearer after the gap.
@pytest.mark.parametrize("rows, speeds, imputed", [
    ([(0, "65.0", "0"), (2, "60.0", "0")], [65, 65, 60], [False, True, False]),
    ([(0, "65.0", "0"), (2, "50.0", "1"), (5, "60.0", "0")],
     [65, 65, 50, 50, 50, 60], [False, True, True, True, True, False]),
], ids=["one-slot", "after-an-imputed-row"])
def test_gap_becomes_imputed_slot(tmp_path, rows, speeds, imputed):
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", (T0 + j * SLOT).isoformat(), speed, flag] for j, speed, flag in rows
    ])
    s = load_speed_csv(path)[0]
    assert list(s.speeds) == speeds
    assert list(s.imputed) == imputed


def test_unsorted_rows_are_sorted(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:05:00", "64.0", "0"],
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
    ])
    s = load_speed_csv(path)[0]
    assert list(s.speeds) == [65.0, 64.0]


def test_six_months_slot_count(tmp_path):
    # 2024-01-01 through 2024-06-30 is 182 days of 288 slots
    path = tmp_path / "s.csv"
    n = 182 * 288
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["station_id", "timestamp_iso8601", "mean_speed", "imputed"])
        ts = T0
        for _ in range(n):
            w.writerow(["a", ts.isoformat(), "65.0", "0"])
            ts += timedelta(minutes=5)
        assert ts == datetime(2024, 7, 1, 0, 0)
    s = load_speed_csv(path)[0]
    assert len(s) == 52416


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
        ["a", "2024-01-01T00:05:00", "not-a-number", "0"],
    ])
    with pytest.raises(ParseError, match="line 3"):
        load_speed_csv(path)


def test_mixed_naive_and_aware_timestamps_rejected(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
        ["a", "2024-01-01T00:05:00+00:00", "64.0", "0"],
    ])
    with pytest.raises(FormatError, match="line 3"):
        load_speed_csv(path)
    write_rows(path, [
        ["a", "2024-01-01T00:00:00+00:00", "65.0", "0"],
        ["b", "2024-01-01T00:00:00-08:00", "64.0", "0"],
    ])
    assert [s.start_time.utcoffset() for s in load_speed_csv(path)] == [
        timedelta(0), timedelta(hours=-8)
    ]


def test_off_grid_timestamp_rejected(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [["a", "2024-01-01T00:02:00", "65.0", "0"]])
    with pytest.raises(FormatError, match="line 2"):
        load_speed_csv(path)


def test_duplicate_slot_rejected(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
        ["a", "2024-01-01T00:00:00", "64.0", "0"],
    ])
    message = f"{path}: line 3: station a: duplicate slot at 2024-01-01T00:00:00"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        load_speed_csv(path)


@pytest.mark.parametrize("layout", ["blank-line", "quoted-id"])
def test_duplicate_slot_names_the_line_outside_the_writer_form(tmp_path, layout):
    path = tmp_path / "s.csv"
    rows = [
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
        ["a", "2024-01-01T00:05:00", "63.0", "0"],
        ["a", "2024-01-01T00:00:00", "64.0", "0"],
    ]
    if layout == "blank-line":
        rows.insert(1, [])
    write_rows(path, rows)
    if layout == "quoted-id":
        path.write_text(path.read_text().replace("\na,", '\n"a",', 1))
    line = 5 if layout == "blank-line" else 4
    message = f"{path}: line {line}: station a: duplicate slot at 2024-01-01T00:00:00"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        load_speed_csv(path)


def test_span_beyond_max_window_rejected_before_gridding(tmp_path):
    # about 1.05e9 slots: the grid would take over 10 GB
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "0001-01-01T00:00:00", "65.0", "0"],
        ["a", "9999-12-31T00:00:00", "64.0", "0"],
    ])
    message = f"{path}: station a: rows span 1051792705 slots"
    with pytest.raises(FormatError, match=re.escape(message)):
        load_speed_csv(path)


_LONG = ["0001-01-01T00:00:00", "9999-12-31T00:00:00"]  # rows spanning 1,051,792,705 slots


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([["b", "2024-01-01T00:00:00"], ["b", "2024-01-01T00:00:00"]]
         + [["a", t] for t in _LONG],
         FormatError, "station a: rows span 1051792705 slots, more than 16777216"),
        ([["b", t] for t in _LONG]
         + [["a", "2024-01-01T00:00:00"], ["a", "2024-01-01T00:00:00"]],
         ConsistencyError, "line 5: station a: duplicate slot at 2024-01-01T00:00:00"),
        ([["a", "2024-01-01T00:00:00+00:00"], ["a", "2024-01-01T00:00:00+00:00"],
          ["a", "2024-01-01T00:05:00+00:02:30"]],
         FormatError, "line 4: station a: timestamp 2024-01-01T00:05:00+00:02:30 not on the "
                      "5-minute grid anchored at 2024-01-01T00:00:00+00:00"),
        ([["a", "0001-01-01T00:00:00"], ["a", "0001-01-01T00:00:00"], ["a", _LONG[1]]],
         FormatError, "station a: rows span 1051792705 slots, more than 16777216"),
    ],
    ids=["span-in-a-beats-earlier-duplicate-in-b", "duplicate-in-a-beats-span-in-b",
         "off-grid-beats-earlier-duplicate", "span-beats-duplicate"],
)
def test_first_station_in_id_order_raises_its_first_fault(tmp_path, rows, error, message):
    """Across stations the first in id order with a fault raises, whatever
    the row order; within one, a span over ``MAX_WINDOW`` comes before an
    off-grid stamp, and that before a duplicate slot."""
    path = tmp_path / "s.csv"
    write_rows(path, [[sid, stamp, "65.0", "0"] for sid, stamp in rows])
    with pytest.raises(error, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_speed_csv(path)


@pytest.mark.parametrize("gap", [1, 3], ids=["no-gaps", "gaps"])
def test_gridding_holds_no_row_sized_temporaries(gap):
    """``_grid_stations`` of rows already in (station, time) order peaks at
    no more than 8 bytes a row above the series it returns."""
    n_stations, per_station = 40, 2_500  # 100,000 rows
    ids = [f"S{k:03d}" for k in range(n_stations)]
    code = np.repeat(np.arange(n_stations, dtype=np.int32), per_station)
    slots = np.tile(np.arange(per_station) * gap, n_stations)
    slots[1::7] += gap - 1  # uneven gaps
    micros = int((T0 - datetime(1970, 1, 1)) / timedelta(microseconds=1)) + slots * 300 * 10**6
    speed = np.random.default_rng(0).uniform(30, 70, code.size)
    imputed = np.zeros(code.size, bool)

    def grid():
        return ingest._grid_stations(
            "s.csv", ids, code, micros, speed, imputed,
            lambda k: datetime(1970, 1, 1) + int(micros[k]) * timedelta(microseconds=1),
            lambda k: k + 2,
        )

    grid()  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        series = grid()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s) for s in series] == [int(slots[per_station - 1]) + 1] * n_stations
    assert (peak - held) / code.size <= 8


def test_negative_speed_rejected(tmp_path):
    path = tmp_path / "s.csv"
    write_rows(path, [["a", "2024-01-01T00:00:00", "-1.0", "0"]])
    with pytest.raises(ParseError, match="line 2"):
        load_speed_csv(path)


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    series = [
        SpeedSeries(
            f"s{k}", T0,
            np.round(rng.uniform(0, 80, 50), 7),
            rng.random(50) < 0.2,
        )
        for k in range(3)
    ]
    path = tmp_path / "out.csv"
    write_speed_csv(path, series)
    back = load_speed_csv(path)
    for a, b in zip(series, back):
        assert a.station_id == b.station_id
        assert a.start_time == b.start_time
        # imputed slots may get their placeholder value rewritten on load,
        # but measured content survives exactly
        measured = ~a.imputed
        assert np.array_equal(a.speeds[measured], b.speeds[measured])
        assert np.array_equal(a.imputed, b.imputed)
    path2 = tmp_path / "again.csv"
    write_speed_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()


# Speeds files for the loader equivalence test.  Clean files are what
# write_speed_csv writes (interleaved, unsorted stations with gaps); the
# others leave that form in one or more fields or in their layout.  The ids
# differ in byte width (two past 8 bytes that share their first 8, one of
# 2-byte UTF-8, one holding a NUL, one of the 64 bytes the column path reads
# at most), a file may hold one id throughout or a new id on every row, and
# its slots may start on the eve of a leap day.
VALID_IDS = ["a", "b", "S000", "\u00e9", "a\x00", "S0000000000001", "S0000000000002", "w" * 64]
ODD_IDS = [" a", "a ", '"a"', '"a,b"', "", "a\rb", "x" * 65]
ODD_STAMPS = [
    "2024-01-01T00:00:30", "2024-01-01T00:02:00", "2024-01-01 00:10:00", " 2024-01-01T00:15:00",
    "2024-01-01T00:20", "2024-01-01T24:00:00", "0000-01-01T00:00:00", "-001-01-01T00:00:00",
    "now", "2024-02-30T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:55:00",
    "2024-01-01T00:00:00+00:00", "0001-01-01T00:00:00+05:00",
    "2000-02-29T00:00:00", "1900-02-29T00:00:00", "2023-02-29T00:00:00",
]
STARTS = [T0, datetime(2000, 2, 28, 23), datetime(1900, 2, 28, 23), datetime(2023, 2, 28, 23)]
OFFSETS = ["+00:00", "+05:30", "-08:00", "+00:02:30", "+00:00:01.500000"]
SPEED_TEXTS = (st.floats(0, 200).map(repr) | st.floats(0, 200).map(lambda v: f"{v:.17g}")
               | st.floats(0, 1e30).map(lambda v: f"{v:e}") | st.sampled_from(["1e-05", "2.5E+01", "1e22"]))
ODD_SPEEDS = ["nan", "inf", "1_0", " 5.0", "-0.0", "-1.0", "1e309", "x", "", "\u0661", "1\x00", "9" * 70]
ODD_FLAGS = [" 1", "2", "", "1 ", "10", "0x"]


@st.composite
def speed_files(draw):
    keys = draw(st.lists(
        st.tuples(st.sampled_from(VALID_IDS), st.integers(0, 300)), unique=True, max_size=25
    ))
    ids = draw(st.sampled_from(["drawn", "one", "each row"]))
    if ids == "one":
        keys = [(keys[0][0], k) for k in sorted({k for _, k in keys})] if keys else []
    elif ids == "each row":
        keys = [(f"s{k}" if k % 4 == 3 else f"S{k:013d}", slot) for k, (_, slot) in enumerate(keys)]
    start = draw(st.sampled_from(STARTS))
    rows = [
        [sid, (start + k * SLOT).isoformat(), draw(SPEED_TEXTS), draw(st.sampled_from("01"))]
        for sid, k in keys
    ]
    if rows and draw(st.booleans()):  # a duplicate slot somewhere
        twin = list(draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), [*twin[:2], "1.0", "0"])
    if rows and draw(st.integers(0, 4)) == 0:  # a timezone-aware file
        for row in rows:
            row[1] += draw(st.sampled_from(OFFSETS))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        column = draw(st.integers(0, 3))
        odd = [ODD_IDS, ODD_STAMPS, ODD_SPEEDS, ODD_FLAGS][column]
        draw(st.sampled_from(rows))[column] = draw(st.sampled_from(odd))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(SPEED_HEADER)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    text = eol.join(lines)
    if draw(st.integers(0, 5)) == 0:
        text = text.replace(eol, "\n" if eol == "\r\n" else "\r\n", 1)  # mixed line ends
    return (text + eol * draw(st.sampled_from([0, 1, 1, 1]))).encode()


def _outcome(load, path):
    """The series of a load as comparable values, or its error."""
    try:
        series = load(path)
    except NexicaError as exc:
        return type(exc), str(exc)
    return [
        (s.station_id, repr(s.start_time), s.speeds.tobytes(), s.imputed.tobytes()) for s in series
    ]


@pytest.mark.parametrize("chunk", ["default", "tiny"])
@settings(max_examples=300, deadline=None)
@given(content=speed_files(), data=st.data())
def test_loader_matches_the_per_row_reference(tmp_path_factory, chunk, content, data):
    path = tmp_path_factory.mktemp("speeds") / "s.csv"
    path.write_bytes(content)
    expected = _outcome(load_speed_csv_reference, path)
    with mock.patch.object(ingest, "_CHUNK_BYTES", data.draw(st.integers(1, 40))) if chunk == "tiny" \
            else nullcontext():
        got = _outcome(load_speed_csv, path)
    if isinstance(expected, tuple) and (
        expected[0] is ConsistencyError or "not on the 5-minute grid" in expected[1]
    ):
        # the duplicate-slot and off-grid errors now name the file and line
        assert got[0] is expected[0]
        assert re.fullmatch(f"{re.escape(str(path))}: line \\d+: {re.escape(expected[1])}", got[1])
    else:
        assert got == expected


@pytest.mark.parametrize("speed", ["1\x00", "65.0\x00", "1.2345678901\x00"])
def test_a_speed_holding_a_nul_loads_as_the_row_reader_loads_it(tmp_path, speed):
    # the speed reads as "1" and so on once its NUL is dropped, which the row reader refuses
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:00:00", speed.rstrip("\x00"), "0"],
        ["a", "2024-01-01T00:05:00", speed, "0"],
    ])
    assert _outcome(load_speed_csv, path) == _outcome(load_speed_csv_reference, path)
    with pytest.raises(ParseError, match="line 3"):
        load_speed_csv(path)


def test_oversized_id_is_an_error_naming_the_line(tmp_path):
    # every field is otherwise in the writer's form; csv refuses the id
    path = tmp_path / "s.csv"
    write_rows(path, [
        ["a", "2024-01-01T00:00:00", "65.0", "0"],
        ["b" * 200_000, "2024-01-01T00:00:00", "1.0", "0"],
    ])
    assert _outcome(load_speed_csv, path) == _outcome(load_speed_csv_reference, path)
    message = f"{path}: line 3: field larger than field limit"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        load_speed_csv(path)


def test_loader_peak_memory_is_at_most_half_the_reference(tmp_path):
    rng = np.random.default_rng(5)
    series = [
        SpeedSeries(
            f"S{k:03d}", T0, np.round(rng.uniform(30, 70, 25_000), 1), rng.random(25_000) < 0.1
        )
        for k in range(4)
    ]
    path = tmp_path / "s.csv"
    write_speed_csv(path, series)  # 100,000 rows

    def peak(load):
        load(path)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            load(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(load_speed_csv) <= peak(load_speed_csv_reference) / 2


def test_loader_memory_does_not_grow_with_the_file(monkeypatch, tmp_path):
    """A file in writer order is gridded a station at a time as its spans
    arrive, so the peak above the series returned is the same for 4 and for
    16 stations of 25,000 rows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    rng = np.random.default_rng(5)
    peaks = []
    for n_stations in (4, 16):
        path = tmp_path / f"s{n_stations}.csv"
        write_speed_csv(path, [
            SpeedSeries(
                f"S{k:03d}", T0, np.round(rng.uniform(30, 70, 25_000), 1), rng.random(25_000) < 0.1
            )
            for k in range(n_stations)
        ])
        load_speed_csv(path)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            series = load_speed_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(s) for s in series] == [25_000] * n_stations
        peaks.append(peak - held)
    assert abs(peaks[1] - peaks[0]) <= 1 << 20, peaks


def _write_stations(path, runs, eol):
    """A speeds file in the writer's form with one run of rows per
    ``(station, slots)`` of ``runs``, in that order."""
    rows = [
        f"{sid},{(T0 + j * SLOT).isoformat()},{30 + (7 * j) % 41}.5,{int(j % 5 == 0)}"
        for sid, slots in runs for j in slots
    ]
    path.write_bytes(eol.join([",".join(SPEED_HEADER), *rows, ""]).encode())


_GAPPED = [j for j in range(60) if j % 7 != 3]  # 52 of 60 slots, gaps of one


@pytest.mark.parametrize("cores", [{0}, {0, 1, 2}], ids=["one-core", "three-cores"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("order", ["writer", "two-runs"])
def test_streamed_and_sorted_paths_give_the_reference_series(monkeypatch, tmp_path, order, eol, cores):
    """A file whose stations each cross several of its 12 spans gives the
    per-row reference's series: gridded as it streams in writer order, and
    read again into columns and sorted when one station comes in two runs."""
    runs = [("a", _GAPPED), ("b", _GAPPED[:30]), ("c", _GAPPED), ("b", _GAPPED[30:])]
    if order == "writer":
        runs = [("a", _GAPPED), ("b", _GAPPED), ("c", _GAPPED)]
    path = tmp_path / "s.csv"
    _write_stations(path, runs, eol)
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    calls, read_columns = [], ingest.read_columns
    monkeypatch.setattr(ingest, "read_columns", lambda *args: calls.append(1) or read_columns(*args))
    got = _outcome(load_speed_csv, path)
    assert len(calls) == (order == "two-runs")
    assert got == _outcome(load_speed_csv_reference, path)
    assert [sid for sid, *_ in got] == ["a", "b", "c"]


def test_a_file_out_of_writer_order_stops_streaming_at_its_first_span(monkeypatch, tmp_path):
    """A writer-form file sorted by time leaves writer order in its first
    span, so that span is the only one parsed before the file is read
    again into columns, and the file gives the reference series."""
    path = tmp_path / "s.csv"
    _write_stations(path, [("a", _GAPPED), ("b", _GAPPED), ("c", _GAPPED)], "\n")
    header, *rows = path.read_text().splitlines()
    rows.sort(key=lambda row: row.split(",")[1])
    path.write_text("\n".join([header, *rows, ""]))
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    calls, read_columns, parse_chunk = [], ingest.read_columns, ingest._parse_chunk
    monkeypatch.setattr(ingest, "read_columns", lambda *args: calls.append("columns") or read_columns(*args))
    monkeypatch.setattr(ingest, "_parse_chunk", lambda *args: calls.append("span") or parse_chunk(*args))
    assert _outcome(load_speed_csv, path) == _outcome(load_speed_csv_reference, path)
    assert calls[:2] == ["span", "columns"] and calls.count("columns") == 1
    assert calls.count("span") >= 12


def test_the_row_reader_holds_no_streamed_series(monkeypatch, tmp_path):
    """A file in writer order whose last span the span parser declines (an
    id of more than 64 bytes) goes to the row reader, which gives the
    reference series while none of the series streamed before it are
    held: the peak above the series returned is well under the seven
    streamed stations' series."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "s.csv"
    sparse = range(0, 20_000, 1_000)  # 20 rows over 19,001 slots a station
    _write_stations(path, [*((f"S{k}", sparse) for k in range(7)), ("W" * 70, [0])], "\n")
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", path.stat().st_size // 12)
    assert _outcome(load_speed_csv, path) == _outcome(load_speed_csv_reference, path)
    tracemalloc.start()
    try:
        series = load_speed_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    streamed = sum(s.speeds.nbytes + s.imputed.nbytes for s in series[:7])
    assert peak - held < streamed / 4, (peak - held, streamed)


@pytest.mark.parametrize("cores", [{0}, {0, 1, 2}], ids=["one-core", "three-cores"])
def test_a_streamed_fault_waits_for_the_last_span(monkeypatch, tmp_path, cores):
    """A file in writer order whose first station repeats a slot: an
    unreadable row in a later span sends it to the row reader, which names
    that row's line, and without one the duplicate slot raises as ever."""
    path = tmp_path / "s.csv"
    _write_stations(path, [("a", [0, 1, 1, *range(2, 40)]), ("b", range(40)), ("c", range(40))], "\r\n")
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    message = f"{path}: line 4: station a: duplicate slot at 2024-01-01T00:05:00"
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        load_speed_csv(path)
    text = path.read_bytes().split(b"\r\n")
    text[100] = text[100].replace(b".5,", b".5x,")  # line 101: station c
    path.write_bytes(b"\r\n".join(text))
    message = f"{path}: line 101: bad speed '"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
        load_speed_csv(path)


@pytest.mark.parametrize("offset", [None, timezone.utc, timezone(timedelta(hours=-8))])
def test_writer_matches_the_per_row_reference(tmp_path, offset):
    rng = np.random.default_rng(9)
    start = datetime(1, 1, 1) if offset is None else T0.replace(tzinfo=offset)
    series = [
        SpeedSeries("a", start, rng.uniform(0, 80, 40), rng.random(40) < 0.3),
        SpeedSeries(
            'b,"c"', T0.replace(tzinfo=offset) + timedelta(days=3), [64.5, 0.1 + 0.2], [False, True]
        ),
        SpeedSeries("empty", T0.replace(tzinfo=offset), [], []),
        SpeedSeries("z", datetime(9999, 12, 31, 23, 50, tzinfo=offset), [1.0, 2.0], [True, False]),
    ]
    write_speed_csv(tmp_path / "new.csv", series)
    write_speed_csv_reference(tmp_path / "old.csv", series)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("offset", [None, timezone(timedelta(hours=-8))])
def test_writer_rejects_a_series_past_year_9999_before_opening_the_file(tmp_path, offset):
    series = [
        SpeedSeries("a", T0.replace(tzinfo=offset), [60.0], [False]),
        SpeedSeries("z", datetime(9999, 12, 31, 23, 55, tzinfo=offset), [1.0, 2.0], [False, False]),
    ]
    path = tmp_path / "speeds.csv"
    with pytest.raises(FormatError, match="^station z: 2 slots from 9999-12-31T23:55:00"):
        write_speed_csv(path, series)
    assert not path.exists()


def test_completeness_values():
    s = SpeedSeries("a", T0, np.full(10, 65.0), np.zeros(10, dtype=bool))
    assert completeness(s) == 1.0
    imp = np.zeros(10, dtype=bool)
    imp[3] = True
    s = SpeedSeries("a", T0, np.full(10, 65.0), imp)
    assert completeness(s) == 0.9


def test_completeness_empty_series():
    s = SpeedSeries("a", T0, np.array([]), np.array([], dtype=bool))
    with pytest.raises(DomainError):
        completeness(s)


def _meta(sid):
    return StationMeta(sid, "I-105", "E", 34.0, -118.0, "Mainline")


def test_filter_thresholds():
    imp = np.zeros(20, dtype=bool)
    imp[:1] = True  # 0.95 complete
    s1 = SpeedSeries("a", T0, np.full(20, 65.0), imp)
    imp2 = np.zeros(20, dtype=bool)
    imp2[:3] = True  # 0.85 complete
    s2 = SpeedSeries("b", T0, np.full(20, 65.0), imp2)
    meta = [_meta("a"), _meta("b")]
    kept, kept_meta = filter_stations([s1, s2], meta, 0.9)
    assert [s.station_id for s in kept] == ["a"]
    assert [m.station_id for m in kept_meta] == ["a"]
    kept, _ = filter_stations([s1, s2], meta, 0.0)
    assert len(kept) == 2


def test_filter_is_monotone():
    rng = np.random.default_rng(3)
    series = []
    meta = []
    for k in range(12):
        imp = rng.random(40) < rng.uniform(0, 0.5)
        series.append(SpeedSeries(f"s{k}", T0, np.full(40, 60.0), imp))
        meta.append(_meta(f"s{k}"))
    previous = None
    for threshold in np.linspace(0, 1, 11):
        kept, _ = filter_stations(series, meta, float(threshold))
        ids = {s.station_id for s in kept}
        if previous is not None:
            assert ids <= previous
        previous = ids


def test_filter_requires_metadata():
    s = SpeedSeries("a", T0, np.full(4, 65.0), np.zeros(4, dtype=bool))
    with pytest.raises(ConsistencyError):
        filter_stations([s], [], 0.5)


def test_filter_threshold_range():
    with pytest.raises(ParameterError):
        filter_stations([], [], 1.5)


def test_drive_times_valid_2x2(tmp_path):
    m = DriveTimeMatrix(["a", "b"], np.array([[0.0, 10.0], [12.0, 0.0]]))
    assert m.get("a", "b") == 10.0
    path = tmp_path / "d.csv"
    write_drive_times(path, m)
    back = load_drive_times(path)
    assert back.station_ids == ["a", "b"]
    assert np.array_equal(back.minutes, m.minutes)


def test_drive_times_nonzero_diagonal_rejected():
    with pytest.raises(ValidationError, match="diagonal"):
        DriveTimeMatrix(["a", "b"], np.array([[0.0, 10.0], [12.0, 3.0]]))


def test_drive_times_negative_rejected():
    with pytest.raises(ValidationError, match="negative"):
        DriveTimeMatrix(["a", "b"], np.array([[0.0, -1.0], [12.0, 0.0]]))


def test_drive_times_non_square_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",a,b\na,0,1\n")
    with pytest.raises(ValidationError, match="square"):
        load_drive_times(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("b,1", "expected 3 fields, got 2"),
        ("b,1,x", "non-numeric drive time"),
        ("b,nan,0", "drive time nan is not finite and >= 0"),
        ("b,1,inf", "drive time inf is not finite and >= 0"),
        ("b,-1,0", "drive time -1.0 is not finite and >= 0"),
    ],
    ids=["short-row", "non-numeric", "nan", "infinite", "negative"],
)
def test_drive_times_bad_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "d.csv"
    path.write_text(f",a,b\na,0,1\n{row}\n")
    with pytest.raises(ParseError, match=f"d.csv: line 3: {re.escape(message)}$"):
        load_drive_times(path)


@pytest.mark.parametrize(
    "text, message",
    [
        (",a,a\na,0,1\na,1,0\n", "duplicate station id in drive-time matrix"),
        (",a,b\na,0,1\nb,1,2\n", "drive-time matrix diagonal must be zero (station b has 2.0)"),
    ],
    ids=["duplicate-id", "diagonal"],
)
def test_drive_time_matrix_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_drive_times(path)


def test_drive_times_diagonal_rejected_under_any_permutation():
    rng = np.random.default_rng(11)
    ids = [f"s{k}" for k in range(5)]
    base = rng.uniform(1, 50, (5, 5))
    np.fill_diagonal(base, 0.0)
    base[2, 2] = 4.0  # one bad diagonal entry
    for _ in range(10):
        perm = rng.permutation(5)
        with pytest.raises(ValidationError):
            DriveTimeMatrix([ids[p] for p in perm], base[np.ix_(perm, perm)])


def test_station_scale_matrix_from_synthetic_distances():
    spec = SynthSpec(n_stations=195, n_slots=10, p_s=0.0)
    _, matrix = line_geometry(spec)
    assert matrix.minutes.shape == (195, 195)
    assert np.all(np.diagonal(matrix.minutes) == 0)


def test_station_meta_roundtrip(tmp_path):
    meta = [
        StationMeta("a", "I-105", "E", 33.9, -118.2, "Mainline"),
        StationMeta("b", "CA-110", "N", 34.0, -118.3, "Mainline"),
    ]
    path = tmp_path / "m.csv"
    write_station_meta(path, meta)
    assert load_station_meta(path) == meta


def test_station_meta_bad_direction(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("station_id,road,direction,lat,lon,type\na,I-105,Q,0,0,x\n")
    with pytest.raises(ParseError, match="line 2"):
        load_station_meta(path)
