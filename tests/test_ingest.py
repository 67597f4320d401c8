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
# others leave that form in one or more fields or in their layout.
VALID_IDS = ["a", "b", "S000", "\u00e9"]
ODD_IDS = [" a", "a ", '"a"', '"a,b"', "", "a\rb"]
ODD_STAMPS = [
    "2024-01-01T00:00:30", "2024-01-01T00:02:00", "2024-01-01 00:10:00", " 2024-01-01T00:15:00",
    "2024-01-01T00:20", "2024-01-01T24:00:00", "0000-01-01T00:00:00", "-001-01-01T00:00:00",
    "now", "2024-02-30T00:00:00", "0001-01-01T00:00:00", "9999-12-31T23:55:00",
    "2024-01-01T00:00:00+00:00", "0001-01-01T00:00:00+05:00",
]
OFFSETS = ["+00:00", "+05:30", "-08:00", "+00:02:30", "+00:00:01.500000"]
SPEED_TEXTS = st.floats(0, 200).map(repr) | st.floats(0, 200).map(lambda v: f"{v:.17g}")
ODD_SPEEDS = ["nan", "inf", "1_0", " 5.0", "-0.0", "-1.0", "1e309", "x", "", "\u0661"]
ODD_FLAGS = [" 1", "2", "", "1 ", "10", "0x"]


@st.composite
def speed_files(draw):
    keys = draw(st.lists(
        st.tuples(st.sampled_from(VALID_IDS), st.integers(0, 300)), unique=True, max_size=25
    ))
    rows = [
        [sid, (T0 + k * SLOT).isoformat(), draw(SPEED_TEXTS), draw(st.sampled_from("01"))]
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
    [("b,1", "expected 3 fields, got 2"), ("b,1,x", "non-numeric drive time")],
    ids=["short-row", "non-numeric"],
)
def test_drive_times_bad_row_names_file_and_line(tmp_path, row, message):
    path = tmp_path / "d.csv"
    path.write_text(f",a,b\na,0,1\n{row}\n")
    with pytest.raises(ParseError, match=f"d.csv: line 3: {message}"):
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
