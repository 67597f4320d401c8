import csv
import math
import os
import re
from contextlib import nullcontext
from datetime import datetime, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica import ingest, pipeline
from nexica.errors import ConsistencyError, FormatError, NexicaError, ParameterError, ParseError
from nexica.events import EventSeries
from nexica.groundtruth import (
    RULES,
    DatasetSpec,
    GroundTruthDataset,
    LabeledPairs,
    full_dataset,
    label_pairs,
)
from nexica.ingest import (
    META_HEADER,
    SPEED_HEADER,
    load_drive_times,
    load_speed_csv,
    load_station_meta,
)
from nexica.mle import CASES, MAX_WINDOW, estimate
from nexica.pipeline import (
    COUNTS_HEADER,
    DATASET_HEADER,
    EVENTS_HEADER,
    MLE_HEADER,
    RunConfig,
    SweepTable,
    dataset_features,
    read_counts_csv,
    read_counts_table,
    read_dataset_csv,
    read_events_csv,
    sweep,
    write_counts_csv,
    write_dataset_csv,
    write_events_csv,
    write_mle_csv,
    write_mle_rows,
)
from nexica.synth import SynthSpec, line_geometry
from oracles import (
    write_counts_csv_reference,
    write_dataset_csv_reference,
    write_events_csv_reference,
    write_mle_csv_reference,
)


def keys(table):
    return [table.key(k) for k in range(len(table))]


def test_mle_csv_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    bits = [rng.random(300) < p for p in (0.05, 0.2, 0.5)] + [np.zeros(300, dtype=bool)]
    series = [EventSeries(f"s{k}", b) for k, b in enumerate(bits)]
    table = sweep(series, l_max=4, tau=1)
    assert {"interior", "undefined"} <= {k for k, v in table.case_tally().items() if v}

    first = tmp_path / "a.csv"
    write_mle_csv(first, table)
    again = read_counts_table(first)
    assert keys(again) == keys(table)
    for name in ("counts", "p_s", "p_c", "p_c_raw", "loglik", "case"):
        assert np.array_equal(getattr(again, name), getattr(table, name), equal_nan=True), name
    write_mle_csv(tmp_path / "b.csv", again)
    assert (tmp_path / "b.csv").read_bytes() == first.read_bytes()


def _random_table(seed=4, n=5, m=300, l_max=4, tau=1):
    rng = np.random.default_rng(seed)
    bits = [rng.random(m) < p for p in np.linspace(0.0, 0.5, n)]
    return sweep([EventSeries(f"s{k}", b) for k, b in enumerate(bits)], l_max, tau)


# Station ids that csv.writer must quote (",", '"', "\r", "\n"), or that it
# writes bare (spaces, non-ASCII, the empty id); floats whose repr is unusual.
ODD_IDS = st.text(st.sampled_from(',"\r\n éß€😀a'), max_size=4) | st.text(max_size=4)
ODD_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16]) | st.floats()


@st.composite
def artifacts(draw):
    """A ``SweepTable``, event series and a dataset over the same odd ids."""
    ids = draw(st.lists(ODD_IDS, min_size=1, max_size=5))
    n = draw(st.integers(0, 12))

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    code, count, lag = st.integers(0, len(ids) - 1), st.integers(0, 2**63 - 1), st.integers(1, 2**63 - 1)
    table = SweepTable(
        ids, column(code, np.int32), column(code, np.int32), column(lag, np.int64),
        np.stack([column(count, np.int64) for _ in range(4)], axis=1).reshape(-1, 4),
        *(column(ODD_FLOATS, np.float64) for _ in range(4)),
        column(st.integers(0, len(CASES) - 1), np.int8),
    )
    series = [
        EventSeries(sid, np.array(draw(st.lists(st.booleans(), min_size=6, max_size=6))))
        for sid in ids
    ]
    pick = st.sampled_from(ids)
    pairs = LabeledPairs(
        column(pick, object), column(pick, object), column(lag, np.int64),
        column(st.integers(0, 1), np.int8), column(st.sampled_from([*RULES, *ids]), object),
        column(ODD_FLOATS, np.float64),
    )
    return table, series, GroundTruthDataset(pairs)


def assert_writers_match_the_row_writers(directory, artifact, block):
    """Each column writer at ``block`` rows (None: its default) writes the
    bytes of its row-wise ``csv.writer`` oracle."""
    table, series, dataset = artifact
    with mock.patch.object(ingest, "_BLOCK", block or ingest._BLOCK):
        for write, reference, value in (
            (write_counts_csv, write_counts_csv_reference, table),
            (write_mle_csv, write_mle_csv_reference, table),
            (write_events_csv, write_events_csv_reference, series),
            (write_dataset_csv, write_dataset_csv_reference, dataset),
        ):
            write(directory / "new.csv", value)
            reference(directory / "old.csv", value)
            new, old = (directory / "new.csv").read_bytes(), (directory / "old.csv").read_bytes()
            assert new == old, write.__name__


@settings(max_examples=150, deadline=None)
@given(artifact=artifacts(), block=st.sampled_from([1, 7, None]))
def test_column_writers_write_the_row_writers_bytes(tmp_path_factory, artifact, block):
    assert_writers_match_the_row_writers(tmp_path_factory.mktemp("writers"), artifact, block)


def read_counts_table_of(tmp_path, rows):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([",".join(COUNTS_HEADER), *rows]) + "\n")
    return read_counts_table(path)


@pytest.mark.parametrize("block, cores", [(1, None), (7, None), (None, None), (7, {0}), (7, {0, 1, 2})],
                         ids=["1", "7", "None", "7-one_core", "7-three_cores"])
def test_column_writers_on_a_sweep_with_every_case(monkeypatch, tmp_path, block, cores):
    """A sweep of 80 rows (at 7: eleven full blocks and a short one) with
    every MLE case, odd ids and floats, then an empty table.  With the usable
    cores set, each writer of a table of several blocks forks one child per
    further core, and the empty table forks nothing."""
    forks, fork = [], os.fork
    if cores is not None:
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
    table = _random_table()
    table.station_ids = ["a,b", 'q"uote', "cr\rlf\n", " ", "é€😀"]
    table.case[:4] = range(len(CASES))
    table.p_c[:7] = table.p_c_raw[:7] = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.0]
    table.p_c_raw[6] = -0.0  # equal to p_c under ==, not in its bits
    series = [EventSeries(sid, np.arange(9) % (k + 2) == 0) for k, sid in enumerate(table.station_ids)]
    series.append(EventSeries("", np.zeros(9, dtype=bool)))
    pairs = LabeledPairs(*zip(*keys(table)), [1] * 80, [RULES[0]] * 80, table.p_c)
    assert_writers_match_the_row_writers(tmp_path, (table, series, GroundTruthDataset(pairs)), block)
    children = 0 if cores is None else 4 * (len(cores) - 1)  # 15 event rows: 3 blocks
    assert len(forks) == children
    empty = (read_counts_table_of(tmp_path, []), [], GroundTruthDataset(pairs.take(slice(0))))
    assert_writers_match_the_row_writers(tmp_path, empty, block)
    assert len(forks) == children


@pytest.mark.parametrize("where, error, message", [
    ("child", ValueError, "^injected$"),
    ("parent", ValueError, "^injected$"),
    ("child", NexicaError, r"new\.csv: writer \d+ exited with status 3$"),
])
def test_a_failing_writer_fails_the_call_and_leaves_no_child(monkeypatch, tmp_path, where, error,
                                                            message):
    """Formatting a block of 7 rows fails in the forked child or in this
    process, or the child exits at once."""
    parent = os.getpid()

    class Failing(np.ndarray):
        def tolist(self):
            if (os.getpid() == parent) == (where == "parent"):
                if error is NexicaError:
                    os._exit(3)
                raise ValueError("injected")
            return super().tolist()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    columns = [np.array(["s"] * 80, dtype=object), np.arange(80.0).view(Failing)]
    with mock.patch.object(ingest, "_BLOCK", 7), pytest.raises(error, match=message):
        ingest.write_columns(tmp_path / "new.csv", ["station", "value"], columns)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dataset_features_find_rows_of_a_shuffled_table(tmp_path):
    """The table comes from a row-shuffled counts.csv holding a lag of 2**62,
    the pairs come in another order; the features are the matching rows."""
    write_counts_csv(tmp_path / "counts.csv", _random_table())
    rows = (tmp_path / "counts.csv").read_text().splitlines()[1:]
    rng = np.random.default_rng(1)
    rows = [rows[k] for k in rng.permutation(len(rows)).tolist()] + [f"s1,s0,{2**62},5,0,0,1"]
    table = read_counts_table_of(tmp_path, rows)
    row_of = {t: k for k, t in enumerate(keys(table))}
    assert len(row_of) == 81 and ("s1", "s0", 2**62) in row_of

    picked = [keys(table)[k] for k in rng.permutation(80).tolist()[:40]] + [("s1", "s0", 2**62)]
    pairs = LabeledPairs(*zip(*picked), [1] * 41, ["r"] * 41, [1.0] * 41)
    x, _ = dataset_features(table, pairs)
    assert np.array_equal(x, table.feature_matrix([row_of[t] for t in picked]))

    for missing in (("s1", "s0", 2**62 - 1), ("s0", "s0", 1), ("s9", "s0", 1), ("s0", "s9", 1)):
        bad = LabeledPairs(*zip(*picked, missing), [1] * 42, ["r"] * 42, [1.0] * 42)
        with pytest.raises(ConsistencyError, match=re.escape(f"dataset tuple {missing} was not swept")):
            dataset_features(table, bad)


def test_dataset_features_are_the_table_rows_of_the_pairs():
    table = _random_table()
    assert np.isnan(table.p_c).any()
    rng = np.random.default_rng(0)
    picks = rng.permutation(len(table))[:30]
    tuples = [table.key(k) for k in picks.tolist()]
    labels = [k % 2 for k in picks.tolist()]
    pairs = LabeledPairs(*zip(*tuples), labels, ["r"] * 30, [1.0] * 30)
    x, y = dataset_features(table, pairs)
    whole = np.column_stack([table.counts.astype(np.float64), np.nan_to_num(table.p_c, nan=0.0)])
    assert x.dtype == np.float64 and np.array_equal(x, whole[picks])
    assert y.dtype == np.int8 and y.tolist() == labels
    assert np.array_equal(table.feature_matrix(), whole)
    assert dataset_features(table, pairs.take(slice(0)))[0].shape == (0, 5)
    with pytest.raises(ConsistencyError, match=r"tuple \('s0', 's1', 9\) was not swept"):
        dataset_features(table, LabeledPairs(["s0"], ["s1"], [9], [0], ["r"], [1.0]))


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,-1,1", "slot -1"),
        ("a,10,1", "slot 10"),
        ("a,1.5,1", "expected station_id,slot,event"),
        ("a,2,2", "event must be 0 or 1"),
        (",3,1", "empty station id"),
    ],
    ids=["negative-slot", "slot-past-end", "non-integer", "bad-event", "empty-id"],
)
def test_read_events_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "events.csv"
    path.write_text(f"station_id,slot_index,event\na,3,1\n{row}\n")
    with pytest.raises(FormatError, match=message) as info:
        read_events_csv(path, n_slots=10)
    assert "events.csv: line 3" in str(info.value)


def test_counts_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    bits = [rng.random(200) < 0.1 for _ in range(3)]
    table = sweep([EventSeries(f"s{k}", b) for k, b in enumerate(bits)], 3, 1)
    write_counts_csv(tmp_path / "counts.csv", table)
    again = read_counts_table(tmp_path / "counts.csv")
    assert keys(again) == keys(table)
    for name in ("counts", "p_s", "p_c", "p_c_raw", "loglik", "case"):
        assert np.array_equal(getattr(again, name), getattr(table, name), equal_nan=True), name
    assert again.counts.dtype == np.int64 and again.case.dtype == np.int8

    rows = read_counts_csv(tmp_path / "counts.csv", tau=1)
    assert [r[:3] for r in rows] == keys(table)
    assert [r[3].as_tuple() for r in rows] == [tuple(c) for c in table.counts.tolist()]
    assert {r[3].tau for r in rows} == {1}
    write_mle_csv(tmp_path / "a.csv", table)
    write_mle_rows(tmp_path / "b.csv", ((*r, estimate(r[3])) for r in rows))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,b,x,5,0,0,0", "integer lag and counts"),
        ("a,b,1,5,0,0.5,0", "integer lag and counts"),
        ("a,b,1,5,0", "integer lag and counts"),
        ("a,b,1,5,-1,1,0", r"negative correspondence count in \[5, -1, 1, 0\]"),
        ("a,b,-1,5,0,0,0", "lag must be >= 1, got -1"),
        ("a,b,1,5,0,0,9223372036854775808", "must fit in 64 bits"),
        ("a,b,0,5,0,0,0", "lag must be >= 1, got 0"),
        ("a,b,1,0,0,0,0", f"window 0 outside 1..{MAX_WINDOW}"),
        (f"a,b,1,{MAX_WINDOW},0,1,0", f"window {MAX_WINDOW + 1} outside 1..{MAX_WINDOW}"),
        (",b,1,5,0,0,0", "empty station id"),
        ("a,,1,5,0,0,0", "empty station id"),
    ],
    ids=["non-integer-lag", "non-integer-count", "short-row", "negative-count", "negative-lag",
         "count-past-int64", "zero-lag", "zero-window", "window-past-max", "empty-cause",
         "empty-effect"],
)
def test_read_counts_csv_rejects_bad_rows(tmp_path, row, message):
    """The sweep reader, on the counts row alone and on the row padded
    with valid estimate columns under the mle.csv header."""
    estimates = ",0.5,0.5,0.5,-1.0,interior"
    for name, header, tail in (("counts", COUNTS_HEADER, ""), ("mle", MLE_HEADER, estimates)):
        path = tmp_path / f"{name}.csv"
        path.write_text(f"{','.join(header)}\na,b,1,3,1,1,0{tail}\n{row}{tail}\n")
        with pytest.raises(FormatError, match=message) as info:
            read_counts_table(path)
        assert f"{path.name}: line 3" in str(info.value)


@pytest.mark.parametrize("header", [COUNTS_HEADER, MLE_HEADER], ids=["counts", "mle"])
def test_read_counts_table_rejects_a_repeated_tuple(tmp_path, header):
    """The second row of a repeated (cause, effect, lag) is an error that
    names the file, both lines and the tuple, whatever the counts."""
    tail = ",0.5,0.5,0.5,-1.0,interior" if header == MLE_HEADER else ""
    rows = ["a,b,1,5,1,1,1", "b,a,1,5,1,1,1", "a,b,2,5,1,1,1", "", "a,b,1,9,0,0,1", "b,a,1,9,0,0,1"]
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([",".join(header), *(r and r + tail for r in rows)]) + "\n")
    message = f"{path}: line 6: tuple ('a', 'b', 1) repeats line 2"
    with pytest.raises(FormatError, match=re.escape(message)):
        read_counts_table(path)


def test_read_counts_csv_rejects_empty_file_and_wrong_header(tmp_path):
    for name, text in (("empty.csv", ""), ("events.csv", "station_id,slot_index,event\na,1,1\n")):
        path = tmp_path / name
        path.write_text(text)
        for read in (read_counts_table, read_counts_csv):
            with pytest.raises(ParameterError, match=f"{name}: not a counts.csv"):
                read(path)


@pytest.mark.parametrize("declined", [False, True], ids=["column-path", "row-path"])
def test_read_events_csv_rejects_a_repeated_slot(tmp_path, declined):
    """A (station, slot) on two rows is an error naming the file, both
    lines, the station and the slot, whatever the events."""
    path = tmp_path / "events.csv"
    path.write_text("station_id,slot_index,event\nb,2,1\na,5,1\nb,3,0\na,5,0\nb,2,1\n")
    message = f"{path}: line 5: station a slot 5 repeats line 3"
    with mock.patch.object(pipeline, "read_columns", lambda *args: None) if declined else nullcontext():
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read_events_csv(path, n_slots=10)
        path.write_text("station_id,slot_index,event\na,4,1\na,5,1\na,5,0\n")  # rows in key order
        with pytest.raises(FormatError, match="line 4: station a slot 5 repeats line 3$"):
            read_events_csv(path, n_slots=10)


def test_a_fault_before_an_unreadable_row_is_reported_first(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("station_id,slot_index,event\na,3,1\na,12,1\na,x,1\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: line 3: slot 12 outside 0..9$"):
        read_events_csv(path, n_slots=10)
    path.write_text("station_id,slot_index,event\na,3,1\na,x,1\na,12,1\n")
    with pytest.raises(FormatError, match="line 3: expected station_id,slot,event$"):
        read_events_csv(path, n_slots=10)


def test_writer_files_take_the_column_path(tmp_path):
    bits = [np.random.default_rng(k).random(300) < 0.1 for k in range(4)]
    series = [EventSeries(f"s{k}", b) for k, b in enumerate(bits)]
    table = sweep(series, 3, 1)
    write_events_csv(tmp_path / "events.csv", series)
    write_counts_csv(tmp_path / "counts.csv", table)
    write_mle_csv(tmp_path / "mle.csv", table)
    with mock.patch.object(pipeline, "numbered_rows", None):  # the row path would fail
        events = read_events_csv(tmp_path / "events.csv", 300)
        tables = [read_counts_table(tmp_path / name) for name in ("counts.csv", "mle.csv")]
    assert [(s.station_id, s.events.tolist()) for s in events] == [
        (s.station_id, s.events.tolist()) for s in series
    ]
    for again in tables:
        assert keys(again) == keys(table) and np.array_equal(again.counts, table.counts)


# Artifact files for the column-path parity test: rows in the writer's form,
# then departures from it in the fields, the rows or the line ends.
TABLE_IDS = ["a", "b", "S000", "\u00e9"]
ODD_TABLE_IDS = ['"a"', " a", "a ", ""]
ODD_INTS = ["+1", "1_0", " 5", "05", "-0", "\u0661", str(2**63), "-3", "x", ""]
ESTIMATES = st.sampled_from(["0.5", "nan", "-inf", "interior", "", "\u00e9"])


@st.composite
def artifact_files(draw, name):
    if name == "events":
        keys_ = st.tuples(st.sampled_from(TABLE_IDS), st.integers(0, 9))
        rows = [[sid, str(slot), draw(st.sampled_from("01"))]
                for sid, slot in draw(st.lists(keys_, unique=True, max_size=12))]
        header, n_ids, width = EVENTS_HEADER, 1, 3
    else:
        keys_ = st.tuples(st.sampled_from(TABLE_IDS), st.sampled_from(TABLE_IDS), st.integers(1, 8))
        counts = st.lists(st.integers(0, 40), min_size=4, max_size=4).filter(any)
        rows = [[c, e, str(lag), *map(str, draw(counts))]
                for c, e, lag in draw(st.lists(keys_, unique=True, max_size=12))]
        header, n_ids, width = COUNTS_HEADER, 2, 7
        if name == "mle":
            header = MLE_HEADER
            rows = [row + [draw(ESTIMATES) for _ in range(5)] for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        change = draw(st.sampled_from(["id", "int", "short", "long", "repeat"]))
        if change == "id":
            row[draw(st.integers(0, n_ids - 1))] = draw(st.sampled_from(ODD_TABLE_IDS))
        elif change == "int":
            row[min(draw(st.integers(n_ids, width - 1)), len(row) - 1)] = draw(st.sampled_from(ODD_INTS))
        elif change == "short":
            row.pop()
        elif change == "long":
            row.append("0")
        else:
            rows.insert(draw(st.integers(0, len(rows))), list(row))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(1, len(lines))), "")  # a blank line
    text = eol.join(lines)
    if draw(st.integers(0, 5)) == 0:
        text = text.replace(eol, "\n" if eol == "\r\n" else "\r\n", 1)  # mixed line ends
    return (text + eol * draw(st.sampled_from([0, 1, 1, 1]))).encode()


def _read_outcome(name, path):
    """What a reader gives for ``path``, as comparable values, or its error."""
    try:
        if name == "events":
            return [(s.station_id, s.events.tobytes()) for s in read_events_csv(path, n_slots=10)]
        table = read_counts_table(path)
    except NexicaError as exc:
        return type(exc), str(exc)
    return [table.station_ids, *(getattr(table, f).tobytes() for f in (
        "cause", "effect", "lag", "counts", "p_s", "p_c", "p_c_raw", "loglik", "case"))]


@pytest.mark.parametrize("name", ["events", "counts", "mle"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_path_matches_the_row_path(tmp_path_factory, name, data):
    path = tmp_path_factory.mktemp(name) / f"{name}.csv"
    path.write_bytes(data.draw(artifact_files(name)))
    with mock.patch.object(ingest, "_CHUNK_BYTES", data.draw(st.integers(1, 40))):
        got = _read_outcome(name, path)
    with mock.patch.object(pipeline, "read_columns", lambda *args: None):
        expected = _read_outcome(name, path)
    assert got == expected


# Each reader's header and column kinds, and rows of three stations whose
# third, "late", first appears on the last two lines.
READER_FILES = {
    "speeds": (SPEED_HEADER, (ingest.ID, ingest.STAMP, ingest.SPEED, ingest.FLAG), [
        [sid, f"2024-01-01T{k // 12:02d}:{k % 12 * 5:02d}:00", f"{k * 1.5}", f"{k % 2}"]
        for sid, n in [("b", 12), ("a", 12), ("late", 2)] for k in range(n)
    ]),
    "events": (EVENTS_HEADER, (ingest.ID, ingest.INT, ingest.FLAG), [
        [sid, f"{k}", f"{k % 3 == 0:d}"] for sid, n in [("b", 12), ("a", 12), ("late", 2)]
        for k in range(n)
    ]),
    "counts": (COUNTS_HEADER, (ingest.ID,) * 2 + (ingest.INT,) * 5, [
        [cause, effect, f"{lag}", *(f"{lag * k + 3}" for k in range(4))]
        for cause, effect in [("b", "a"), ("a", "b"), ("a", "late"), ("late", "b")]
        for lag in ([1, 2] if "late" in (cause, effect) else range(1, 7))
    ]),
}


def write_reader_file(path, name, eol="\r\n"):
    """A ``READER_FILES`` file whose last line has no line end, and its form."""
    header, kinds, rows = READER_FILES[name]
    path.write_bytes(eol.join(map(",".join, [header, *rows])).encode())
    return {",".join(header): kinds}


@pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("name", list(READER_FILES))
def test_readers_do_not_depend_on_the_usable_cores(monkeypatch, tmp_path, name, eol):
    """A file of some 12 spans parses to the ids and columns of one span read
    in process, whether one usable core parses every span in process or
    three split them with two forked children.  The station first seen in
    the last span takes the last code."""
    form = write_reader_file(tmp_path / "in.csv", name, eol)
    whole = ingest.read_columns(tmp_path / "in.csv", form)
    assert whole[0] == ["b", "a", "late"]
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", (tmp_path / "in.csv").stat().st_size // 12)
    for cores, children in [({0}, 0), ({0, 1, 2}, 2)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        ids, columns = ingest.read_columns(tmp_path / "in.csv", form)
        assert len(forks) == children
        assert ids == whole[0]
        assert [(c.dtype, c.tobytes()) for c in columns] == [(c.dtype, c.tobytes()) for c in whole[1]]
        forks.clear()


@pytest.mark.parametrize("where", ["child-row", "parent", "child-exit"])
def test_a_failing_reader_fails_the_call_and_leaves_no_child(monkeypatch, tmp_path, where):
    """A speeds file of some 12 spans, the later half parsed by a forked
    child: a malformed row on the last line, a span that fails in this process
    alone, or a child that exits at once."""
    parent, parse = os.getpid(), ingest._parse_chunk

    def failing(*args):
        if where == ("parent" if os.getpid() == parent else "child-exit"):
            if where == "parent":
                raise ValueError("injected")
            os._exit(3)
        return parse(*args)

    path = tmp_path / "speeds.csv"
    write_reader_file(path, "speeds")
    if where == "child-row":
        path.write_bytes(path.read_bytes()[:-1] + b"x")
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", path.stat().st_size // 12)
    monkeypatch.setattr(ingest, "_parse_chunk", failing)
    if where == "child-row":  # the row reader names the line
        message = f"{path}: line 27: imputed flag must be 0 or 1"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_speed_csv(path)
    elif where == "parent":  # the row reader reads the file
        speeds = [s.speeds.tolist() for s in load_speed_csv(path)]
        assert speeds == [[1.5 * k for k in range(n)] for n in (12, 12, 2)]
    else:
        with pytest.raises(NexicaError, match=f"^{re.escape(str(path))}: reader \\d+ exited with status 3$"):
            load_speed_csv(path)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dataset_csv_roundtrip_shares_ids_and_rules(tmp_path):
    full = full_dataset(label_pairs(*line_geometry(SynthSpec(5, 10, 0.0)), DatasetSpec()))
    write_dataset_csv(tmp_path / "a.csv", full)
    pairs = read_dataset_csv(tmp_path / "a.csv")
    assert len(pairs) == 5 * 4 * 8
    write_dataset_csv(tmp_path / "b.csv", GroundTruthDataset(pairs))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert {id(r) for r in pairs.rule.tolist()} <= {id(r) for r in RULES}
    ids = pairs.cause.tolist() + pairs.effect.tolist()
    assert len({id(sid) for sid in ids}) == len(set(ids)) == 5


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,b,x,1,r,5.0", "invalid literal for int"),
        ("a,b,1,7,r,5.0", "label must be 0 or 1, got 7"),
        ("a,b,1,1", "list index out of range"),
        ("a,a,1,1,r,5.0", "cause and effect must differ"),
        ("a,b,0,0,r,5.0", r"lag 0 outside 1\.\.2\*\*63-1"),
        (",b,1,1,r,5.0", "empty station id"),
        ("a,,1,1,r,5.0", "empty station id"),
    ],
    ids=["non-integer-lag", "bad-label", "short-row", "self-pair", "zero-lag", "empty-cause",
         "empty-effect"],
)
def test_read_dataset_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "dataset.csv"
    path.write_text(f"cause,effect,lag,label,rule,drive_time\na,b,1,1,r,5.0\n\n{row}\n")
    with pytest.raises(FormatError, match=message) as info:
        read_dataset_csv(path)
    assert "dataset.csv: line 4" in str(info.value)


FIELDS = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["0", "1", "-1", "a", "b", *(c.value for c in CASES)]),
)
ROWS = st.lists(st.lists(FIELDS, max_size=13), max_size=4)
NUMBERS = st.floats().map(repr) | FIELDS


def rows_of(*columns, junk=FIELDS):
    """Rows that fit the columns, mixed with rows of arbitrary fields."""
    return st.lists(st.tuples(*columns).map(list) | st.lists(junk, max_size=8), max_size=6)


# Speed timestamps come from the whole range of years 1-9999, on and off
# the 5-minute grid: the loader rejects a station whose rows span more than
# mle.MAX_WINDOW slots before it lays out the grid.  Junk fields have at
# most 6 characters, too few for any ISO date (the shortest, a week date
# such as 0001W01, has 7).
STAMPS = st.datetimes(timezones=st.none() | st.just(timezone.utc))
ON_GRID = STAMPS.map(lambda t: t.replace(minute=t.minute // 5 * 5, second=0, microsecond=0))
SPEED_ROWS = rows_of(
    st.sampled_from(["a", "b", ""]), (ON_GRID | STAMPS).map(datetime.isoformat), NUMBERS,
    st.sampled_from(["0", "1", "2"]), junk=st.text(max_size=6),
)
READERS = {
    "events": (EVENTS_HEADER, lambda path: read_events_csv(path, n_slots=10), ROWS),
    "counts": (COUNTS_HEADER, read_counts_table, ROWS),
    "mle": (MLE_HEADER, read_counts_table, ROWS),
    "dataset": (DATASET_HEADER, read_dataset_csv, ROWS),
    "speeds": (SPEED_HEADER, load_speed_csv, SPEED_ROWS),
    "meta": (META_HEADER, load_station_meta, rows_of(
        st.sampled_from(["a", "b"]), FIELDS, st.sampled_from(["N", "Q"]), NUMBERS, NUMBERS, FIELDS
    )),
    "drive-times": (["", "a", "b"], load_drive_times, rows_of(
        st.sampled_from(["a", "b"]), NUMBERS, NUMBERS
    )),
}


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_readers_return_a_value_or_a_nexica_error(tmp_path_factory, name, data):
    header, read, rows = READERS[name]
    path = tmp_path_factory.mktemp(name) / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *data.draw(rows)])
    try:
        read(path)
    except NexicaError:
        pass


LOADERS = {
    **{name: (",".join(header), read) for name, (header, read, _) in READERS.items()},
    "config": (None, RunConfig.from_file),
    "spec": (None, SynthSpec.from_json),
}


@pytest.mark.parametrize("name", list(LOADERS))
@pytest.mark.parametrize("case", ["not-utf8", "long-field"])
def test_undecodable_or_oversized_input_is_an_error_naming_the_file(tmp_path, name, case):
    header, read = LOADERS[name]
    path = tmp_path / f"{name}.input"
    field = "x" * 200_000
    if case == "not-utf8":
        path.write_bytes(b"\xff\xfe" + (header or "{}").encode())
    elif header is None:
        path.write_text(f'{{"{field}": 1}}')
    else:
        path.write_text(f"{header}\na,{field}\n")
    with pytest.raises(NexicaError, match=f"^{re.escape(str(path))}: "):
        read(path)
