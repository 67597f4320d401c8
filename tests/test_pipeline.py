import csv
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica import pipeline
from nexica.errors import ConsistencyError, FormatError, NexicaError, ParameterError
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
    dataset_features,
    read_counts_csv,
    read_counts_table,
    read_dataset_csv,
    read_events_csv,
    read_mle_csv,
    sweep,
    write_counts_csv,
    write_dataset_csv,
    write_mle_csv,
    write_mle_rows,
)
from nexica.synth import SynthSpec, line_geometry

def test_mle_csv_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    bits = [rng.random(300) < p for p in (0.05, 0.2, 0.5)] + [np.zeros(300, dtype=bool)]
    series = [EventSeries(f"s{k}", b, b, float("nan")) for k, b in enumerate(bits)]
    table = sweep(series, l_max=4, tau=1)
    assert {"interior", "undefined"} <= {k for k, v in table.case_tally().items() if v}

    first = tmp_path / "a.csv"
    write_mle_csv(first, table)
    again = read_mle_csv(first)
    assert again.tuples == table.tuples
    assert np.array_equal(again.counts, table.counts)
    write_mle_csv(tmp_path / "b.csv", again)
    assert (tmp_path / "b.csv").read_bytes() == first.read_bytes()


def _random_table(seed=4, n=5, m=300, l_max=4, tau=1):
    rng = np.random.default_rng(seed)
    bits = [rng.random(m) < p for p in np.linspace(0.0, 0.5, n)]
    return sweep([EventSeries(f"s{k}", b, b, float("nan")) for k, b in enumerate(bits)], l_max, tau)


def test_table_rows_do_not_depend_on_the_block_size():
    table = _random_table()
    columns = (table.counts, table.p_c, table.case)
    whole = repr(list(zip(table.tuples, *(c.tolist() for c in columns))))  # repr: nan != nan
    assert len(table.tuples) == 80
    for block in (1, 7, 80, 8192):  # at 7: eleven full blocks and a short one
        assert repr(list(pipeline._table_rows(table, *columns, block=block))) == whole


def test_dataset_features_are_the_table_rows_of_the_pairs():
    table = _random_table()
    assert np.isnan(table.p_c).any()
    rng = np.random.default_rng(0)
    picks = rng.permutation(len(table.tuples))[:30]
    tuples = [table.tuples[k] for k in picks.tolist()]
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
    ],
    ids=["negative-slot", "slot-past-end", "non-integer", "bad-event"],
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
    table = sweep([EventSeries(f"s{k}", b, b, float("nan")) for k, b in enumerate(bits)], 3, 1)
    write_counts_csv(tmp_path / "counts.csv", table)
    again = read_counts_table(tmp_path / "counts.csv")
    assert again.tuples == table.tuples
    for name in ("counts", "p_s", "p_c", "p_c_raw", "loglik", "case"):
        assert np.array_equal(getattr(again, name), getattr(table, name), equal_nan=True), name
    assert again.counts.dtype == np.int64 and again.case.dtype == np.int8

    rows = read_counts_csv(tmp_path / "counts.csv", tau=1)
    assert [r[:3] for r in rows] == table.tuples
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
    ],
    ids=["non-integer-lag", "non-integer-count", "short-row", "negative-count", "negative-lag",
         "count-past-int64", "zero-lag", "zero-window", "window-past-max"],
)
def test_read_counts_csv_rejects_bad_rows(tmp_path, row, message):
    """Both sweep readers, on the counts row alone and on the row padded
    with valid estimate columns."""
    estimates = ",0.5,0.5,0.5,-1.0,interior"
    for read, header, tail in ((read_counts_table, COUNTS_HEADER, ""),
                               (read_mle_csv, MLE_HEADER, estimates)):
        path = tmp_path / f"{read.__name__}.csv"
        path.write_text(f"{','.join(header)}\na,b,1,3,1,1,0{tail}\n{row}{tail}\n")
        with pytest.raises(FormatError, match=message) as info:
            read(path)
        assert f"{path.name}: line 3" in str(info.value)


def test_read_counts_csv_rejects_empty_file_and_wrong_header(tmp_path):
    for name, text in (("empty.csv", ""), ("events.csv", "station_id,slot_index,event\na,1,1\n")):
        path = tmp_path / name
        path.write_text(text)
        for read in (read_counts_table, read_counts_csv):
            with pytest.raises(ParameterError, match=f"{name}: not a counts.csv"):
                read(path)


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
    ],
    ids=["non-integer-lag", "bad-label", "short-row", "self-pair", "zero-lag"],
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
    "mle": (MLE_HEADER, read_mle_csv, ROWS),
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
