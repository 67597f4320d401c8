import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica.errors import FormatError, NexicaError, ParameterError
from nexica.events import EventSeries
from nexica.mle import CASES
from nexica.pipeline import (
    COUNTS_HEADER,
    DATASET_HEADER,
    EVENTS_HEADER,
    MLE_HEADER,
    read_counts_csv,
    read_dataset_csv,
    read_events_csv,
    read_mle_csv,
    sweep,
    write_counts_csv,
    write_mle_csv,
)

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
    rows = read_counts_csv(tmp_path / "counts.csv", tau=1)
    assert [r[:3] for r in rows] == table.tuples
    assert [r[3].as_tuple() for r in rows] == [tuple(c) for c in table.counts.tolist()]
    assert {r[3].tau for r in rows} == {1}


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,b,x,5,0,0,0", "integer lag and counts"),
        ("a,b,1,5,0,0.5,0", "integer lag and counts"),
        ("a,b,1,5,0", "integer lag and counts"),
        ("a,b,1,5,-1,1,0", "negative correspondence count"),
        ("a,b,-1,5,0,0,0", "lag and tau must be >= 0"),
        ("a,b,1,5,0,0,9223372036854775808", "must fit in 64 bits"),
    ],
    ids=["non-integer-lag", "non-integer-count", "short-row", "negative-count", "negative-lag",
         "count-past-int64"],
)
def test_read_counts_csv_rejects_bad_rows(tmp_path, row, message):
    path = tmp_path / "counts.csv"
    path.write_text(f"cause,effect,lag,a00,a01,a10,a11\na,b,1,3,1,1,0\n{row}\n")
    with pytest.raises(FormatError, match=message) as info:
        read_counts_csv(path)
    assert "counts.csv: line 3" in str(info.value)


def test_read_counts_csv_rejects_empty_file_and_wrong_header(tmp_path):
    for name, text in (("empty.csv", ""), ("events.csv", "station_id,slot_index,event\na,1,1\n")):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ParameterError, match=f"{name}: not a counts.csv"):
            read_counts_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("a,b,x,1,r,5.0", "invalid literal for int"),
        ("a,b,1,7,r,5.0", "7 is not a valid Label"),
        ("a,b,1,1", "list index out of range"),
        ("a,a,1,1,r,5.0", "cause and effect must differ"),
    ],
    ids=["non-integer-lag", "bad-label", "short-row", "self-pair"],
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
READERS = {
    "events": (EVENTS_HEADER, lambda path: read_events_csv(path, n_slots=10)),
    "counts": (COUNTS_HEADER, read_counts_csv),
    "mle": (MLE_HEADER, read_mle_csv),
    "dataset": (DATASET_HEADER, read_dataset_csv),
}


@pytest.mark.parametrize("name", list(READERS))
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.lists(FIELDS, max_size=13), max_size=4))
def test_readers_return_a_value_or_a_nexica_error(tmp_path_factory, name, rows):
    header, read = READERS[name]
    path = tmp_path_factory.mktemp(name) / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    try:
        read(path)
    except NexicaError:
        pass
