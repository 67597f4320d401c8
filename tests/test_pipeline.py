import numpy as np
import pytest

from nexica.errors import FormatError, ParameterError
from nexica.events import EventSeries
from nexica.pipeline import (
    read_counts_csv,
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
    ],
    ids=["non-integer-lag", "non-integer-count", "short-row", "negative-count", "negative-lag"],
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
