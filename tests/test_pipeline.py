import numpy as np
import pytest

from nexica.errors import FormatError
from nexica.events import EventSeries
from nexica.pipeline import read_events_csv, read_mle_csv, sweep, write_mle_csv


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
