import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica import groundtruth
from nexica.errors import ParameterError, ValidationError
from nexica.groundtruth import (
    RULE_CROSS,
    RULE_DISTANT,
    RULE_OFF_LAG,
    RULE_POSITIVE,
    RULE_RESIDUAL,
    DatasetSpec,
    GroundTruth,
    LabeledPairs,
    build_dataset,
    full_dataset,
    label_pairs,
)
from nexica.ingest import DriveTimeMatrix, StationMeta
from nexica.pipeline import DATASET_HEADER, write_dataset_csv
from oracles import label_pairs_reference

SPEC = DatasetSpec()


def matrix_2(d_ab, d_ba):
    return DriveTimeMatrix(["a", "b"], np.array([[0.0, d_ab], [d_ba, 0.0]]))


def rows(pairs: LabeledPairs) -> list[tuple]:
    return list(zip(
        pairs.cause.tolist(), pairs.effect.tolist(), pairs.lag.tolist(),
        pairs.label.tolist(), pairs.rule.tolist(), pairs.drive_time.tolist(),
    ))


def two_station_positive_lags(d_ab, d_ba):
    """Positive lags of each (cause, effect) pair of two stations a and b
    on one road and direction."""
    meta = [
        StationMeta("a", "I-5", "N", 0.0, 0.0, ""),
        StationMeta("b", "I-5", "N", 0.0, 0.01, ""),
    ]
    positives = label_pairs(meta, matrix_2(d_ab, d_ba), SPEC).positives()
    lags = {("b", "a"): set(), ("a", "b"): set()}
    for cause, effect, lag, *_ in rows(positives):
        lags[cause, effect].add(lag)
    return lags


def test_flow_direction_cases():
    # the shorter drive runs with traffic, from effect to cause
    assert two_station_positive_lags(1.0, 1.2) == {("b", "a"): {1, 2}, ("a", "b"): set()}
    assert two_station_positive_lags(1.2, 1.0) == {("b", "a"): set(), ("a", "b"): {1, 2}}
    # equal drive times leave the direction ambiguous: no positives
    assert two_station_positive_lags(1.0, 1.0) == {("b", "a"): set(), ("a", "b"): set()}


def positive_lags(effect_to_cause: float) -> set[int]:
    return two_station_positive_lags(effect_to_cause, effect_to_cause + 100.0)["b", "a"]


def test_expected_lags_ten_kilometer_example():
    # 6 minutes of free-flow drive at 100 kph is 10 km; congestion at
    # 20 kph needs 30 minutes, a lag of six, widened by one.
    assert positive_lags(6.0) == {6, 7}


def test_expected_lags_beyond_max_is_empty():
    assert positive_lags(9.0) == set()
    assert positive_lags(8.0) == {8}


def test_expected_lags_adjacent_clamps_to_one():
    assert positive_lags(0.0) == {1}
    assert positive_lags(0.2) == {1}


def test_expected_lags_rounds_half_up():
    assert positive_lags(2.5) == {3, 4}
    assert positive_lags(2.4) == {2, 3}


def test_dataset_spec_validation():
    with pytest.raises(ParameterError):
        DatasetSpec(ratio=0)
    with pytest.raises(ParameterError):
        DatasetSpec(l_max=0)


def test_labeled_pairs_columns():
    pairs = LabeledPairs(
        ["a", "b", "c"], ["x", "x", "y"], [1, 2, 3], [1, 0, 1],
        [RULE_POSITIVE, RULE_CROSS, RULE_POSITIVE], [1.0, 2.0, 3.0],
    )
    assert [pairs.lag.dtype, pairs.label.dtype, pairs.drive_time.dtype] == [
        np.int64, np.int8, np.float64
    ]
    assert pairs.cause.dtype == pairs.rule.dtype == object
    assert len(pairs) == 3
    assert rows(pairs.positives()) == [rows(pairs)[0], rows(pairs)[2]]
    assert rows(pairs.negatives()) == [rows(pairs)[1]]
    assert rows(pairs.take(slice(1))) == rows(pairs)[:1]
    assert rows(pairs.concat(pairs.take([2]))) == rows(pairs) + rows(pairs)[2:]
    with pytest.raises(ValidationError, match="equal length"):
        LabeledPairs(["a"], ["b"], [1, 2], [1], [RULE_POSITIVE], [1.0])


def _line_meta_and_matrix():
    """Three stations on one road; traffic flows a -> b -> c, one
    free-flow minute apart, return drives longer."""
    meta = [
        StationMeta("a", "I-5", "N", 0.0, 0.0, ""),
        StationMeta("b", "I-5", "N", 0.0, 0.01, ""),
        StationMeta("c", "I-5", "N", 0.0, 0.02, ""),
    ]
    minutes = np.array(
        [
            [0.0, 1.0, 2.0],
            [1.5, 0.0, 1.0],
            [3.0, 1.5, 0.0],
        ]
    )
    return meta, DriveTimeMatrix(["a", "b", "c"], minutes)


def test_label_pairs_on_a_single_road():
    meta, matrix = _line_meta_and_matrix()
    truth = label_pairs(meta, matrix, SPEC)
    assert len(truth.labeled) + len(truth.pool) == 3 * 2 * SPEC.l_max

    by_tuple = {row[:3]: row[3:5] for row in rows(truth.labeled)}
    # b is downstream of a: cause b, effect a, expected lags from D[a][b]=1.0
    assert by_tuple["b", "a", 1] == (1, RULE_POSITIVE)
    assert by_tuple["b", "a", 2] == (1, RULE_POSITIVE)
    assert by_tuple["b", "a", 3] == (0, RULE_OFF_LAG)
    # c is two stations downstream of a: D[a][c]=2.0 so lags {2,3}
    assert by_tuple["c", "a", 2] == (1, RULE_POSITIVE)
    assert by_tuple["c", "a", 1][0] == 0
    # upstream direction never qualifies: (a, b, *) sits in the pool
    pool_tuples = {row[:3] for row in rows(truth.pool)}
    assert ("a", "b", 1) in pool_tuples
    assert ("a", "c", 1) in pool_tuples


def test_cross_road_and_direction_negative_at_every_lag():
    meta = [
        StationMeta("a", "I-5", "N", 0.0, 0.0, ""),
        StationMeta("b", "I-105", "E", 0.0, 0.01, ""),
    ]
    matrix = matrix_2(120.0, 130.0)
    truth = label_pairs(meta, matrix, SPEC)
    assert len(truth.labeled) == 2 * SPEC.l_max
    assert {row[3:5] for row in rows(truth.labeled)} == {(0, RULE_CROSS)}
    assert len(truth.pool) == 0


def test_rubbernecking_and_same_direction_cross_road_stay_unlabeled():
    meta = [
        StationMeta("a", "I-5", "N", 0.0, 0.0, ""),
        StationMeta("b", "I-5", "S", 0.0, 0.01, ""),   # same road, other direction
        StationMeta("c", "I-105", "N", 0.0, 0.02, ""),  # other road, same direction
    ]
    minutes = np.array([[0.0, 5.0, 6.0], [7.0, 0.0, 8.0], [9.0, 10.0, 0.0]])
    truth = label_pairs(meta, DriveTimeMatrix(["a", "b", "c"], minutes), SPEC)
    labeled_pairs = {row[:2] for row in rows(truth.labeled)}
    assert ("a", "b") not in labeled_pairs  # rubbernecking: pool only
    assert ("a", "c") not in labeled_pairs  # same direction, different road: pool
    pool_pairs = {row[:2] for row in rows(truth.pool)}
    assert {("a", "b"), ("b", "a"), ("a", "c"), ("c", "a")} <= pool_pairs


def test_ambiguous_flow_excluded_from_positives():
    meta = [
        StationMeta("a", "I-5", "N", 0.0, 0.0, ""),
        StationMeta("b", "I-5", "N", 0.0, 0.01, ""),
    ]
    truth = label_pairs(meta, matrix_2(2.0, 2.0), SPEC)
    assert len(truth.labeled) == 0
    assert len(truth.pool) == 2 * SPEC.l_max


def test_candidate_count_formula():
    rng = np.random.default_rng(2)
    for n, l_max in ((3, 2), (5, 8), (8, 4)):
        meta = [
            StationMeta(
                f"s{k}",
                rng.choice(["I-5", "I-105"]),
                rng.choice(["N", "S", "E", "W"]),
                0.0, float(k), "",
            )
            for k in range(n)
        ]
        minutes = rng.uniform(1, 200, (n, n))
        np.fill_diagonal(minutes, 0.0)
        truth = label_pairs(meta, DriveTimeMatrix([m.station_id for m in meta], minutes),
                            DatasetSpec(l_max=l_max))
        assert len(truth.labeled) + len(truth.pool) == n * (n - 1) * l_max


def test_positives_respect_every_rule():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = 6
        meta = [
            StationMeta(
                f"s{k}",
                str(rng.choice(["I-5", "I-105"])),
                str(rng.choice(["N", "S"])),
                0.0, float(k), "",
            )
            for k in range(n)
        ]
        minutes = rng.uniform(0.5, 30, (n, n))
        np.fill_diagonal(minutes, 0.0)
        matrix = DriveTimeMatrix([m.station_id for m in meta], minutes)
        truth = label_pairs(meta, matrix, SPEC)
        by_id = {m.station_id: m for m in meta}
        seen = set()
        for cause_id, effect_id, lag, label, _, _ in rows(truth.labeled):
            key = (cause_id, effect_id, lag)
            assert key not in seen  # never both positive and negative
            seen.add(key)
            if label == 1:
                cause, effect = by_id[cause_id], by_id[effect_id]
                assert cause.road == effect.road
                assert cause.direction == effect.direction
                assert lag >= 1
                back = matrix.get(effect_id, cause_id)
                assert back < matrix.get(cause_id, effect_id)
                # 100 kph free flow, 20 kph propagation, 5-minute slots
                base = int(back * 100.0 / 60.0 / 20.0 * 60.0 / 5 + 0.5)
                assert base <= lag <= base + groundtruth.SOFT_THRESHOLD


def _toy_truth(n_pos=3, pool=10, extra_negative=False):
    n_neg = int(extra_negative)
    labeled = LabeledPairs(
        [f"p{k}" for k in range(n_pos)] + ["z"] * n_neg, ["x"] * (n_pos + n_neg),
        [1] * n_pos + [2] * n_neg, [1] * n_pos + [0] * n_neg,
        [RULE_POSITIVE] * n_pos + [RULE_CROSS] * n_neg, [1.0] * n_pos + [200.0] * n_neg,
    )
    pool_rows = LabeledPairs(
        [f"n{k}" for k in range(pool)], ["x"] * pool, [1] * pool, [0] * pool,
        [RULE_RESIDUAL] * pool, [float(100 - k) for k in range(pool)],
    )
    return GroundTruth(labeled, pool_rows)


def test_build_dataset_counts_and_prefix():
    truth = _toy_truth(n_pos=3, pool=10)
    ds = build_dataset(truth, ratio=2)
    assert len(ds.pairs.positives()) == 3
    negatives = ds.pairs.negatives()
    assert len(negatives) == 6
    assert negatives.cause.tolist() == [f"n{k}" for k in range(6)]
    assert ds.min_negative_drive_time == 95.0
    assert set(negatives.rule.tolist()) == {RULE_DISTANT}

    ds1 = build_dataset(truth, ratio=1)
    assert set(rows(ds1.pairs.negatives())) <= set(rows(negatives))


def test_build_dataset_pool_exhausted_takes_all():
    truth = _toy_truth(n_pos=5, pool=4)
    ds = build_dataset(truth, ratio=2)
    assert len(ds.pairs.negatives()) == 4


def test_full_dataset_includes_everything():
    truth = _toy_truth(n_pos=3, pool=10, extra_negative=True)
    ds = full_dataset(truth)
    assert len(ds.pairs) == 3 + 1 + 10
    assert len(ds.pairs.negatives()) == 11
    assert ds.min_negative_drive_time == 91.0


def test_datasets_without_negatives_have_nan_min_drive_time():
    truth = _toy_truth(n_pos=2, pool=0)
    assert math.isnan(build_dataset(truth, 1).min_negative_drive_time)
    assert math.isnan(full_dataset(truth).min_negative_drive_time)


# Ids out of string order, roads and directions drawn from few values, and
# drive times from a short list (ties, exact half-slot and window-edge
# values) or any float in range.
IDS = ["S10", "S2", "a", "B", "s01", "z9", "Z"]
MINUTES = st.sampled_from([0.0, 0.5, 1.0, 2.4, 2.5, 6.0, 8.0, 9.0, 45.0]) | st.floats(0, 60)


@st.composite
def corpora(draw):
    ids = draw(st.lists(st.sampled_from(IDS), unique=True, max_size=len(IDS)))
    meta = [
        StationMeta(sid, draw(st.sampled_from(["I-5", "I-105"])),
                    draw(st.sampled_from(["N", "S", "E"])), 0.0, 0.0, "")
        for sid in ids
    ]
    in_matrix = draw(st.permutations(ids))
    if in_matrix and draw(st.booleans()):
        in_matrix = in_matrix[1:]  # one station missing from the matrix
    m = len(in_matrix)
    minutes = np.array(draw(st.lists(MINUTES, min_size=m * m, max_size=m * m))).reshape(m, m)
    np.fill_diagonal(minutes, 0.0)
    spec = DatasetSpec(l_max=draw(st.integers(1, 8)))
    soft = draw(st.integers(0, 2))
    return meta, DriveTimeMatrix(in_matrix, minutes), spec, soft, draw(st.integers(1, 3))


def _csv_bytes(table) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(DATASET_HEADER)
    writer.writerows([c, e, lag, label, rule, repr(d)] for c, e, lag, label, rule, d in table)
    return out.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(corpora())
def test_datasets_match_the_loop_reference(corpus):
    meta, matrix, spec, soft, ratio = corpus
    with mock.patch.object(groundtruth, "SOFT_THRESHOLD", soft):
        labeled, pool = label_pairs_reference(meta, matrix, spec)
        truth = label_pairs(meta, matrix, spec)
    positives = [row for row in labeled if row[3] == 1]
    distant = [(c, e, lag, 0, RULE_DISTANT, d) for c, e, lag, d in pool[:ratio * len(positives)]]
    residual = [(c, e, lag, 0, RULE_RESIDUAL, d) for c, e, lag, d in pool]

    assert len(truth.positives()) == len(positives)
    assert len(truth.negatives()) == len(labeled) - len(positives)
    assert len(truth.pool) == len(pool)
    ratio_set, full_set = build_dataset(truth, ratio), full_dataset(truth)
    with tempfile.TemporaryDirectory() as tmp:
        for name, dataset, expected in (
            ("dataset.csv", ratio_set, positives + distant),
            ("dataset_full.csv", full_set, labeled + residual),
        ):
            write_dataset_csv(Path(tmp) / name, dataset)
            assert (Path(tmp) / name).read_bytes() == _csv_bytes(expected)
            drives = [row[5] for row in expected if row[3] == 0]
            assert repr(dataset.min_negative_drive_time) == repr(min(drives, default=math.nan))
