"""End-to-end orchestration: events -> counts -> MLE -> labels -> classifier.

Every stage writes a plain CSV so any stage can be re-run from the
previous stage's output.  The sweep is a ``SweepTable`` of columns, its
(cause, effect, lag) keys included: station ids once, int32 station codes
and an int64 lag per row.  The large artifacts (events, counts, mle and
dataset CSVs) are written a column and a block of rows at a time by
``ingest.write_columns``, with the bytes of a row-wise ``csv.writer``.
events, counts, mle and dataset CSVs are read back column-wise, and their
values checked once on the columns; nexica skips an mle.csv's estimate
columns and recomputes them.  ``metrics.json`` is deterministic (same
config and seed, same bytes); wall times go to ``timings.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import math
import os
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import classify as cls
from .correspond import CorrespondenceCounts, lagged_counts
from .errors import (
    ConsistencyError, FormatError, NexicaError, ParameterError, ParseError, StageError,
)
from .events import EventSeries, extract_events
from .groundtruth import (
    RULES,
    DatasetSpec,
    GroundTruthDataset,
    LabeledPairs,
    build_dataset,
    full_dataset,
    label_pairs,
)
from .ingest import (
    FLAG, ID, INT, SKIP, SPEED, filter_stations, load_drive_times, load_fields,
    load_json, load_speed_csv, load_station_meta, numbered_rows, read_columns, read_rows,
    write_columns, write_csv,
)
from .mle import CASES, MAX_WINDOW, CausalEstimate, estimate_many

# Kept for perfbench's traced bodies, which wrap these re-exports; nexica does not call them.
from .correspond import count_from_indices  # noqa: F401
from .mle import estimate  # noqa: F401

log = logging.getLogger(__name__)

TOP_K_EDGES = 50


@dataclass
class RunConfig:
    """Flat, file-backed configuration for a full pipeline run: a JSON object
    with these keys, each value of its field's JSON type (checked by
    ``ingest.load_fields``).  Only a run needs ``out_dir``, which ``nexica
    run --out-dir`` overrides; a grid search writes no run directory."""

    speeds: str = ""
    meta: str = ""
    drive_times: str = ""
    out_dir: str = ""
    truth: str | None = None
    alpha: float = 0.25
    tau: int = 0
    l_max: int = 8
    min_completeness: float = 0.9
    ratio: int = 1
    n_trees: int = 1000
    folds: int = 5
    seed: int = 0
    full_dataset_cv: bool = True

    @classmethod
    def from_file(cls, path, **overrides) -> "RunConfig":
        raw = load_fields(path, cls, "config")
        raw.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**raw)

    def validated(self) -> "RunConfig":
        """The config, once its input files exist and every method setting
        is in range; a setting out of range gets its stage's message."""
        for key in ("speeds", "meta", "drive_times"):
            path = getattr(self, key)
            if not path or not os.path.exists(path):
                raise ParameterError(f"config.{key}: path {path!r} does not exist")
        for ok, message in (
            (self.alpha > 0, f"alpha must be > 0, got {self.alpha}"),
            (self.tau >= 0, f"tau must be >= 0, got {self.tau}"),
            (self.l_max >= 1, f"l_max must be >= 1, got {self.l_max}"),
            (0.0 <= self.min_completeness <= 1.0,
             f"min_completeness {self.min_completeness} outside [0, 1]"),
            (self.ratio >= 1, "ratio must be >= 1"),
            (self.n_trees >= 1, "n_trees must be >= 1"),
            (self.folds >= 2, "folds must be >= 2"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ):
            if not ok:
                raise ParameterError(message)
        return self


@dataclass
class SweepTable:
    """Counts and estimates for every swept (cause, effect, lag) tuple, as
    columns: row ``k`` of each array belongs to the tuple ``key(k)``."""

    station_ids: list[str]
    cause: np.ndarray  # int32 codes into station_ids
    effect: np.ndarray  # int32 codes into station_ids
    lag: np.ndarray  # int64
    counts: np.ndarray  # (n, 4) int64 columns a00, a01, a10, a11
    p_s: np.ndarray
    p_c: np.ndarray
    p_c_raw: np.ndarray
    loglik: np.ndarray
    case: np.ndarray  # int8 codes into mle.CASES

    def __len__(self) -> int:
        return len(self.lag)

    def key(self, k: int) -> tuple[str, str, int]:
        """The (cause, effect, lag) tuple of row ``k``."""
        return self.station_ids[self.cause[k]], self.station_ids[self.effect[k]], int(self.lag[k])

    def key_columns(self) -> list[np.ndarray]:
        """Columns cause, effect (object arrays of ids) and lag, as the CSV artifacts hold them."""
        ids = np.array(self.station_ids, dtype=object)
        return [ids[self.cause], ids[self.effect], self.lag]

    def feature_matrix(self, rows=slice(None)) -> np.ndarray:
        """Columns a00, a01, a10, a11, p_c of ``rows`` (all by default); undefined p_c maps to 0."""
        pc = self.p_c[rows]
        return np.column_stack([self.counts[rows], np.where(np.isnan(pc), 0.0, pc)])

    def case_tally(self) -> dict[str, int]:
        tally = np.bincount(self.case, minlength=len(CASES)).tolist()
        return {c.value: n for c, n in zip(CASES, tally)}

    # Kept for perfbench's bodies, which take len(table.tuples) and table.tuples[k];
    # nexica calls len(table) and table.key(k).
    @property
    def tuples(self) -> Sequence[tuple[str, str, int]]:
        """A read-only sequence view of ``key`` over the rows."""
        return _Keys(self)

    # Kept for perfbench's traced run-pipeline body; nexica reads the columns.
    @functools.cached_property
    def estimates(self) -> list[CausalEstimate]:
        """The rows as ``CausalEstimate`` objects, built on first use."""
        return [
            CausalEstimate(p_s, p_c, ll, CASES[case], raw)
            for p_s, p_c, ll, case, raw in zip(
                self.p_s.tolist(), self.p_c.tolist(), self.loglik.tolist(),
                self.case.tolist(), self.p_c_raw.tolist(),
            )
        ]


class _Keys(Sequence):
    """``SweepTable.tuples``: ``key`` as a read-only sequence."""

    def __init__(self, table: SweepTable):
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, k: int) -> tuple[str, str, int]:
        return self.table.key(k)


# ---------------------------------------------------------------------------
# sweep

def sweep(series: list[EventSeries], l_max: int, tau: int = 0) -> SweepTable:
    """Counts plus MLE for all ordered pairs at lags 1..l_max.

    Rows run over causes, then effects, then lags, in the order of
    ``series``.  One batched kernel (``correspond.lagged_counts`` and
    ``mle.estimate_many``) does the whole sweep in this process.
    """
    if not series:
        raise ConsistencyError("no event series to sweep")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ConsistencyError(f"event series lengths differ: {sorted(lengths)}")
    m = lengths.pop()
    n = len(series)
    counts = lagged_counts([s.event_indices() for s in series], m, l_max, tau)
    cause, effect, lag = np.indices((n, n, l_max)).reshape(3, -1)
    keep = cause != effect
    counts = counts[~np.eye(n, dtype=bool)].reshape(-1, 4)
    return SweepTable(
        [s.station_id for s in series], cause[keep].astype(np.int32),
        effect[keep].astype(np.int32), lag[keep] + 1, counts, *estimate_many(counts),
    )


# ---------------------------------------------------------------------------
# stage artifacts

EVENTS_HEADER = ["station_id", "slot_index", "event"]
COUNTS_HEADER = ["cause", "effect", "lag", "a00", "a01", "a10", "a11"]
MLE_HEADER = COUNTS_HEADER + ["p_s", "p_c", "p_c_raw", "loglik", "case"]
DATASET_HEADER = ["cause", "effect", "lag", "label", "rule", "drive_time"]
TOPK_HEADER = ["cause", "effect", "lag", "p_forest", "p_c", "p_s"]


def write_events_csv(path, series: list[EventSeries]) -> None:
    """One row per detected event (sparse), and one ``sid,0,0`` row for a
    station without events so that it survives the round trip.  Pair
    counting needs the slot count separately since trailing slots may
    hold no events."""
    indices = [s.event_indices() for s in series]
    n_rows = [max(ix.size, 1) for ix in indices]
    write_columns(path, EVENTS_HEADER, [
        np.repeat(np.array([s.station_id for s in series], dtype=object), n_rows),
        np.concatenate([np.zeros(0, np.int64), *(ix if ix.size else [0] for ix in indices)]),
        np.repeat(np.array([ix.size > 0 for ix in indices], dtype=np.int64), n_rows),
    ])


def read_events_csv(path, n_slots: int) -> list[EventSeries]:
    """The stations of an events.csv in id order, each ``n_slots`` slots long."""
    if not 1 <= n_slots <= MAX_WINDOW:
        raise ParameterError(f"slots must be in 1..{MAX_WINDOW}, got {n_slots}")

    def checks(ids, code, slot, event):
        rules = [
            ((slot < 0) | (slot >= n_slots), lambda k: f"slot {slot[k]} outside 0..{n_slots - 1}"),
            ((event != 0) & (event != 1), lambda k: f"event must be 0 or 1, got {event[k]}"),
        ]
        key = code.astype(np.int64) * n_slots + slot
        return rules, key, lambda k: f"station {ids[code[k]]} slot {slot[k]}"

    ids, (code, slot, event) = _read_columns(
        path, EVENTS_HEADER, (ID, INT, FLAG), EVENTS_HEADER.__eq__,
        (FormatError(f"{path}: expected header {','.join(EVENTS_HEADER)}"),
         "expected station_id,slot,event", "slot and event must fit in 64 bits"), checks)
    events = np.zeros((len(ids), n_slots), dtype=bool)
    events[code[event == 1], slot[event == 1]] = True
    return [EventSeries(ids[i], events[i]) for i in sorted(range(len(ids)), key=ids.__getitem__)]


def _read_columns(path, header, kinds, header_ok, errors, checks):
    """``(ids, columns)`` of a table whose leading ``ID`` columns are station
    ids: by ``ingest.read_columns`` in its writer's form (``header`` or its
    first ``len(kinds)`` names), else by ``numbered_rows`` into an ``array``
    per column (``ID`` a code into ``ids``, ``INT`` and ``FLAG`` an int64,
    ``SPEED`` a float).  ``errors``: the header's, then those of a row without
    its numbers or past 64 bits.  ``checks(ids, *columns)`` gives (row mask,
    message) checks, a key and a name per row: the first row failing one (or
    with an empty station id) raises, even before an unreadable row, and then
    the first to repeat a key."""
    n_sids, forms = kinds.index(INT), {",".join(header[:len(kinds)]): kinds}
    forms[",".join(header)] = kinds + (SKIP,) * (len(header) - len(kinds))
    codes: dict[str, int] = {}  # id -> code, row by row (an unreadable row may leave its ids)
    buffers, lines = [array({ID: "i", SPEED: "d"}.get(kind, "q")) for kind in kinds], array("q")
    converts = [(lambda v: codes.setdefault(v, len(codes))) if kind is ID
                else float if kind is SPEED else int for kind in kinds]

    def parse(row):  # appends the row to every buffer or to none
        try:
            if len(row) < len(kinds):
                raise ValueError
            for buffer, convert, v in zip(buffers, converts, row):
                buffer.append(convert(v))
        except (ValueError, OverflowError) as exc:
            for buffer in buffers:
                del buffer[len(lines):]
            raise FormatError(errors[2] if isinstance(exc, OverflowError) else errors[1]) from None

    table, error = read_columns(path, forms), None
    if table is not None:
        (ids, columns), line = table, lambda k: k + 2
    else:
        try:
            for n, _ in numbered_rows(path, header_ok, parse, errors[0]):
                lines.append(n)
        except NexicaError as exc:
            error = exc
        ids, line = list(codes), lines.__getitem__
        columns = [np.frombuffer(buffer, buffer.typecode) for buffer in buffers]
    empty = np.array([not sid for sid in ids], dtype=bool)
    rules, key, name = checks(ids, *columns)
    rules = [(empty[columns[:n_sids]].any(axis=0), lambda k: "empty station id"), *rules]
    faults = np.array([mask for mask, _ in rules]).T  # row by row, each row's checks in order
    if faults.any():
        k, r = divmod(int(np.argmax(faults)), len(rules))
        raise ParseError(f"{path}: line {line(k)}: {rules[r][1](k)}")
    if error is not None:
        raise error
    if not (key[1:] > key[:-1]).all():  # rows in key order, as nexica writes them, repeat none
        keys, first = np.unique(key, return_index=True)  # the first row of each key
        if keys.size < key.size:
            k = np.setdiff1d(np.arange(key.size), first)[0]  # the first row that repeats one
            seen = first[np.searchsorted(keys, key[k])]
            raise FormatError(f"{path}: line {line(k)}: {name(k)} repeats line {line(seen)}")
    return ids, columns


def write_counts_csv(path, table: SweepTable) -> None:
    write_columns(path, COUNTS_HEADER, [*table.key_columns(), *table.counts.T])


def _counts_checks(ids, cause, effect, lag, *counts):
    """A lag >= 1, counts >= 0 and a window (their sum) in 1..mle.MAX_WINDOW;
    the (cause, effect, lag) tuple as the key."""
    counts = np.column_stack(counts)
    window = np.minimum(counts, MAX_WINDOW + 1).sum(axis=1)  # no overflow past the bound
    rules = [
        (lag < 1, lambda k: f"lag must be >= 1, got {lag[k]}"),
        ((counts < 0).any(axis=1), lambda k: f"negative correspondence count in {counts[k].tolist()}"),
        ((window < 1) | (window > MAX_WINDOW),
         lambda k: f"window {sum(counts[k].tolist())} outside 1..{MAX_WINDOW}"),
    ]
    key = _tuple_keys(len(ids), cause, effect, lag)
    return rules, key, lambda k: f"tuple {(ids[cause[k]], ids[effect[k]], int(lag[k]))}"


def read_counts_table(path) -> SweepTable:
    """The rows of a counts.csv, or the first seven columns of an mle.csv,
    with the estimates of their counts as ``sweep`` makes them; an mle.csv's
    own estimate columns are not read.  A repeated tuple is a ``FormatError``."""
    ids, (cause, effect, lag, *counts) = _read_columns(
        path, MLE_HEADER, (ID, ID, INT, INT, INT, INT, INT), lambda head: head[:7] == COUNTS_HEADER,
        (ParameterError(f"{path}: not a counts.csv (expected header {','.join(COUNTS_HEADER)})"),
         "expected cause,effect,lag,a00,a01,a10,a11 with integer lag and counts",
         "lag and counts must fit in 64 bits"), _counts_checks)
    counts = np.column_stack(counts)
    return SweepTable(ids, cause, effect, lag, counts, *estimate_many(counts))


# Kept for perfbench's traced stagewise-tau1 body; nexica calls read_counts_table.
def read_counts_csv(path, tau: int = 0) -> list[tuple[str, str, int, CorrespondenceCounts]]:
    """Rows of a counts.csv (or the first seven columns of an mle.csv)."""
    table = read_counts_table(path)
    return [
        (*key, CorrespondenceCounts.from_counts(*a, lag=key[2], tau=tau))
        for key, a in zip(table.tuples, table.counts.tolist())
    ]


# Kept for perfbench's traced stagewise-tau1 body; nexica calls write_mle_csv.
def write_mle_rows(path, rows) -> None:
    """``rows`` yields (cause, effect, lag, counts, estimate) tuples."""
    rows, ids = list(rows), {}
    ests, fields = [row[4] for row in rows], ("p_s", "p_c", "p_c_raw", "log_likelihood")
    keys = [(ids.setdefault(c, len(ids)), ids.setdefault(e, len(ids)), lag) for c, e, lag, *_ in rows]
    write_mle_csv(path, SweepTable(
        list(ids), *np.array(keys, dtype=np.int64).reshape(-1, 3).T,
        np.array([row[3].as_tuple() for row in rows]).reshape(-1, 4),
        *(np.array([getattr(e, f) for e in ests]) for f in fields),
        np.array([CASES.index(e.case) for e in ests], dtype=np.int8),
    ))


def write_mle_csv(path, table: SweepTable) -> None:
    names = np.array([c.value for c in CASES], dtype=object)
    write_columns(path, MLE_HEADER, [
        *table.key_columns(), *table.counts.T,
        table.p_s, table.p_c, table.p_c_raw, table.loglik, names[table.case],
    ])


def write_dataset_csv(path, dataset: GroundTruthDataset) -> None:
    p = dataset.pairs
    write_columns(path, DATASET_HEADER, [p.cause, p.effect, p.lag, p.label, p.rule, p.drive_time])


def _dataset_checks(ids, cause, effect, lag, label, rule, drive_time):
    """Cause and effect apart, a lag >= 1 and a label 0 or 1; the tuple as the key."""
    rules = [
        (cause == effect, lambda k: "cause and effect must differ"),
        (lag < 1, lambda k: f"lag {lag[k]} outside 1..2**63-1"),
        ((label != 0) & (label != 1), lambda k: f"label must be 0 or 1, got {label[k]}"),
    ]
    key = _tuple_keys(len(ids), cause, effect, lag)
    return rules, key, lambda k: f"tuple {(ids[cause[k]], ids[effect[k]], int(lag[k]))}"


def read_dataset_csv(path) -> LabeledPairs:
    """The rows of a dataset.csv, each id and rule one shared ``str`` (those of
    ``RULES`` for theirs); a repeated tuple is a ``FormatError``."""
    ids, (cause, effect, lag, label, rule, drive_time) = _read_columns(
        path, DATASET_HEADER, (ID, ID, INT, FLAG, ID, SPEED), DATASET_HEADER.__eq__,
        (ParameterError(f"{path}: unexpected dataset header"),
         "expected cause,effect,lag,label,rule,drive_time with integer lag and label, numeric"
         " drive_time", "lag and label must fit in 64 bits"), _dataset_checks)
    shared = {r: r for r in RULES}
    names = np.array([shared.get(sid, sid) for sid in ids], dtype=object)
    return LabeledPairs(names[cause], names[effect], lag, label, names[rule], drive_time)


def write_roc_csv(path, roc: cls.RocResult) -> None:
    points = zip(roc.thresholds.tolist(), roc.fpr[1:].tolist(), roc.tpr[1:].tolist())
    write_csv(path, ["threshold", "fpr", "tpr"], [
        ["", repr(0.0), repr(0.0)], *([repr(t), repr(f), repr(r)] for t, f, r in points)
    ])


def dump_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# feature assembly

def _tuple_keys(n_ids: int, cause: np.ndarray, effect: np.ndarray, lag: np.ndarray) -> np.ndarray:
    """One int64 key per (cause, effect, lag) row: ``(cause * n + effect) *
    L + lag rank`` over ``n_ids`` station codes and the L distinct lags,
    below n * n * L, so a lag up to 2**63 - 1 does not overflow it."""
    lags, rank = np.unique(lag, return_inverse=True)
    return (cause.astype(np.int64, copy=False) * n_ids + effect) * len(lags) + rank


def dataset_rows(table: SweepTable, pairs: LabeledPairs) -> np.ndarray:
    """The table row of each tuple of a dataset, found by ``_tuple_keys``
    over the tuples of both sides."""
    code = {sid: k for k, sid in enumerate(table.station_ids)}
    cause, effect = (np.fromiter(map(code.get, ids.tolist(), repeat(-1)), np.int64, len(pairs))
                     for ids in (pairs.cause, pairs.effect))
    key = _tuple_keys(len(code), *(np.concatenate(pair) for pair in (
        (table.cause, cause), (table.effect, effect), (table.lag, pairs.lag))))
    keys, wanted = key[:len(table)], key[len(table):]
    order, asked = np.argsort(keys, kind="stable"), np.argsort(wanted)
    at = np.empty_like(wanted)  # searchsorted runs faster on sorted needles
    at[asked] = np.searchsorted(keys[order], wanted[asked], side="right") - 1
    found = (at >= 0) & (cause >= 0) & (effect >= 0)
    found[found] = keys[order[at[found]]] == wanted[found]
    if not found.all():
        k = int(np.argmin(found))
        missing = (pairs.cause[k], pairs.effect[k], int(pairs.lag[k]))
        raise ConsistencyError(f"dataset tuple {missing} was not swept")
    return order[at]


def dataset_features(table: SweepTable, pairs: LabeledPairs) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (a00, a01, a10, a11, p_c) and labels for a dataset."""
    return table.feature_matrix(dataset_rows(table, pairs)), pairs.label


COUNT_MASK = (0, 1, 2, 3)
PC_COLUMN = 4


def write_topk_csv(path, table: SweepTable, model: cls.ForestModel) -> None:
    """Score every tuple of ``table`` with ``model`` and write the
    ``TOP_K_EDGES`` best, the ranked causal edges."""
    matrix = table.feature_matrix()
    scores = cls.predict_proba(model, matrix)
    # break score ties (forests saturate at 1.0) by estimated causal probability
    top = np.lexsort((-matrix[:, PC_COLUMN], -scores))[:TOP_K_EDGES]
    write_csv(path, TOPK_HEADER, (
        [*table.key(k), repr(float(scores[k])),
         repr(float(table.p_c[k])), repr(float(table.p_s[k]))]
        for k in top.tolist()
    ))


# ---------------------------------------------------------------------------
# the run itself

def run_pipeline(config: RunConfig) -> dict:
    """Execute every stage, write artifacts, and return the metrics dict."""
    config = config.validated()
    if not config.out_dir:
        raise ParameterError("config.out_dir is required")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    def staged(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except NexicaError as exc:
            raise StageError(name, str(exc)) from exc
        timings[name] = time.perf_counter() - t0
        return result

    speeds, meta, matrix = staged("ingest", _ingest, config)
    event_series = staged("events", lambda: [extract_events(s, config.alpha) for s in speeds])
    del speeds  # free the series; metrics count stations and slots on the events
    staged("events-write", write_events_csv, out / "events.csv", event_series)
    table = staged("sweep", sweep, event_series, config.l_max, config.tau)
    staged("counts-write", write_counts_csv, out / "counts.csv", table)
    staged("mle-write", write_mle_csv, out / "mle.csv", table)

    truth, ratio_set, full_set = staged("ground-truth", _datasets, config, meta, matrix)
    staged("dataset-write", write_dataset_csv, out / "dataset.csv", ratio_set)
    staged("dataset-full-write", write_dataset_csv, out / "dataset_full.csv", full_set)

    gap = ratio_set.min_negative_drive_time  # NaN without negatives; JSON has no NaN
    metrics = {
        "config": {
            "alpha": config.alpha, "tau": config.tau, "l_max": config.l_max,
            "min_completeness": config.min_completeness, "ratio": config.ratio,
            "n_trees": config.n_trees, "folds": config.folds, "seed": config.seed,
        },
        "n_stations": len(event_series),
        "n_slots": len(event_series[0]) if event_series else 0,
        "n_tuples": len(table),
        "mle_cases": table.case_tally(),
        "diagnostics": {"corr_a01_a10": _corr_a01_a10(table)},
        "ground_truth": {
            "positives": len(truth.positives()),
            "immediate_negatives": len(truth.negatives()),
            "pool": len(truth.pool),
            "ratio_dataset_size": len(ratio_set.pairs),
            "full_dataset_size": len(full_set.pairs),
            "min_negative_drive_time": None if math.isnan(gap) else gap,
        },
    }

    classifier = staged("classify", _classify, config, table, ratio_set, full_set, out)
    metrics["classifier"] = classifier

    dump_json(out / "metrics.json", metrics)
    dump_json(out / "config.json", dataclasses.asdict(config))
    dump_json(out / "timings.json", {k: round(v, 6) for k, v in timings.items()})
    return metrics


def _corr_a01_a10(table: SweepTable) -> float | None:
    """Correlation of the two single-sided counts across the sweep.

    Reported as a diagnostic only: it is a property of the dataset, not
    an invariant of the method.
    """
    if len(table) < 2:
        return None
    a01 = table.counts[:, 1].astype(np.float64)
    a10 = table.counts[:, 2].astype(np.float64)
    if a01.std() == 0 or a10.std() == 0:
        return None
    return float(np.corrcoef(a01, a10)[0, 1])


def _ingest(config: RunConfig):
    series = load_speed_csv(config.speeds)
    meta = load_station_meta(config.meta)
    matrix = load_drive_times(config.drive_times)
    for s in series:
        if s.station_id not in matrix:
            log.warning("station %s missing from drive-time matrix; excluded", s.station_id)
    series, meta = filter_stations(
        [s for s in series if s.station_id in matrix], meta, config.min_completeness
    )
    if not series:
        raise ConsistencyError("no stations survived filtering")
    starts = {s.start_time for s in series}
    lengths = {len(s) for s in series}
    if len(starts) > 1 or len(lengths) > 1:
        raise ConsistencyError(
            "stations are not aligned on a common grid: "
            f"starts={sorted(t.isoformat() for t in starts)}, lengths={sorted(lengths)}"
        )
    return series, meta, matrix


def _datasets(config: RunConfig, meta, matrix):
    """The stations' ground truth, with its ratio'd and its full dataset."""
    truth = label_pairs(meta, matrix, DatasetSpec(ratio=config.ratio, l_max=config.l_max))
    return truth, build_dataset(truth, config.ratio), full_dataset(truth)


def _cross_validate(config: RunConfig, table: SweepTable, ratio_set, full_set) -> list:
    """The ROCs of the forest's cross-validations on the table rows of the
    ratio'd and the full set, their folds all grown in one pass over the
    table's counts; None for a set with fewer samples of a class than folds,
    and for the full set when ``config.full_dataset_cv`` is off."""
    cvs = [None, None]
    for k, dataset in enumerate([ratio_set, full_set] if config.full_dataset_cv else [ratio_set]):
        rows, labels = dataset_rows(table, dataset.pairs), dataset.pairs.label
        if min(n_pos := int(labels.sum()), labels.size - n_pos) >= config.folds:
            cvs[k] = cls.CrossValidation(rows, labels, config.folds, config.seed)
    votes = iter(cls.grow_fits(
        table.feature_matrix(), [fit for cv in cvs if cv is not None for fit in cv.fits],
        config.n_trees, COUNT_MASK,
    )[0])
    return [None if cv is None else cv.roc([next(votes) for _ in cv.fits], config.n_trees)
            for cv in cvs]


def _classify(config, table, ratio_set, full_set, out: Path):
    x, y = dataset_features(table, ratio_set.pairs)
    n_pos = int(y.sum())
    if min(n_pos, y.size - n_pos) < config.folds:  # before any tree grows
        return {"skipped_reason": f"need at least {config.folds} samples per class for "
                f"{config.folds}-fold evaluation (got {n_pos} positive, {y.size - n_pos} negative)"}
    ratio_cv, full_cv = _cross_validate(config, table, ratio_set, full_set)
    write_roc_csv(out / "roc_ratio.csv", ratio_cv)
    result = {
        "ratio_forest": ratio_cv.metrics(),
        "ratio_scalar_pc": cls.roc_auc(x[:, PC_COLUMN], y).metrics(),
    }
    if full_cv is not None:
        write_roc_csv(out / "roc_full.csv", full_cv)
        result["full_forest"] = full_cv.metrics()

    model = cls.train_forest(x, y, n_trees=config.n_trees, seed=config.seed, feature_mask=COUNT_MASK)
    write_topk_csv(out / "topk_edges.csv", table, model)
    result["model_hash"] = model.model_hash()
    return result


# ---------------------------------------------------------------------------
# grid search

def grid_search(
    alpha_values: list[float], tau_values: list[int], config: RunConfig
) -> list[dict]:
    """Re-run events -> counts -> features -> CV for every (alpha, tau).

    Ground-truth labels do not depend on alpha or tau, so they are built
    once.  Each row reports the ratio'd-set AUC ("balanced" at ratio 1),
    the full-set AUC (left empty when ``full_dataset_cv`` is off), and the
    cell's wall time.
    """
    if not alpha_values or not tau_values:
        raise ParameterError("alpha and tau value lists must be nonempty")
    for a, t in [(a, t) for a in alpha_values for t in tau_values]:
        dataclasses.replace(config, alpha=a, tau=t).validated()
    speeds, meta, matrix = _ingest(config)
    _, ratio_set, full_set = _datasets(config, meta, matrix)

    rows = []
    for alpha in alpha_values:
        event_series = [extract_events(s, alpha) for s in speeds]
        for tau in tau_values:
            t0 = time.perf_counter()
            table = sweep(event_series, config.l_max, tau)
            ratio_cv, full_cv = _cross_validate(config, table, ratio_set, full_set)
            rows.append({
                "alpha": alpha,
                "tau": tau,
                "ratio_auc": None if ratio_cv is None else ratio_cv.auc,
                "full_auc": None if full_cv is None else full_cv.auc,
                "seconds": round(time.perf_counter() - t0, 3),
            })
    return rows


def write_grid_csv(path, rows: list[dict]) -> None:
    write_csv(path, ["alpha", "tau", "ratio_auc", "full_auc", "seconds"], (
        [r["alpha"], r["tau"],
         "" if r["ratio_auc"] is None else repr(r["ratio_auc"]),
         "" if r["full_auc"] is None else repr(r["full_auc"]),
         r["seconds"]]
        for r in rows
    ))


# ---------------------------------------------------------------------------
# report

def report(run_dir) -> str:
    """Human-readable summary of a completed run directory."""
    run = Path(run_dir)
    missing = [
        name for name in ("metrics.json", "config.json") if not (run / name).exists()
    ]
    if missing:
        raise ParameterError(f"incomplete run dir {run}: missing {', '.join(missing)}")
    metrics = load_json(run / "metrics.json")
    config = load_json(run / "config.json")
    if not isinstance(config, dict):
        raise FormatError(f"{run / 'config.json'}: expected a JSON object")
    try:
        lines = [f"run summary: {run}", *_metrics_lines(metrics)]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(
            f"{run / 'metrics.json'}: not the metrics of a run ({type(exc).__name__}: {exc})"
        ) from None
    clf = metrics.get("classifier") or {}
    top_path = run / "topk_edges.csv"
    if clf and "skipped_reason" not in clf and top_path.exists():
        top = list(read_rows(
            top_path, TOPK_HEADER.__eq__,
            lambda row: ((row[0], row[1], int(row[2])), float(row[3]), float(row[4])),
            FormatError(f"{top_path}: expected header {','.join(TOPK_HEADER)}"),
        ))
        lines.append("  top edges by forest score:")
        for (cause, effect, lag), p_forest, p_c in top[:10]:
            lines.append(
                f"    {cause} -> {effect} @lag {lag}: "
                f"p_forest={p_forest:.3f}  p_c={p_c:.3f}"
            )
        truth_path = config.get("truth")
        if isinstance(truth_path, str) and os.path.exists(truth_path):
            ranked = [key for key, _, _ in top]
            lines.extend(_planted_comparison(truth_path, ranked, run / "mle.csv"))
    return "\n".join(lines)


def _metrics_lines(metrics: dict) -> list[str]:
    """The summary lines ``report`` reads from ``metrics.json``."""
    lines = [
        f"  stations={metrics['n_stations']}  slots={metrics['n_slots']}  "
        f"tuples={metrics['n_tuples']}"
    ]
    c = metrics["config"]
    lines.append(
        f"  alpha={c['alpha']}  tau={c['tau']}  l_max={c['l_max']}  "
        f"ratio=1:{c['ratio']}  trees={c['n_trees']}  folds={c['folds']}  seed={c['seed']}"
    )
    cases = metrics["mle_cases"]
    lines.append(
        "  mle cases: "
        + "  ".join(f"{k}={v}" for k, v in sorted(cases.items()))
    )
    gt = metrics["ground_truth"]
    lines.append(
        f"  ground truth: positives={gt['positives']}  "
        f"immediate_negatives={gt['immediate_negatives']}  pool={gt['pool']}"
    )
    gap = gt["min_negative_drive_time"]
    lines.append(
        f"  ratio dataset: n={gt['ratio_dataset_size']}  min negative drive time="
        + ("none" if gap is None else f"{gap:.1f} min")
    )
    clf = metrics.get("classifier") or {}
    if "skipped_reason" in clf or not clf:
        lines.append(
            "  evaluation skipped: " + clf.get("skipped_reason", "no classifier results")
        )
        return lines
    rf = clf["ratio_forest"]
    lines.append(
        f"  forest AUC (ratio set): {rf['auc']:.4f} +/- {rf['auc_std']:.4f}"
    )
    lines.append(
        f"  scalar p_c AUC (ratio set): {clf['ratio_scalar_pc']['auc']:.4f}"
    )
    if "full_forest" in clf:
        ff = clf["full_forest"]
        lines.append(
            f"  forest AUC (full set): {ff['auc']:.4f} +/- {ff['auc_std']:.4f}"
        )
    return lines


def _planted_comparison(truth_path: str, ranked: list, mle_path: Path) -> list[str]:
    """Planted edges of the truth file (header ``cause,effect,lag,...``)
    found among the top of ``ranked`` and of the mle.csv ranked by p_c."""
    planted = set(read_rows(
        truth_path, lambda header: header[:3] == COUNTS_HEADER[:3],
        lambda row: (row[0], row[1], int(row[2])),
        FormatError(f"{truth_path}: expected header cause,effect,lag,..."),
    ))
    k = min(len(planted), len(ranked))
    forest_hits = sum(1 for t in ranked[:k] if t in planted)
    lines = [
        f"  planted edges recovered in top {k} by forest score: "
        f"{forest_hits} of {len(planted)}"
    ]
    if mle_path.exists():
        table = read_counts_table(mle_path)
        defined = np.flatnonzero(~np.isnan(table.p_c))
        by_pc = defined[np.argsort(-table.p_c[defined], kind="stable")]
        pc_hits = sum(1 for r in by_pc[:k].tolist() if table.key(r) in planted)
        lines.append(
            f"  planted edges recovered in top {k} by estimated p_c: "
            f"{pc_hits} of {len(planted)}"
        )
    return lines
