"""End-to-end orchestration: events -> counts -> MLE -> labels -> classifier.

Every stage writes a plain CSV so any stage can be re-run from the
previous stage's output.  ``metrics.json`` contains only deterministic
content (identical config and seed give byte-identical bytes); wall
times go to ``timings.json``.
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classify as cls
from .correspond import CorrespondenceCounts, lagged_counts
from .errors import (
    ConsistencyError, FormatError, NexicaError, ParameterError, StageError,
)
from .events import EventSeries, extract_events, median_week_profile
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
    SpeedSeries,
    filter_stations,
    load_drive_times,
    load_fields,
    load_json,
    load_speed_csv,
    load_station_meta,
    read_rows,
    write_csv,
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
    ``ingest.load_fields``); CLI flags override file values."""

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
        for key in ("speeds", "meta", "drive_times"):
            path = getattr(self, key)
            if not path or not os.path.exists(path):
                raise ParameterError(f"config.{key}: path {path!r} does not exist")
        if not self.out_dir:
            raise ParameterError("config.out_dir is required")
        return self


@dataclass
class SweepTable:
    """Counts and estimates for every swept (cause, effect, lag) tuple, as
    columns: row ``k`` of each array belongs to ``tuples[k]``."""

    tuples: list[tuple[str, str, int]]
    counts: np.ndarray  # (n, 4) int64 columns a00, a01, a10, a11
    p_s: np.ndarray
    p_c: np.ndarray
    p_c_raw: np.ndarray
    loglik: np.ndarray
    case: np.ndarray  # int8 codes into mle.CASES

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

    @functools.cached_property
    def index(self) -> dict[tuple[str, str, int], int]:
        """Row of each tuple, built on first use."""
        return {t: k for k, t in enumerate(self.tuples)}

    def feature_matrix(self, rows=slice(None)) -> np.ndarray:
        """Columns a00, a01, a10, a11, p_c of ``rows`` (all by default); undefined p_c maps to 0."""
        pc = self.p_c[rows]
        return np.column_stack([self.counts[rows], np.where(np.isnan(pc), 0.0, pc)])

    def case_tally(self) -> dict[str, int]:
        tally = np.bincount(self.case, minlength=len(CASES)).tolist()
        return {c.value: n for c, n in zip(CASES, tally)}


# ---------------------------------------------------------------------------
# sweep

def sweep(series: list[EventSeries], l_max: int, tau: int = 0) -> SweepTable:
    """Counts plus MLE for all ordered pairs at lags 1..l_max.

    Rows run over causes, then effects, then lags, in the order of
    ``series``.  One batched kernel (``correspond.lagged_counts`` and
    ``mle.estimate_many``) does the whole sweep in this process.
    """
    if l_max < 1:
        raise ParameterError(f"l_max must be >= 1, got {l_max}")
    lengths = {len(s) for s in series}
    if len(lengths) != 1:
        raise ConsistencyError(f"event series lengths differ: {sorted(lengths)}")
    m = lengths.pop()
    n = len(series)
    counts = lagged_counts([s.event_indices() for s in series], m, l_max, tau)
    ids = [s.station_id for s in series]
    tuples = [
        (ids[i], ids[j], lag)
        for i in range(n) for j in range(n) if j != i for lag in range(1, l_max + 1)
    ]
    counts = counts[~np.eye(n, dtype=bool)].reshape(-1, 4)
    return SweepTable(tuples, counts, *estimate_many(counts))


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
    write_csv(path, EVENTS_HEADER, (
        row for s in series
        for row in [[s.station_id, j, 1] for j in s.event_indices().tolist()]
        or [[s.station_id, 0, 0]]
    ))


def read_events_csv(path, n_slots: int) -> list[EventSeries]:
    if not 1 <= n_slots <= MAX_WINDOW:
        raise ParameterError(f"slots must be in 1..{MAX_WINDOW}, got {n_slots}")

    def parse(row):
        try:
            sid, slot, event = row[0], int(row[1]), int(row[2])
        except (ValueError, IndexError):
            raise FormatError("expected station_id,slot,event") from None
        if not 0 <= slot < n_slots:
            raise FormatError(f"slot {slot} outside 0..{n_slots - 1}")
        if event not in (0, 1):
            raise FormatError(f"event must be 0 or 1, got {event}")
        return sid, slot, event

    by_station: dict[str, list[int]] = {}
    header_error = FormatError(f"{path}: expected header {','.join(EVENTS_HEADER)}")
    for sid, slot, event in read_rows(path, EVENTS_HEADER.__eq__, parse, header_error):
        slots = by_station.setdefault(sid, [])
        if event:
            slots.append(slot)
    out = []
    for sid in sorted(by_station):
        ev = np.zeros(n_slots, dtype=bool)
        ev[np.asarray(by_station[sid], dtype=np.int64)] = True
        out.append(EventSeries(sid, ev, ev, math.nan))
    return out


def write_profiles_csv(path, series: list[SpeedSeries]) -> None:
    write_csv(path, ["station_id", "week_slot", "median_speed"], (
        [s.station_id, k, "" if math.isnan(v) else repr(v)]
        for s in series
        for k, v in enumerate(median_week_profile(s).medians.tolist())
    ))


def _table_rows(table: SweepTable, *columns: np.ndarray, block: int = 8192):
    """``(tuple, *values)`` per row of ``table``; ``columns`` become Python
    objects ``block`` rows at a time, not a hundred megabytes at once."""
    for k in range(0, len(table.tuples), block):
        rows = slice(k, k + block)
        yield from zip(table.tuples[rows], *(c[rows].tolist() for c in columns))


def write_counts_csv(path, table: SweepTable) -> None:
    write_csv(path, COUNTS_HEADER, ([*t, *row] for t, row in _table_rows(table, table.counts)))


def _counts_row(row: list[str]) -> tuple[tuple[str, str, int], list[int]]:
    """The (cause, effect, lag) key and the four counts of a counts.csv or
    mle.csv row: an integer lag >= 1, integer counts >= 0, all below 2**63,
    and a window (the sum of the counts) in 1..mle.MAX_WINDOW."""
    try:
        numbers = [int(v) for v in row[2:7]]
    except ValueError:
        numbers = []
    if len(numbers) != 5:
        raise FormatError(
            "expected cause,effect,lag,a00,a01,a10,a11 with integer lag and counts"
        )
    if any(abs(v) >= 2**63 for v in numbers):
        raise FormatError("lag and counts must fit in 64 bits")
    lag, *counts = numbers
    if lag < 1:
        raise FormatError(f"lag must be >= 1, got {lag}")
    if min(counts) < 0:
        raise FormatError(f"negative correspondence count in {counts}")
    if not 1 <= sum(counts) <= MAX_WINDOW:
        raise FormatError(f"window {sum(counts)} outside 1..{MAX_WINDOW}")
    return (row[0], row[1], lag), counts


def _read_sweep_csv(path, header_ok, header_error, tail=lambda row: ()):
    """Tuples and ``(n, 4)`` int64 counts of a counts.csv or mle.csv, each
    row checked by ``_counts_row``, and the floats ``tail`` parses from the
    rest of each row as one flat float64 array."""
    ids, tuples, counts, rest = {}, [], array("q"), array("d")  # ids: one str per station
    rows = read_rows(path, header_ok, lambda row: (*_counts_row(row), tail(row)), header_error)
    for (cause, effect, lag), a, values in rows:
        tuples.append((ids.setdefault(cause, cause), ids.setdefault(effect, effect), lag))
        counts.extend(a)
        rest.extend(values)
    return tuples, np.frombuffer(counts, dtype=np.int64).reshape(-1, 4), np.frombuffer(rest)


def read_counts_table(path) -> SweepTable:
    """A counts.csv (or the first seven columns of an mle.csv) with the
    estimates of its counts, as ``sweep`` makes them."""
    tuples, counts, _ = _read_sweep_csv(
        path, lambda header: header[:7] == COUNTS_HEADER,
        ParameterError(f"{path}: not a counts.csv (expected header {','.join(COUNTS_HEADER)})"),
    )
    return SweepTable(tuples, counts, *estimate_many(counts))


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
    rows = list(rows)
    ests, fields = [row[4] for row in rows], ("p_s", "p_c", "p_c_raw", "log_likelihood")
    write_mle_csv(path, SweepTable(
        [row[:3] for row in rows], np.array([row[3].as_tuple() for row in rows]).reshape(-1, 4),
        *(np.array([getattr(e, f) for e in ests]) for f in fields),
        np.array([CASES.index(e.case) for e in ests], dtype=np.int8),
    ))


def write_mle_csv(path, table: SweepTable) -> None:
    names = [c.value for c in CASES]
    write_csv(path, MLE_HEADER, (
        [*t, *row, repr(p_s), repr(p_c), repr(raw), repr(ll), names[case]]
        for t, row, p_s, p_c, raw, ll, case in _table_rows(
            table, table.counts, table.p_s, table.p_c, table.p_c_raw, table.loglik, table.case)
    ))


def read_mle_csv(path) -> SweepTable:
    """Inverse of ``write_mle_csv``: writing the result back reproduces the
    file byte for byte."""
    code = {c.value: k for k, c in enumerate(CASES)}

    def tail(row):
        if len(row) != len(MLE_HEADER):
            raise FormatError(f"expected {len(MLE_HEADER)} fields")
        try:
            return [float(v) for v in row[7:11]] + [code[row[11]]]
        except (ValueError, KeyError):
            raise FormatError("malformed mle row") from None

    header_error = ParameterError(
        f"{path}: not an mle.csv (expected header {','.join(MLE_HEADER)}); "
        "run `nexica mle` on the counts first"
    )
    tuples, counts, rest = _read_sweep_csv(path, MLE_HEADER.__eq__, header_error, tail)
    p_s, p_c, p_c_raw, loglik, case = rest.reshape(-1, 5).T.copy()
    return SweepTable(tuples, counts, p_s, p_c, p_c_raw, loglik, case.astype(np.int8))


def write_dataset_csv(path, dataset: GroundTruthDataset) -> None:
    p = dataset.pairs
    write_csv(path, DATASET_HEADER, zip(
        p.cause.tolist(), p.effect.tolist(), p.lag.tolist(), p.label.tolist(),
        p.rule.tolist(), map(repr, p.drive_time.tolist()),
    ))


def read_dataset_csv(path) -> LabeledPairs:
    shared = {rule: rule for rule in RULES}  # one str object per distinct id and rule

    def parse(row):
        cause, effect, lag, label = row[0], row[1], int(row[2]), int(row[3])
        if cause == effect:
            raise FormatError("cause and effect must differ")
        if not 1 <= lag < 2**63:
            raise FormatError(f"lag {lag} outside 1..2**63-1")
        if label not in (0, 1):
            raise FormatError(f"label must be 0 or 1, got {label}")
        return (shared.setdefault(cause, cause), shared.setdefault(effect, effect), lag, label,
                shared.setdefault(row[4], row[4]), float(row[5]))

    rows = list(read_rows(
        path, DATASET_HEADER.__eq__, parse, ParameterError(f"{path}: unexpected dataset header")
    ))
    return LabeledPairs(*(zip(*rows) if rows else [()] * len(DATASET_HEADER)))


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

def dataset_features(table: SweepTable, pairs: LabeledPairs) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (a00, a01, a10, a11, p_c) and labels for a dataset."""
    index = table.index
    try:
        keys = zip(pairs.cause.tolist(), pairs.effect.tolist(), pairs.lag.tolist())
        rows = [index[key] for key in keys]
    except KeyError as exc:
        raise ConsistencyError(f"dataset tuple {exc.args[0]} was not swept") from None
    return table.feature_matrix(np.asarray(rows, dtype=np.int64)), pairs.label


COUNT_MASK = (0, 1, 2, 3)
PC_COLUMN = 4


# ---------------------------------------------------------------------------
# the run itself

def run_pipeline(config: RunConfig) -> dict:
    """Execute every stage, write artifacts, and return the metrics dict."""
    config = config.validated()
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
    event_series = staged(
        "events", lambda: [extract_events(s, config.alpha) for s in speeds]
    )
    staged("events-write", write_events_csv, out / "events.csv", event_series)
    table = staged("sweep", sweep, event_series, config.l_max, config.tau)
    staged("counts-write", write_counts_csv, out / "counts.csv", table)
    staged("mle-write", write_mle_csv, out / "mle.csv", table)

    spec = DatasetSpec(ratio=config.ratio, l_max=config.l_max)
    truth = staged("ground-truth", label_pairs, meta, matrix, spec)
    ratio_set = build_dataset(truth, config.ratio)
    full_set = full_dataset(truth)
    staged("dataset-write", write_dataset_csv, out / "dataset.csv", ratio_set)
    write_dataset_csv(out / "dataset_full.csv", full_set)

    metrics = {
        "config": {
            "alpha": config.alpha, "tau": config.tau, "l_max": config.l_max,
            "min_completeness": config.min_completeness, "ratio": config.ratio,
            "n_trees": config.n_trees, "folds": config.folds, "seed": config.seed,
        },
        "n_stations": len(speeds),
        "n_slots": len(speeds[0]) if speeds else 0,
        "n_tuples": len(table.tuples),
        "mle_cases": table.case_tally(),
        "diagnostics": {"corr_a01_a10": _corr_a01_a10(table)},
        "ground_truth": {
            "positives": len(truth.positives()),
            "immediate_negatives": len(truth.negatives()),
            "pool": len(truth.pool),
            "ratio_dataset_size": len(ratio_set.pairs),
            "full_dataset_size": len(full_set.pairs),
            "min_negative_drive_time": ratio_set.min_negative_drive_time,
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
    if len(table.tuples) < 2:
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
    series.sort(key=lambda s: s.station_id)
    meta.sort(key=lambda m: m.station_id)
    return series, meta, matrix


def _forest_cv(table: SweepTable, pairs: LabeledPairs, config: RunConfig):
    """Features and labels of ``pairs`` with the cross-validated ROC of the
    forest on the counts; the ROC is None when a class has fewer samples
    than folds."""
    x, y = dataset_features(table, pairs)
    n_pos = int(y.sum())
    if n_pos < config.folds or y.size - n_pos < config.folds:
        return x, y, None
    roc = cls.cross_validate(
        x, y, folds=config.folds, n_trees=config.n_trees,
        seed=config.seed, feature_mask=COUNT_MASK,
    )
    return x, y, roc


def _classify(config, table, ratio_set, full_set, out: Path):
    x_ratio, y_ratio, ratio_cv = _forest_cv(table, ratio_set.pairs, config)
    if ratio_cv is None:
        n_pos = int(y_ratio.sum())
        return {
            "skipped_reason": (
                f"need at least {config.folds} samples per class for "
                f"{config.folds}-fold evaluation (got {n_pos} positive, "
                f"{y_ratio.size - n_pos} negative)"
            )
        }
    write_roc_csv(out / "roc_ratio.csv", ratio_cv)
    scalar = cls.roc_auc(x_ratio[:, PC_COLUMN], y_ratio)

    result = {
        "ratio_forest": {
            "auc": ratio_cv.auc,
            "auc_std": ratio_cv.auc_std,
            "fold_aucs": ratio_cv.fold_aucs,
        },
        "ratio_scalar_pc": {"auc": scalar.auc},
    }

    full_cv = _forest_cv(table, full_set.pairs, config)[2] if config.full_dataset_cv else None
    if full_cv is not None:
        write_roc_csv(out / "roc_full.csv", full_cv)
        result["full_forest"] = {
            "auc": full_cv.auc,
            "auc_std": full_cv.auc_std,
            "fold_aucs": full_cv.fold_aucs,
        }

    model = cls.train_forest(
        x_ratio, y_ratio, n_trees=config.n_trees, seed=config.seed, feature_mask=COUNT_MASK
    )
    matrix = table.feature_matrix()
    scores = cls.predict_proba(model, matrix)
    # break score ties (forests saturate at 1.0) by estimated causal probability
    top = np.lexsort((-matrix[:, PC_COLUMN], -scores))[:TOP_K_EDGES]
    write_csv(out / "topk_edges.csv", TOPK_HEADER, (
        [*table.tuples[k], repr(float(scores[k])),
         repr(float(table.p_c[k])), repr(float(table.p_s[k]))]
        for k in top.tolist()
    ))
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
    config = config.validated()
    speeds, meta, matrix = _ingest(config)
    spec = DatasetSpec(ratio=config.ratio, l_max=config.l_max)
    truth = label_pairs(meta, matrix, spec)
    ratio_set = build_dataset(truth, config.ratio)
    full_set = full_dataset(truth)

    rows = []
    for alpha in alpha_values:
        event_series = [extract_events(s, alpha) for s in speeds]
        for tau in tau_values:
            t0 = time.perf_counter()
            table = sweep(event_series, config.l_max, tau)
            ratio_cv = _forest_cv(table, ratio_set.pairs, config)[2]
            full_cv = (
                _forest_cv(table, full_set.pairs, config)[2] if config.full_dataset_cv else None
            )
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
    lines.append(
        f"  ratio dataset: n={gt['ratio_dataset_size']}  "
        f"min negative drive time={gt['min_negative_drive_time']:.1f} min"
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
    k = max(len(planted), 1)
    forest_hits = sum(1 for t in ranked[:k] if t in planted)
    lines = [
        f"  planted edges recovered in top {k} by forest score: "
        f"{forest_hits} of {len(planted)}"
    ]
    if mle_path.exists():
        table = read_mle_csv(mle_path)
        defined = np.flatnonzero(~np.isnan(table.p_c))
        by_pc = defined[np.argsort(-table.p_c[defined], kind="stable")]
        pc_hits = sum(1 for r in by_pc[:k].tolist() if table.tuples[r] in planted)
        lines.append(
            f"  planted edges recovered in top {k} by estimated p_c: "
            f"{pc_hits} of {len(planted)}"
        )
    return lines
