"""The three workloads of the nexica benchmark.

Each workload generates its corpus from the workload seed with
``nexica.synth`` (set-up), runs a timed body through the program's public
entry points, and checks the outputs.  A second, traced body composes the
same public layer calls with a span around each, so the per-layer numbers
come from outside the program; its outputs must equal the untraced ones.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import time
from collections import defaultdict
from datetime import datetime
from pathlib import Path

import numpy as np

import nexica.classify as nx_classify
import nexica.pipeline as nx_pipeline
from nexica import cli
from nexica.correspond import count_from_indices
from nexica.events import extract_events
from nexica.groundtruth import DatasetSpec, build_dataset, full_dataset, label_pairs
from nexica.ingest import filter_stations, load_drive_times, load_speed_csv, load_station_meta
from nexica.mle import CausalCase, estimate
from nexica.synth import SynthSpec, generate_network, line_geometry, render_speed_series, write_dataset

ALPHA = 0.25
P_S = 0.05
L_MAX = 8

# Inputs per workload and size.  "full" is what the benchmark measures:
# run-pipeline grows 10 trees, not the default 1000, so that a run holds
# several iterations while the forest stays its largest layer.  "smoke" is
# for the harness's own fast test; the median-week profile flags slowdowns
# only from three weeks of slots on, so it keeps four.
SIZES = {
    "full": {
        "sweep-paper": {"n_stations": 195, "n_slots": 52416},
        "run-pipeline": {"n_stations": 30, "n_slots": 12096, "n_trees": 10},
        "stagewise-tau1": {"n_stations": 20, "n_slots": 52416},
    },
    "smoke": {
        "sweep-paper": {"n_stations": 12, "n_slots": 8064},
        "run-pipeline": {"n_stations": 12, "n_slots": 8064, "n_trees": 4},
        "stagewise-tau1": {"n_stations": 8, "n_slots": 8064},
    },
}


class Ledger:
    """Operations attempted and failed: stage calls plus output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.aborted = False

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


class Trace:
    """Wall time and counters per layer, recorded around public calls.

    Every span is one stage call in the ledger.  ``top_level`` sums the
    outermost spans, so ``wall - top_level`` is time outside every layer.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level = 0.0
        self._depth = 0

    @contextlib.contextmanager
    def span(self, layer: str):
        t0 = time.perf_counter()
        self._depth += 1
        try:
            yield
        except BaseException:
            if not self.ledger.aborted:
                self.ledger.failed += 1
                self.ledger.problems.append(f"a stage call in layer {layer} raised")
                self.ledger.aborted = True
            raise
        finally:
            self._depth -= 1
            dt = time.perf_counter() - t0
            self.ledger.attempted += 1
            self.seconds[layer] += dt
            if self._depth == 0:
                self.top_level += dt

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)


@contextlib.contextmanager
def timed_kernels(trace: Trace):
    """Time the per-tuple calls the sweep makes into ``correspond`` and
    ``mle`` by wrapping the public functions it looks up at call time."""

    def wrap(fn, layer):
        seconds = trace.seconds
        counts = trace.counts

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += time.perf_counter() - t0
                counts[layer + ".calls"] += 1

        return wrapper

    saved = {name: getattr(nx_pipeline, name) for name in ("count_from_indices", "estimate")}
    nx_pipeline.count_from_indices = wrap(saved["count_from_indices"], "correspond")
    nx_pipeline.estimate = wrap(saved["estimate"], "mle")
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(nx_pipeline, name, fn)


# ---------------------------------------------------------------------------
# corpora

def planted_edges(n_stations: int, seed: int, chain: bool) -> tuple:
    """Edges (cause, effect, lag, p_c) on the ``line_geometry`` road.

    A cause sits ``lag`` stations downstream of its effect, which is where
    the rule-derived labels expect it.  ``chain`` links every adjacent pair
    at lag 1 with p_c in [0.5, 0.65], so a composition of two links (p_c at
    most 0.42) never outranks a planted edge; otherwise edges are disjoint,
    so no two compose.
    """
    rng = np.random.default_rng([seed, n_stations])
    if chain:
        return tuple(
            (e + 1, e, 1, round(float(rng.uniform(0.5, 0.65)), 3)) for e in range(n_stations - 1)
        )
    edges = []
    effect = int(rng.integers(0, 3))
    while True:
        lag = int(rng.integers(1, 4))
        if effect + lag >= n_stations:
            return tuple(edges)
        edges.append((effect + lag, effect, lag, round(float(rng.uniform(0.4, 0.8)), 3)))
        effect += lag + 1 + int(rng.integers(0, 3))


def planted_set(spec: SynthSpec) -> set:
    return {(spec.station_id(c), spec.station_id(e), lag) for c, e, lag, _ in spec.edges}


def rendered_speeds(spec: SynthSpec) -> list:
    """Speeds rendered in memory from the spec's event streams, without any file."""
    series, _ = generate_network(spec)
    start = datetime.fromisoformat(spec.start_time)
    return [render_speed_series(s, spec.alpha, spec.base_speed, start) for s in series]


def corpus_spec(n_stations: int, n_slots: int, seed: int, chain: bool) -> SynthSpec:
    return SynthSpec(
        n_stations=n_stations, n_slots=n_slots, p_s=P_S, alpha=ALPHA,
        edges=planted_edges(n_stations, seed, chain), seed=seed,
    )


# ---------------------------------------------------------------------------
# output readers and quality metrics

def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class MleScan:
    """What the checks need from one pass over an ``mle.csv`` (columns
    cause, effect, lag, a00, a01, a10, a11, p_s, p_c, p_c_raw, loglik,
    case), without holding its rows in memory."""

    def __init__(self, path: Path, keep=lambda index, row: False):
        self.rows = 0
        self.best_pc: dict[tuple[str, str], float] = {}  # highest p_c per station pair
        self.cases = {f"mle.case.{c.value}": 0 for c in CausalCase}
        self.kept: dict[int, list[str]] = {}  # rows selected by ``keep``, by index
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for k, row in enumerate(reader):
                self.rows += 1
                pc = float(row[8])
                pc = 0.0 if math.isnan(pc) else pc  # as in the classifier's features
                pair = (row[0], row[1])
                if pc > self.best_pc.get(pair, -1.0):
                    self.best_pc[pair] = pc
                self.cases[f"mle.case.{row[11]}"] += 1
                if keep(k, row):
                    self.kept[k] = row

    def ranking_quality(self, planted: set) -> dict:
        """Rank station pairs by their highest p_c over the swept lags.

        Pairs, not tuples, because at tau > 0 the tuples at lags ``L - tau
        .. L`` all see an edge planted at lag ``L``.  Returns the share of
        planted pairs in the top |planted| pairs, and the AUC of that score
        for planted pairs against all others.
        """
        pairs = sorted(self.best_pc)
        score = np.array([self.best_pc[p] for p in pairs])
        wanted = {(c, e) for c, e, _ in planted}
        is_planted = np.array([p in wanted for p in pairs], dtype=np.int64)
        top = np.argsort(-score, kind="stable")[: len(wanted)]
        return {
            "planted_recall": float(is_planted[top].sum()) / len(wanted),
            "forest_auc": auc(score, is_planted),
            "cases": self.cases,
        }


def counts_match_mle(counts_path: Path, mle_path: Path) -> bool:
    """``counts.csv`` equals the first seven columns of ``mle.csv``, row for row."""
    with open(counts_path, newline="") as fc, open(mle_path, newline="") as fm:
        return all(
            c == m[:7] for c, m in itertools.zip_longest(csv.reader(fc), csv.reader(fm), fillvalue=[])
        )


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with ties counted as one half."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    sorted_scores = scores[order]
    edges = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [scores.size]))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def same_bytes(ledger: Ledger, a: Path, b: Path, names) -> None:
    for name in names:
        ledger.check(digest(a / name) == digest(b / name), f"{name} differs between {a.name} and {b.name}")


class Workload:
    """Sizes shared by the three workloads: every ordered station pair is
    swept at lags 1..L_MAX."""

    def __init__(self, sizes: dict):
        self.n_stations = sizes["n_stations"]
        self.n_slots = sizes["n_slots"]

    def tuples(self) -> int:
        return self.n_stations * (self.n_stations - 1) * L_MAX


# ---------------------------------------------------------------------------
# sweep-paper

class SweepPaper(Workload):
    """Paper-scale events, count and MLE sweep, artifact writes, ground
    truth and features, from speeds rendered in memory (no ingest)."""

    name = "sweep-paper"
    min_iterations = 1
    written = ("counts.csv", "mle.csv")
    outputs = written
    sample_step = 601  # every 601st tuple is recounted, plus every planted one

    def setup(self, seed: int, work: Path):
        spec = corpus_spec(self.n_stations, self.n_slots, seed, chain=False)
        meta, matrix = line_geometry(spec)
        return {"spec": spec, "speeds": rendered_speeds(spec), "meta": meta, "matrix": matrix}

    def run(self, corpus, out: Path, trace: Trace) -> None:
        with trace.span("events"):
            events = [extract_events(s, ALPHA) for s in corpus["speeds"]]
        trace.count("events.n_events", sum(e.count() for e in events))
        with trace.span("sweep"):
            table = nx_pipeline.sweep(events, L_MAX, 0)
        trace.count("sweep.tuples", len(table.tuples))
        with trace.span("pipeline.write"):
            nx_pipeline.write_counts_csv(out / "counts.csv", table)
        with trace.span("pipeline.write"):
            nx_pipeline.write_mle_csv(out / "mle.csv", table)
        spec = DatasetSpec(ratio=1, l_max=L_MAX)
        with trace.span("groundtruth"):
            truth = label_pairs(corpus["meta"], corpus["matrix"], spec)
        with trace.span("groundtruth"):
            ratio_set = build_dataset(truth, 1)
        with trace.span("groundtruth"):
            full_set = full_dataset(truth)
        with trace.span("groundtruth"):
            nx_pipeline.dataset_features(table, ratio_set.pairs)
        with trace.span("groundtruth"):
            nx_pipeline.dataset_features(table, full_set.pairs)
        trace.count("groundtruth.positives", len(truth.positives()))
        trace.count("groundtruth.pool", len(truth.pool))

    def run_traced(self, corpus, out: Path, trace: Trace) -> None:
        with timed_kernels(trace):
            self.run(corpus, out, trace)

    def check(self, corpus, out: Path, ledger: Ledger) -> dict:
        """Recount a fixed sample of tuples with ``count_from_indices``, an
        independent dense count and the scalar ``estimate``; every field
        of their ``mle.csv`` rows must match exactly."""
        planted = planted_set(corpus["spec"])
        scan = MleScan(
            out / "mle.csv",
            keep=lambda k, r: k % self.sample_step == 0 or (r[0], r[1], int(r[2])) in planted,
        )
        ledger.check(scan.rows == self.tuples(), f"mle.csv has {scan.rows} rows, expected {self.tuples()}")
        ledger.check(
            counts_match_mle(out / "counts.csv", out / "mle.csv"),
            "counts.csv disagrees with the counts in mle.csv",
        )
        events = {s.station_id: extract_events(s, ALPHA) for s in corpus["speeds"]}
        m = self.n_slots
        for row in scan.kept.values():
            cause, effect, lag = row[0], row[1], int(row[2])
            c, e = events[cause], events[effect]
            counts = count_from_indices(c.event_indices(), e.event_indices(), m, lag, 0)
            window = m - lag
            dense11 = int(np.count_nonzero(c.events[:window] & e.events[lag:lag + window]))
            dense10 = int(np.count_nonzero(c.events[:window])) - dense11
            dense01 = int(np.count_nonzero(e.events[lag:lag + window])) - dense11
            dense = [window - dense11 - dense10 - dense01, dense01, dense10, dense11]
            est = estimate(counts)
            expected = [
                *map(str, counts.as_tuple()), repr(est.p_s), repr(est.p_c),
                repr(est.p_c_raw), repr(est.log_likelihood), est.case.value,
            ]
            ledger.check(
                list(counts.as_tuple()) == dense and row[3:] == expected,
                f"tuple {cause}->{effect}@{lag}: mle.csv {row[3:]} != recount {expected}",
            )
        return scan.ranking_quality(planted)


# ---------------------------------------------------------------------------
# stagewise-tau1

class StagewiseTau1(Workload):
    """The stage-wise CLI at tau=1: events, then pairs, then mle, each a
    separate ``cli.main`` call that reads the previous stage's CSV."""

    name = "stagewise-tau1"
    min_iterations = 2
    written = ("events.csv", "counts.csv", "mle.csv")
    outputs = written
    tau = 1

    def setup(self, seed: int, work: Path):
        spec = corpus_spec(self.n_stations, self.n_slots, seed, chain=False)
        return {"spec": spec, "speeds": write_dataset(spec, work)["speeds"]}

    def _argv(self, corpus, out: Path) -> list[list[str]]:
        return [
            ["events", "--speeds", corpus["speeds"], "--alpha", str(ALPHA),
             "--out", str(out / "events.csv")],
            ["pairs", "--events", str(out / "events.csv"), "--slots", str(self.n_slots),
             "--lmax", str(L_MAX), "--tau", str(self.tau), "--out", str(out / "counts.csv")],
            ["mle", "--counts", str(out / "counts.csv"), "--tau", str(self.tau),
             "--out", str(out / "mle.csv")],
        ]

    def run(self, corpus, out: Path, trace: Trace) -> None:
        for argv in self._argv(corpus, out):
            with trace.span("cli." + argv[0]):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                    code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"nexica {argv[0]} exited {code}: {err.getvalue().strip()}")

    def run_traced(self, corpus, out: Path, trace: Trace) -> None:
        """What the three CLI stages do, one public call per span."""
        with timed_kernels(trace):
            with trace.span("ingest"):
                speeds = load_speed_csv(corpus["speeds"])
            trace.count("ingest.rows", sum(len(s) for s in speeds))
            with trace.span("events"):
                events = [extract_events(s, ALPHA) for s in speeds]
            trace.count("events.n_events", sum(e.count() for e in events))
            with trace.span("pipeline.write"):
                nx_pipeline.write_events_csv(out / "events.csv", events)
            with trace.span("pipeline.read"):
                events = nx_pipeline.read_events_csv(out / "events.csv", self.n_slots)
            trace.count("pipeline.read.rows", sum(e.count() for e in events))
            with trace.span("sweep"):
                table = nx_pipeline.sweep(events, L_MAX, self.tau)
            trace.count("sweep.tuples", len(table.tuples))
            with trace.span("pipeline.write"):
                nx_pipeline.write_counts_csv(out / "counts.csv", table)
            with trace.span("pipeline.read"):
                rows = nx_pipeline.read_counts_csv(out / "counts.csv", tau=self.tau)
            trace.count("pipeline.read.rows", len(rows))
            with trace.span("mle"):
                estimates = [(c, e, lag, n, estimate(n)) for c, e, lag, n in rows]
            with trace.span("pipeline.write"):
                nx_pipeline.write_mle_rows(out / "mle.csv", estimates)

    def check(self, corpus, out: Path, ledger: Ledger) -> dict:
        """``counts.csv`` and ``mle.csv`` must equal what ``write_counts_csv``
        and ``write_mle_csv`` give for an in-memory tau=1 sweep over the
        events of the same speeds."""
        events = [extract_events(s, ALPHA) for s in rendered_speeds(corpus["spec"])]
        table = nx_pipeline.sweep(events, L_MAX, self.tau)
        reference = out / "reference"
        reference.mkdir()
        nx_pipeline.write_counts_csv(reference / "counts.csv", table)
        nx_pipeline.write_mle_csv(reference / "mle.csv", table)
        same_bytes(ledger, out, reference, ("counts.csv", "mle.csv"))
        scan = MleScan(out / "mle.csv")
        ledger.check(scan.rows == self.tuples(), f"mle.csv has {scan.rows} rows, expected {self.tuples()}")
        return scan.ranking_quality(planted_set(corpus["spec"]))


# ---------------------------------------------------------------------------
# run-pipeline

class RunPipeline(Workload):
    """``run_pipeline`` on a CSV corpus, as ``nexica run`` does it."""

    name = "run-pipeline"
    min_iterations = 2  # metrics.json is compared across iterations
    written = ("events.csv", "counts.csv", "mle.csv", "dataset.csv", "dataset_full.csv")
    outputs = ("metrics.json", "topk_edges.csv", "roc_ratio.csv", "roc_full.csv") + written
    folds = 5

    def __init__(self, sizes: dict):
        super().__init__(sizes)
        self.n_trees = sizes["n_trees"]

    def setup(self, seed: int, work: Path):
        spec = corpus_spec(self.n_stations, self.n_slots, seed, chain=True)
        return {"spec": spec, "paths": write_dataset(spec, work), "seed": seed}

    def config(self, corpus, out: Path) -> nx_pipeline.RunConfig:
        paths = corpus["paths"]
        return nx_pipeline.RunConfig(
            speeds=paths["speeds"], meta=paths["meta"], drive_times=paths["drive_times"],
            truth=paths["truth"], out_dir=str(out), alpha=ALPHA, tau=0, l_max=L_MAX,
            ratio=1, n_trees=self.n_trees, folds=self.folds, seed=corpus["seed"],
            full_dataset_cv=True,
        )

    def run(self, corpus, out: Path, trace: Trace) -> None:
        with trace.span("run_pipeline"):
            nx_pipeline.run_pipeline(self.config(corpus, out))

    def run_traced(self, corpus, out: Path, trace: Trace) -> None:
        """``run_pipeline`` rebuilt from the public layer calls."""
        config = self.config(corpus, out)
        with timed_kernels(trace):
            self._compose(config, out, trace)

    def _compose(self, config, out: Path, trace: Trace) -> None:
        pl = nx_pipeline
        with trace.span("ingest"):
            speeds = load_speed_csv(config.speeds)
            meta = load_station_meta(config.meta)
            matrix = load_drive_times(config.drive_times)
            speeds, meta = filter_stations(speeds, meta, config.min_completeness)
            speeds = sorted((s for s in speeds if s.station_id in matrix), key=lambda s: s.station_id)
            kept = {s.station_id for s in speeds}
            meta = sorted((m for m in meta if m.station_id in kept), key=lambda m: m.station_id)
        trace.count("ingest.rows", sum(len(s) for s in speeds))
        with trace.span("events"):
            events = [extract_events(s, config.alpha) for s in speeds]
        trace.count("events.n_events", sum(e.count() for e in events))
        with trace.span("pipeline.write"):
            pl.write_events_csv(out / "events.csv", events)
        with trace.span("sweep"):
            table = pl.sweep(events, config.l_max, config.tau)
        trace.count("sweep.tuples", len(table.tuples))
        with trace.span("pipeline.write"):
            pl.write_counts_csv(out / "counts.csv", table)
        with trace.span("pipeline.write"):
            pl.write_mle_csv(out / "mle.csv", table)
        with trace.span("groundtruth"):
            truth = label_pairs(meta, matrix, DatasetSpec(ratio=config.ratio, l_max=config.l_max))
        with trace.span("groundtruth"):
            ratio_set = build_dataset(truth, config.ratio)
        with trace.span("groundtruth"):
            full_set = full_dataset(truth)
        trace.count("groundtruth.positives", len(truth.positives()))
        trace.count("groundtruth.pool", len(truth.pool))
        with trace.span("pipeline.write"):
            pl.write_dataset_csv(out / "dataset.csv", ratio_set)
        with trace.span("pipeline.write"):
            pl.write_dataset_csv(out / "dataset_full.csv", full_set)

        a01 = table.counts[:, 1].astype(np.float64)
        a10 = table.counts[:, 2].astype(np.float64)
        metrics = {
            "config": {
                "alpha": config.alpha, "tau": config.tau, "l_max": config.l_max,
                "min_completeness": config.min_completeness, "ratio": config.ratio,
                "n_trees": config.n_trees, "folds": config.folds, "seed": config.seed,
            },
            "n_stations": len(speeds),
            "n_slots": len(speeds[0]),
            "n_tuples": len(table.tuples),
            "mle_cases": table.case_tally(),
            "diagnostics": {"corr_a01_a10": float(np.corrcoef(a01, a10)[0, 1])},
            "ground_truth": {
                "positives": len(truth.positives()),
                "immediate_negatives": len(truth.negatives()),
                "pool": len(truth.pool),
                "ratio_dataset_size": len(ratio_set.pairs),
                "full_dataset_size": len(full_set.pairs),
                "min_negative_drive_time": ratio_set.min_negative_drive_time,
            },
        }

        cv = dict(folds=config.folds, n_trees=config.n_trees, seed=config.seed,
                  feature_mask=pl.COUNT_MASK)
        with trace.span("groundtruth"):
            x_ratio, y_ratio = pl.dataset_features(table, ratio_set.pairs)
        with trace.span("classify.cv"):
            ratio_cv = nx_classify.cross_validate(x_ratio, y_ratio, **cv)
        pl.write_roc_csv(out / "roc_ratio.csv", ratio_cv)
        scalar = nx_classify.roc_auc(x_ratio[:, pl.PC_COLUMN], y_ratio)
        classifier = {
            "ratio_forest": {"auc": ratio_cv.auc, "auc_std": ratio_cv.auc_std,
                             "fold_aucs": ratio_cv.fold_aucs},
            "ratio_scalar_pc": {"auc": scalar.auc},
        }
        with trace.span("groundtruth"):
            x_full, y_full = pl.dataset_features(table, full_set.pairs)
        with trace.span("classify.cv"):
            full_cv = nx_classify.cross_validate(x_full, y_full, **cv)
        pl.write_roc_csv(out / "roc_full.csv", full_cv)
        classifier["full_forest"] = {"auc": full_cv.auc, "auc_std": full_cv.auc_std,
                                     "fold_aucs": full_cv.fold_aucs}
        with trace.span("classify.train"):
            model = nx_classify.train_forest(
                x_ratio, y_ratio, n_trees=config.n_trees, seed=config.seed,
                feature_mask=pl.COUNT_MASK,
            )
        trace.count("classify.trees", len(model.trees))
        trace.count("classify.nodes", sum(t.feature.size for t in model.trees))
        features = table.feature_matrix()
        with trace.span("classify.predict"):
            scores = nx_classify.predict_proba(model, features)
        top = np.lexsort((-features[:, pl.PC_COLUMN], -scores))[: pl.TOP_K_EDGES]
        with open(out / "topk_edges.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cause", "effect", "lag", "p_forest", "p_c", "p_s"])
            for k in top.tolist():
                est = table.estimates[k]
                writer.writerow([*table.tuples[k], repr(float(scores[k])), repr(est.p_c), repr(est.p_s)])
        classifier["model_hash"] = model.model_hash()
        metrics["classifier"] = classifier
        pl.dump_json(out / "metrics.json", metrics)
        pl.dump_json(out / "config.json", dataclasses.asdict(config))

    def check(self, corpus, out: Path, ledger: Ledger) -> dict:
        metrics = json.loads((out / "metrics.json").read_text())
        ledger.check(metrics["n_tuples"] == self.tuples(), f"n_tuples {metrics['n_tuples']} != {self.tuples()}")
        planted = planted_set(corpus["spec"])
        with open(out / "topk_edges.csv", newline="") as fh:
            ranked = [(r[0], r[1], int(r[2])) for r in list(csv.reader(fh))[1:]]
        ledger.check(len(ranked) >= len(planted), "topk_edges.csv is shorter than the planted set")
        cases = {f"mle.case.{k}": v for k, v in metrics["mle_cases"].items()}
        return {
            "planted_recall": sum(t in planted for t in ranked[: len(planted)]) / len(planted),
            "forest_auc": metrics["classifier"]["ratio_forest"]["auc"],
            "cases": cases,
        }


WORKLOADS = {w.name: w for w in (SweepPaper, RunPipeline, StagewiseTau1)}
