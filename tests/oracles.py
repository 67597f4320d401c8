"""Independent reference implementations used to pin expected values.

Everything here is deliberately written from the operation definitions
with plain loops and exact arithmetic, not by calling the library code
it checks.
"""

from __future__ import annotations

import math
from datetime import datetime
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from nexica import groundtruth
from nexica.classify import _Tree
from nexica.errors import ConsistencyError, FormatError, ParseError
from nexica.ingest import (
    FREE_FLOW_KPH,
    MAX_WINDOW,
    SLOT,
    SLOT_MINUTES,
    SPEED_HEADER,
    SpeedSeries,
    _check_slot_aligned,
    read_rows,
    write_csv,
)
from nexica.mle import CASES
from nexica.pipeline import COUNTS_HEADER, DATASET_HEADER, EVENTS_HEADER, MLE_HEADER


def brute_force_counts(cause, effect, lag, tau):
    """Per-slot nested-loop correspondence counting.

    Cause slots are processed in time order; a cause event matches the
    earliest still-unmatched effect event within [t+lag, t+lag+tau].
    Cause-free slots look only at the exact offset, counting 01 when the
    effect event there was never matched.
    """
    cause = [bool(v) for v in cause]
    effect = [bool(v) for v in effect]
    m = len(cause)
    window = m - lag - tau
    matched = [False] * m
    is11 = [False] * window
    for t in range(window):
        if cause[t]:
            for e in range(t + lag, t + lag + tau + 1):
                if effect[e] and not matched[e]:
                    matched[e] = True
                    is11[t] = True
                    break
    a00 = a01 = a10 = a11 = 0
    for t in range(window):
        if cause[t]:
            if is11[t]:
                a11 += 1
            else:
                a10 += 1
        else:
            if effect[t + lag] and not matched[t + lag]:
                a01 += 1
            else:
                a00 += 1
    return a00, a01, a10, a11, window


def count_true_runs(u):
    """Number of maximal runs of True values."""
    runs = 0
    prev = False
    for v in u:
        if v and not prev:
            runs += 1
        prev = bool(v)
    return runs


def mann_whitney_auc(scores, labels) -> Fraction:
    """Tie-aware Mann-Whitney statistic normalized by n_pos * n_neg."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    twice = 0  # twice the comparison sum, to stay in integers
    for p in pos:
        for n in neg:
            if p > n:
                twice += 2
            elif p == n:
                twice += 1
    return Fraction(twice, 2 * len(pos) * len(neg))


def grow_tree_reference(x, y, boot, rng) -> _Tree:
    """One CART tree on the bootstrap rows ``x[boot]``, node by node.

    Each node sorts its rows per candidate feature and scans every cut
    between distinct values.  Nodes are numbered and visited breadth
    first; each level draws the candidates of all its splittable nodes
    with one call on ``rng``, as the forest does.
    """
    xb = np.asarray(x, dtype=np.float64)[boot]
    yb = np.asarray(y, dtype=np.int8)[boot]
    n, d = xb.shape
    max_features = max(1, int(np.sqrt(d)))
    feature, threshold, left, right, vote = [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        vote.append(0)
        return len(feature) - 1

    level = [(new_node(), np.arange(n))]
    while level:
        splittable = []
        for node, idx in level:
            pos = int(np.count_nonzero(yb[idx]))
            vote[node] = 1 if pos * 2 > idx.size else 0
            if 0 < pos < idx.size and idx.size >= 2:
                splittable.append((node, idx, pos))
        if not splittable:
            break
        draws = rng.random((len(splittable), d)).argsort(axis=1, kind="stable")
        level = []
        for (node, idx, pos), candidates in zip(splittable, draws[:, :max_features]):
            best = None  # (weighted_gini, feature, threshold, order, split_at)
            for f in candidates:
                col = xb[idx, f]
                order = np.argsort(col, kind="stable")
                xs = col[order]
                ones = np.cumsum(yb[idx][order])
                ks = np.flatnonzero(xs[1:] > xs[:-1]) + 1
                if ks.size == 0:
                    continue
                n_l = ks.astype(np.float64)
                n_r = idx.size - n_l
                p1_l = ones[ks - 1] / n_l
                p1_r = (pos - ones[ks - 1]) / n_r
                gini = n_l * (1.0 - p1_l**2 - (1.0 - p1_l) ** 2) + n_r * (
                    1.0 - p1_r**2 - (1.0 - p1_r) ** 2
                )
                k = int(np.argmin(gini))
                score = gini[k] / idx.size
                if best is None or score < best[0]:
                    split = int(ks[k])
                    best = (score, int(f), (xs[split - 1] + xs[split]) / 2.0, order, split)
            if best is None:
                continue  # every candidate feature constant: leaf
            _, f, thr, order, split = best
            feature[node] = f
            threshold[node] = thr
            l_id, r_id = new_node(), new_node()
            left[node], right[node] = l_id, r_id
            level.append((l_id, idx[order[:split]]))
            level.append((r_id, idx[order[split:]]))
    return _Tree(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold, dtype=np.float64),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(vote, dtype=np.int8),
    )


def safe_log_likelihood(a00, a01, a10, a11, ps, pc) -> float:
    """Direct evaluation of the table log likelihood with 0*ln(0) = 0."""
    q = 1.0 - ps
    fs = (q * q, q * ps, ps * q * (1.0 - pc), ps * (ps + pc - ps * pc))
    total = 0.0
    for a, f in zip((a00, a01, a10, a11), fs):
        if a == 0:
            continue
        if f <= 0.0:
            return -math.inf
        total += a * math.log(f)
    return total


def maximize_log_likelihood(a00, a01, a10, a11):
    """Constrained maximizer of the table log likelihood over [0,1]^2.

    Dense grid for a starting point, Nelder-Mead refinement with an
    out-of-box penalty, plus 1-D bounded searches along the p_c = 0 and
    p_c = 1 edges; the best of all candidates wins.  Knows nothing about
    the closed forms.
    """
    counts = (a00, a01, a10, a11)

    def ll(ps, pc):
        return safe_log_likelihood(*counts, ps, pc)

    ps_grid = np.linspace(0.0, 1.0, 101)
    pc_grid = np.linspace(0.0, 1.0, 101)
    pss, pcs = np.meshgrid(ps_grid, pc_grid, indexing="ij")
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 1.0 - pss
        fs = [q * q, q * pss, pss * q * (1.0 - pcs), pss * (pss + pcs - pss * pcs)]
        grid = np.zeros_like(pss)
        for a, f in zip(counts, fs):
            if a:
                grid += a * np.where(f > 0, np.log(np.where(f > 0, f, 1.0)), -np.inf)
    k = int(np.argmax(grid))
    start = np.array([pss.flat[k], pcs.flat[k]])

    candidates = []

    def neg(x):
        ps, pc = x
        if not (0.0 <= ps <= 1.0 and 0.0 <= pc <= 1.0):
            return math.inf
        v = ll(ps, pc)
        return math.inf if v == -math.inf else -v

    res = minimize(
        neg, start, method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 6000, "maxfev": 12000},
    )
    if np.isfinite(res.fun):
        candidates.append((float(-res.fun), float(res.x[0]), float(res.x[1])))

    for pc_edge in (0.0, 1.0):
        edge = minimize_scalar(
            lambda ps: -ll(ps, pc_edge) if ll(ps, pc_edge) > -math.inf else math.inf,
            bounds=(0.0, 1.0), method="bounded",
            options={"xatol": 1e-14},
        )
        if np.isfinite(edge.fun):
            candidates.append((float(-edge.fun), float(edge.x), pc_edge))
        value_at_corner = ll(0.0, pc_edge)
        if value_at_corner > -math.inf:
            candidates.append((value_at_corner, 0.0, pc_edge))

    if not candidates:
        return None
    best = max(candidates, key=lambda c: c[0])
    return {"ll": best[0], "p_s": best[1], "p_c": best[2]}


def label_pairs_reference(meta, matrix, spec):
    """Ground-truth labels by the per-pair loop over station metadata.

    Returns ``(labeled, pool)``: labeled rows are (cause, effect, lag,
    label, rule, drive_time) in cause, effect, lag order; pool rows are
    (cause, effect, lag, drive_time), sorted by descending drive time and
    then by tuple.  A pair qualifies for positives when the effect-to-cause
    drive is strictly shorter than the reverse; its window is the drive
    converted to slots at the propagation speed, rounded half up, widened
    by ``groundtruth.SOFT_THRESHOLD`` and clamped to [1, l_max].
    """
    at = {sid: k for k, sid in enumerate(matrix.station_ids)}

    def drive(i, j):
        return float(matrix.minutes[at[i], at[j]])

    def expected_lags(minutes):
        distance_km = minutes * FREE_FLOW_KPH / 60.0
        propagation_minutes = distance_km / groundtruth.PROPAGATION_KPH * 60.0
        base = int(propagation_minutes / 5 + 0.5)
        soft = groundtruth.SOFT_THRESHOLD
        return {lag for lag in range(base, base + soft + 1) if 1 <= lag <= spec.l_max}

    usable = [m for m in meta if m.station_id in at]
    labeled, pool = [], []
    for cause in usable:
        for effect in usable:
            c, e = cause.station_id, effect.station_id
            if c == e:
                continue
            d_ce = drive(c, e)
            cross_road = cause.road != effect.road
            cross_direction = cause.direction != effect.direction
            if cross_road and cross_direction:
                for lag in range(1, spec.l_max + 1):
                    labeled.append((c, e, lag, 0, "cross-road-direction", d_ce))
                continue
            if not cross_road and not cross_direction and drive(e, c) < d_ce:
                window = expected_lags(drive(e, c))
                if window:
                    for lag in range(1, spec.l_max + 1):
                        if lag in window:
                            labeled.append((c, e, lag, 1, "upstream-propagation", d_ce))
                        else:
                            labeled.append((c, e, lag, 0, "off-expected-lag", d_ce))
                    continue
            for lag in range(1, spec.l_max + 1):
                pool.append((c, e, lag, d_ce))
    pool.sort(key=lambda t: (-t[3], t[0], t[1], t[2]))
    return labeled, pool


# The speeds loader and writer as they were before the columnar ingest:
# one csv row, one datetime and one tuple per row, gridded one station at a
# time, and one csv row per slot on the way out.

def load_speed_csv_reference(path) -> list[SpeedSeries]:
    """Load one or more stations' speed rows into gridded series.

    Rows are grouped by station and sorted by time; interior gaps become
    ``imputed=True`` slots that repeat the speed of the row before them
    (the value is a placeholder, only the flag matters).
    """
    aware = None  # whether the file's timestamps carry a UTC offset

    def header_ok(header):
        if not header:
            raise ParseError(f"{path}: empty file")
        return [h.strip() for h in header] == SPEED_HEADER

    def parse(row):
        nonlocal aware
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}")
        sid = row[0].strip()
        if not sid:
            raise ParseError("empty station_id")
        text = row[1].strip()
        try:
            ts = datetime.fromisoformat(text)
        except ValueError:
            raise ParseError(f"bad timestamp {text!r}") from None
        _check_slot_aligned(ts)
        if aware is None:
            aware = ts.utcoffset() is not None
        elif aware != (ts.utcoffset() is not None):
            raise FormatError(f"timestamp {text!r} mixes naive and timezone-aware timestamps")
        try:
            speed = float(row[2])
        except ValueError:
            raise ParseError(f"bad speed {row[2]!r}") from None
        if not math.isfinite(speed) or speed < 0:
            raise ParseError("speed must be finite and >= 0")
        flag = row[3].strip()
        if flag not in ("0", "1"):
            raise ParseError("imputed flag must be 0 or 1")
        return sid, (ts, speed, flag == "1")

    rows: dict[str, list[tuple[datetime, float, bool]]] = {}
    header_error = ParseError(f"{path}: expected header {','.join(SPEED_HEADER)}")
    for sid, triple in read_rows(path, header_ok, parse, header_error):
        rows.setdefault(sid, []).append(triple)
    return [_grid_station_reference(path, sid, rows[sid]) for sid in sorted(rows)]


def _grid_station_reference(
    path, sid: str, triples: list[tuple[datetime, float, bool]]
) -> SpeedSeries:
    triples.sort(key=lambda t: t[0])
    start = triples[0][0]
    span = (triples[-1][0] - start) // SLOT + 1
    if span > MAX_WINDOW:
        raise FormatError(f"{path}: station {sid}: rows span {span} slots, more than {MAX_WINDOW}")
    offsets = []
    for ts, _, _ in triples:
        delta = ts - start
        slots, rem = divmod(int(delta.total_seconds()), SLOT_MINUTES * 60)
        if rem:
            raise FormatError(
                f"station {sid}: timestamp {ts.isoformat()} not on the 5-minute "
                f"grid anchored at {start.isoformat()}"
            )
        offsets.append(slots)
    m = offsets[-1] + 1
    speeds = np.zeros(m)
    imputed = np.ones(m, dtype=bool)
    filled = np.zeros(m, dtype=bool)
    for k, (ts, speed, imp) in enumerate(triples):
        j = offsets[k]
        if filled[j]:
            raise ConsistencyError(f"station {sid}: duplicate slot at {ts.isoformat()}")
        filled[j] = True
        speeds[j] = speed
        imputed[j] = imp

    # A gap slot repeats the speed of the slot before it; slot 0 always
    # holds a row.
    for j in np.flatnonzero(~filled):
        speeds[j] = speeds[j - 1]
    return SpeedSeries(sid, start, speeds, imputed)


def write_speed_csv_reference(path, series: list[SpeedSeries]) -> None:
    """Write series back to the speed CSV schema, one row per slot."""
    write_csv(path, SPEED_HEADER, (
        [s.station_id, s.slot_time(j).isoformat(), repr(speed), int(imputed)]
        for s in series
        for j, (speed, imputed) in enumerate(zip(s.speeds.tolist(), s.imputed.tolist()))
    ))


# The stage artifacts row by row through ``csv.writer``: the bytes that the
# column-at-a-time writers of ``nexica.pipeline`` must reproduce.

def write_events_csv_reference(path, series) -> None:
    write_csv(path, EVENTS_HEADER, (
        row for s in series
        for row in [[s.station_id, j, 1] for j in s.event_indices().tolist()]
        or [[s.station_id, 0, 0]]
    ))


def _table_rows(table, *columns):
    """``(tuple, *values)`` per row of a ``SweepTable``."""
    return zip(map(table.key, range(len(table))), *(c.tolist() for c in columns))


def write_counts_csv_reference(path, table) -> None:
    write_csv(path, COUNTS_HEADER, ([*t, *row] for t, row in _table_rows(table, table.counts)))


def write_mle_csv_reference(path, table) -> None:
    names = [c.value for c in CASES]
    write_csv(path, MLE_HEADER, (
        [*t, *row, repr(p_s), repr(p_c), repr(raw), repr(ll), names[case]]
        for t, row, p_s, p_c, raw, ll, case in _table_rows(
            table, table.counts, table.p_s, table.p_c, table.p_c_raw, table.loglik, table.case)
    ))


def write_dataset_csv_reference(path, dataset) -> None:
    p = dataset.pairs
    write_csv(path, DATASET_HEADER, zip(
        p.cause.tolist(), p.effect.tolist(), p.lag.tolist(), p.label.tolist(),
        p.rule.tolist(), map(repr, p.drive_time.tolist()),
    ))
