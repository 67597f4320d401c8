"""The batched sweep against the per-tuple reference kernels.

``pipeline.sweep`` counts every tuple with ``correspond.lagged_counts`` and
estimates with ``mle.estimate_many``; the reference counts each tuple with
the greedy-matching loop ``oracles.greedy_counts`` and estimates it with the
scalar ``estimate``.  Counts, the ``repr`` of every float and the case must
agree exactly.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nexica import correspond
from nexica import pipeline as nx_pipeline
from nexica.correspond import CorrespondenceCounts, lagged_counts
from nexica.errors import ConsistencyError, ParameterError
from nexica.events import EventSeries, leading_edges
from nexica.mle import (
    CASES,
    MAX_WINDOW,
    CausalCase,
    _log_likelihood_many,
    _pair_probabilities,
    estimate,
    estimate_many,
    log_likelihood,
)
from nexica.pipeline import sweep

from oracles import greedy_counts


def make_series(bits, station):
    return EventSeries(station, bits)


def reference_rows(series, l_max, tau):
    m = len(series[0])
    rows = []
    for c, e in itertools.permutations(series, 2):
        for lag in range(1, l_max + 1):
            counts = greedy_counts(c.event_indices(), e.event_indices(), m, lag, tau)
            est = estimate(counts)
            rows.append((
                (c.station_id, e.station_id, lag), counts.as_tuple(),
                repr(est.p_s), repr(est.p_c), repr(est.p_c_raw), repr(est.log_likelihood),
                est.case,
            ))
    return rows


def table_rows(table):
    return [
        (table.key(k), tuple(c), repr(p_s), repr(p_c), repr(raw), repr(ll), CASES[case])
        for k, c, p_s, p_c, raw, ll, case in zip(
            range(len(table)), table.counts.tolist(), table.p_s.tolist(), table.p_c.tolist(),
            table.p_c_raw.tolist(), table.loglik.tolist(), table.case.tolist(),
        )
    ]


def assert_matches_reference(series, l_max, tau):
    table = sweep(series, l_max, tau)
    assert table_rows(table) == reference_rows(series, l_max, tau)
    return table


@st.composite
def corpora(draw):
    m = draw(st.integers(4, 90))
    tau = draw(st.integers(0, min(4, m - 2)))
    l_max = draw(st.integers(1, min(6, m - tau - 1)))
    series = []
    for k in range(draw(st.integers(2, 5))):
        bits = draw(st.lists(st.booleans(), min_size=m, max_size=m))
        if draw(st.booleans()):
            bits = leading_edges(bits)
        series.append(make_series(bits, f"s{k}"))
    return series, l_max, tau


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_sweep_matches_per_tuple_reference(corpus):
    assert_matches_reference(*corpus)


@pytest.mark.parametrize("tau", [0, 1, 2, 3, 4])
def test_leading_edges_adjacent_events_and_degenerate_stations(tau):
    rng = np.random.default_rng(tau)
    m = 400
    raw = rng.random(m) < 0.3  # adjacent events: clustered causes at tau > 0
    series = [
        make_series(leading_edges(rng.random(m) < 0.2), "edges"),
        make_series(leading_edges(rng.random(m) < 0.5), "dense-edges"),
        make_series(raw, "raw"),
        make_series(np.zeros(m, dtype=bool), "never"),
        make_series(np.ones(m, dtype=bool), "always"),
    ]
    table = assert_matches_reference(series, l_max=6, tau=tau)
    never = [k for k in range(len(table)) if table.key(k)[0] in ("never", "always")]
    assert {CASES[c] for c in table.case[never].tolist()} == {CausalCase.UNDEFINED}


@pytest.mark.parametrize("tau", [0, 1, 2, 3, 4])
def test_last_lag_leaves_a_one_slot_window(tau):
    """lag + tau = M - 1: causes near the end match effects in the last slots."""
    rng = np.random.default_rng(10 + tau)
    m = 30
    series = [make_series(leading_edges(rng.random(m) < 0.4), f"s{k}") for k in range(4)]
    series.append(make_series(np.arange(m) >= m - tau - 1, "tail"))
    assert_matches_reference(series, l_max=m - tau - 1, tau=tau)


def test_sweep_parameter_errors():
    series = [make_series([1, 0, 1, 0, 0], "a"), make_series([0, 1, 0, 1, 0], "b")]
    with pytest.raises(ParameterError):
        sweep(series, l_max=0)
    with pytest.raises(ParameterError, match="leaves no window"):
        sweep(series, l_max=5, tau=0)
    with pytest.raises(ParameterError, match="leaves no window"):
        sweep(series, l_max=2, tau=3)
    assert len(sweep(series, l_max=2, tau=2)) == 4
    with pytest.raises(ConsistencyError, match="no event series to sweep"):
        sweep([], l_max=1)


@pytest.mark.parametrize("tau", [2, 3, 4])
def test_clustered_causes_take_no_per_tuple_kernel(monkeypatch, tau):
    """Causes within tau slots of each other are counted by the batched
    kernel too: the sweep never calls ``count_from_indices``."""
    rng = np.random.default_rng(20 + tau)
    m = 300
    series = [make_series(leading_edges(rng.random(m) < 0.4), f"s{k}") for k in range(3)]
    series.append(make_series(rng.random(m) < 0.3, "raw"))
    assert all(np.diff(s.event_indices()).min() <= tau for s in series)
    want = reference_rows(series, 5, tau)

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called count_from_indices")

    monkeypatch.setattr(correspond, "count_from_indices", refuse)
    monkeypatch.setattr(nx_pipeline, "count_from_indices", refuse)
    assert table_rows(sweep(series, 5, tau)) == want


def test_max_window_keeps_float32_products_exact():
    """``lagged_counts`` sums its products in float32, so no window may pass 2**24."""
    assert MAX_WINDOW <= 2**24
    with pytest.raises(ParameterError, match=f"window exceeds {MAX_WINDOW} slots"):
        lagged_counts([], MAX_WINDOW + 2, 1)
    # float32 holds every count up to 2**24, but not the one after it
    assert int(np.float32(2**24 - 1) + np.float32(1)) == 2**24
    assert int(np.float32(2**24 + 1)) == 2**24


# ---------------------------------------------------------------------------
# estimate_many against estimate

def all_tables(max_window):
    for w in range(1, max_window + 1):
        for a00 in range(w + 1):
            for a01 in range(w + 1 - a00):
                for a10 in range(w + 1 - a00 - a01):
                    yield (a00, a01, a10, w - a00 - a01 - a10)


def assert_estimates_match(tables):
    p_s, p_c, p_c_raw, loglik, case = estimate_many(np.array(tables, dtype=np.int64))
    for k, t in enumerate(tables):
        est = estimate(CorrespondenceCounts.from_counts(*t))
        got = (p_s[k].item(), p_c[k].item(), p_c_raw[k].item(), loglik[k].item(), CASES[case[k]])
        want = (est.p_s, est.p_c, est.p_c_raw, est.log_likelihood, est.case)
        assert list(map(repr, got)) == list(map(repr, want)), t


def test_estimate_many_matches_estimate_on_every_small_table():
    tables = list(all_tables(14))
    assert_estimates_match(tables)
    cases = {estimate(CorrespondenceCounts.from_counts(*t)).case for t in tables}
    # No count table reaches boundary_pc1: p_c_raw < 0 needs a10 > 0, and
    # a10 > 0 puts -inf on the p_c = 1 edge (checked below).
    assert cases == {CausalCase.INTERIOR, CausalCase.BOUNDARY_PC0, CausalCase.UNDEFINED}


def test_estimate_many_large_windows_and_empty_input():
    rng = np.random.default_rng(8)
    tables = [tuple(rng.multinomial(int(w), rng.dirichlet(np.ones(4))).tolist())
              for w in rng.integers(1000, 60000, 3000)]
    assert_estimates_match(tables)
    assert all(col.size == 0 for col in estimate_many(np.zeros((0, 4), dtype=np.int64)))
    with pytest.raises(ParameterError):
        estimate_many(np.array([[MAX_WINDOW, 0, 1, 0]]))


# A cell is zero, one or two, or anything up to a quarter of the largest window.
EDGE_CELL = st.one_of(st.just(0), st.integers(1, 2), st.integers(0, MAX_WINDOW // 4))


@st.composite
def edge_tables(draw):
    """Count tables of windows up to ``MAX_WINDOW``, drawn toward the edges
    of the count space: zero cells, ``a10`` of 0, 1 or 2, and one count that
    takes the window to within two slots of ``MAX_WINDOW``."""
    table = [draw(EDGE_CELL) for _ in range(4)]
    if draw(st.booleans()):
        table[2] = draw(st.integers(0, 2))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3))
        table[k] = MAX_WINDOW - draw(st.integers(0, 2)) - (sum(table) - table[k])
    return tuple(table)


@settings(max_examples=300, deadline=None)
@given(st.lists(edge_tables().filter(any), min_size=1, max_size=20))
def test_estimate_many_at_the_edges_of_the_count_space(tables):
    """The identity that lets ``estimate_many`` take each case from the
    counts: no count table lands on the p_c = 1 edge, and a defined estimate
    has a finite log likelihood, up to the largest window."""
    for t in tables:
        est = estimate(CorrespondenceCounts.from_counts(*t))
        assert est.case is not CausalCase.BOUNDARY_PC1, t
        assert est.case is CausalCase.UNDEFINED or math.isfinite(est.log_likelihood), t
    assert_estimates_match(tables)


def test_log_likelihood_many_matches_scalar_including_minus_inf():
    tables = np.array(list(all_tables(6)), dtype=np.int64)
    seen = set()
    for p_s, p_c in [(0.0, 0.5), (1.0, 0.5), (0.3, 1.0), (0.3, 0.0), (0.5, 0.5), (0.01, 0.99)]:
        got = _log_likelihood_many(tables, np.full(len(tables), p_s), p_c).tolist()
        want = [log_likelihood(CorrespondenceCounts.from_counts(*t), p_s, p_c)
                for t in tables.tolist()]
        assert list(map(repr, got)) == list(map(repr, want))
        seen.update(math.isinf(v) for v in got)
    assert seen == {True, False}


def test_estimate_many_where_numpy_log_differs_from_math_log():
    """``np.log`` may round differently from ``math.log``; the batched
    estimate must follow the scalar one on those inputs too."""
    differing = []
    for t in all_tables(40):
        est = estimate(CorrespondenceCounts.from_counts(*t))
        if est.case is CausalCase.UNDEFINED:
            continue
        fs = _pair_probabilities(est.p_s, est.p_c)
        if any(f > 0 and np.log(f) != math.log(f) for a, f in zip(t, fs) if a):
            differing.append(t)
    if not differing:
        pytest.skip("np.log agrees with math.log on every probe on this platform")
    assert_estimates_match(differing)
