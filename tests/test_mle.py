import math

import numpy as np
import pytest

from nexica.correspond import CorrespondenceCounts
from nexica.errors import DomainError, ParameterError
from nexica.mle import (
    CausalCase,
    estimate,
    log_likelihood,
    pair_probabilities,
    ps_given_pc0,
    ps_given_pc1,
)

from oracles import (
    estimate_unconstrained, log_likelihood_gradient, maximize_log_likelihood,
    safe_log_likelihood,
)


def table(a00, a01, a10, a11):
    return CorrespondenceCounts.from_counts(a00, a01, a10, a11)


# --- pair probabilities ----------------------------------------------------

def test_pair_probabilities_no_events():
    assert pair_probabilities(0.0, 0.7) == (1.0, 0.0, 0.0, 0.0)


def test_pair_probabilities_saturated():
    assert pair_probabilities(1.0, 0.0) == (0.0, 0.0, 0.0, 1.0)


def test_pair_probabilities_halves():
    assert pair_probabilities(0.5, 0.5) == (0.25, 0.25, 0.125, 0.375)


def test_pair_probabilities_domain():
    with pytest.raises(DomainError):
        pair_probabilities(-0.1, 0.5)
    with pytest.raises(DomainError):
        pair_probabilities(0.5, 1.1)


def test_pair_probabilities_normalize_on_grid():
    grid = np.linspace(0.0, 1.0, 101)
    for ps in grid:
        for pc in grid:
            assert abs(sum(pair_probabilities(ps, pc)) - 1.0) <= 1e-12


# --- log likelihood --------------------------------------------------------

def test_log_likelihood_uniform_table():
    ll = log_likelihood(table(1, 1, 1, 1), 0.5, 0.5)
    expected = math.log(0.25) + math.log(0.25) + math.log(0.125) + math.log(0.375)
    assert ll == pytest.approx(expected, abs=1e-12)
    assert ll == pytest.approx(-5.832859516931343, abs=1e-9)


def test_log_likelihood_zero_count_zero_prob():
    assert log_likelihood(table(5, 0, 0, 0), 0.0, 0.3) == 0.0


def test_log_likelihood_minus_inf_sentinel():
    assert log_likelihood(table(1, 0, 0, 3), 0.0, 0.5) == -math.inf


# --- unconstrained closed forms --------------------------------------------

def test_unconstrained_pure_causal():
    ps, pc = estimate_unconstrained(table(90, 0, 0, 10))
    assert ps == 10 / 190
    assert pc == 1.0


def test_unconstrained_independence():
    ps, pc = estimate_unconstrained(table(81, 9, 9, 1))
    assert ps == 19 / 190
    assert pc == 0.0


def test_unconstrained_partial():
    ps, pc = estimate_unconstrained(table(85, 5, 5, 5))
    assert ps == 15 / 190
    assert pc == 800 / 1750


def test_unconstrained_degenerate_raises():
    with pytest.raises(DomainError):
        estimate_unconstrained(table(10, 0, 0, 0))


# --- constrained estimate ---------------------------------------------------

def test_estimate_interior():
    est = estimate(table(90, 0, 0, 10))
    assert est.case is CausalCase.INTERIOR
    assert est.p_s == 10 / 190
    assert est.p_c == 1.0
    assert est.p_c_raw == 1.0
    assert est.log_likelihood <= 0


def test_estimate_all_slots_events_undefined():
    est = estimate(table(0, 0, 0, 7))
    assert est.case is CausalCase.UNDEFINED
    assert math.isnan(est.p_s) and math.isnan(est.p_c)


def test_estimate_no_cause_events_undefined():
    assert estimate(table(50, 10, 0, 0)).case is CausalCase.UNDEFINED


def test_estimate_cause_always_fires_undefined():
    assert estimate(table(0, 0, 40, 10)).case is CausalCase.UNDEFINED


def test_estimate_anticorrelated_hits_pc0_boundary():
    est = estimate(table(50, 0, 50, 0))
    assert est.case is CausalCase.BOUNDARY_PC0
    assert est.p_c == 0.0
    assert est.p_s == 0.25  # (0 + 50 + 0) / 200
    assert est.p_c_raw == -0.5
    # the rejected pc=1 candidate has -inf likelihood here (a10 > 0)
    assert log_likelihood(table(50, 0, 50, 0), ps_given_pc1(table(50, 0, 50, 0)), 1.0) == -math.inf


def test_estimate_window_required():
    with pytest.raises(ParameterError):
        estimate(CorrespondenceCounts(0, 0, 0, 0, 1, 0, 0))


def test_boundary_edge_formulas():
    t = table(30, 10, 12, 8)
    assert ps_given_pc0(t) == (10 + 12 + 16) / (2 * 60)
    assert ps_given_pc1(t) == (10 + 8) / (2 * 40 + 8)


def test_estimate_scale_invariance():
    rng = np.random.default_rng(21)
    for _ in range(200):
        counts = rng.integers(0, 40, 4).tolist()
        if counts[2] + counts[3] == 0 or counts[0] + counts[1] == 0:
            continue
        base = estimate(table(*counts))
        for k in (2, 3, 10, 1000):
            scaled = estimate(table(*[k * c for c in counts]))
            assert scaled.case is base.case
            if base.case is not CausalCase.UNDEFINED:
                assert scaled.p_s == base.p_s
                assert scaled.p_c == base.p_c


def test_gradient_matches_finite_differences_away_from_optimum():
    rng = np.random.default_rng(4)
    for _ in range(100):
        t = table(*(rng.integers(1, 50, 4).tolist()))
        ps = rng.uniform(0.05, 0.95)
        pc = rng.uniform(0.05, 0.95)
        d_ps, d_pc = log_likelihood_gradient(t, ps, pc)
        h = 1e-6
        fd_ps = (log_likelihood(t, ps + h, pc) - log_likelihood(t, ps - h, pc)) / (2 * h)
        fd_pc = (log_likelihood(t, ps, pc + h) - log_likelihood(t, ps, pc - h)) / (2 * h)
        scale = max(1.0, abs(d_ps), abs(d_pc))
        assert abs(fd_ps - d_ps) / scale < 1e-4
        assert abs(fd_pc - d_pc) / scale < 1e-4


def test_stationarity_at_interior_estimates():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 60:
        counts = rng.integers(1, 200, 4).tolist()
        est = estimate(table(*counts))
        if est.case is not CausalCase.INTERIOR or not 0 < est.p_c < 1:
            continue
        d_ps, d_pc = log_likelihood_gradient(table(*counts), est.p_s, est.p_c)
        scale = sum(counts)
        assert abs(d_ps) / scale < 1e-10
        assert abs(d_pc) / scale < 1e-10
        checked += 1


def test_curvature_at_interior_estimates():
    # The stationary point is a maximum: negative second derivative in
    # p_c and positive Hessian determinant, measured numerically.
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 40:
        counts = rng.integers(5, 200, 4).tolist()
        t = table(*counts)
        est = estimate(t)
        if est.case is not CausalCase.INTERIOR or not 0.02 < est.p_c < 0.98:
            continue
        h = 1e-5
        ps, pc = est.p_s, est.p_c

        def grad(dps, dpc):
            return log_likelihood_gradient(t, ps + dps, pc + dpc)

        d2_ps = (grad(h, 0)[0] - grad(-h, 0)[0]) / (2 * h)
        d2_pc = (grad(0, h)[1] - grad(0, -h)[1]) / (2 * h)
        d2_cross = (grad(0, h)[0] - grad(0, -h)[0]) / (2 * h)
        det = d2_ps * d2_pc - d2_cross**2
        assert d2_pc < 0
        assert det > 0
        checked += 1


def test_estimate_matches_numeric_maximizer_sample():
    rng = np.random.default_rng(17)
    done = 0
    while done < 50:
        counts = rng.integers(0, 120, 4).tolist()
        t = table(*counts)
        est = estimate(t)
        if est.case is CausalCase.UNDEFINED:
            a00, a01, a10, a11 = counts
            assert a10 + a11 == 0 or a00 + a01 == 0
            done += 1
            continue
        oracle = maximize_log_likelihood(*counts)
        assert abs(est.p_s - oracle["p_s"]) < 1e-6
        assert abs(est.p_c - oracle["p_c"]) < 1e-6
        # the closed form is never worse than the numeric search
        assert est.log_likelihood >= oracle["ll"] - 1e-9
        assert est.log_likelihood == pytest.approx(
            safe_log_likelihood(*counts, est.p_s, est.p_c), abs=1e-12
        )
        done += 1
