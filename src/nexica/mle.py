"""Closed-form maximum-likelihood estimation of event causality.

The generative model has two parameters: ``p_s``, the per-slot chance of
a spontaneous event (shared by both series), and ``p_c``, the chance
that a cause event triggers an effect event at the fixed lag.  Under it
the four paired-slot outcomes have probabilities

    f00 = (1 - p_s)^2
    f01 = (1 - p_s) p_s
    f10 = p_s (1 - p_s) (1 - p_c)
    f11 = p_s (p_s + p_c - p_s p_c)

which sum to one.  Maximizing the log likelihood
``sum A_ij * ln f_ij`` of an observed contingency table gives closed
forms for both parameters:

    p_s = (A01 + A10 + A11) / (2 (A00 + A01) + A10 + A11)
    p_c = (2 A00 A11 + A01 (A11 - A10) - A10^2 - A10 A11)
          / ((2 A00 + A01) (A10 + A11))

The p_s expression always lands in [0, 1], and the p_c expression never
exceeds 1 (it equals 1 exactly when A10 = 0), so the only way off the
probability square is p_c < 0.  When that happens the constrained
maximum lies on an edge of the square, and the restricted maximizers

    p_s | p_c = 0:  (A01 + A10 + 2 A11) / (2 (A00 + A01 + A10 + A11))
    p_s | p_c = 1:  (A01 + A11) / (2 (A00 + A01) + A11)

are compared by log likelihood.  Tables where the cause series never
fires (A10 + A11 = 0) or always fires (A00 + A01 = 0) carry no
information about p_c at all and are reported as undefined.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .correspond import CorrespondenceCounts
from .errors import DomainError, ParameterError
from .ingest import MAX_WINDOW


class CausalCase(enum.Enum):
    """Which branch of the constrained maximization produced the estimate."""

    INTERIOR = "interior"
    BOUNDARY_PC0 = "boundary_pc0"
    BOUNDARY_PC1 = "boundary_pc1"
    UNDEFINED = "undefined"


# Case codes of ``estimate_many``: the position of each case in this tuple.
CASES = tuple(CausalCase)
INTERIOR, BOUNDARY_PC0, BOUNDARY_PC1, UNDEFINED = range(len(CASES))


@dataclass(frozen=True)
class CausalEstimate:
    """Constrained MLE for one contingency table.

    ``p_c_raw`` is the unconstrained closed-form value, kept alongside the
    constrained ``p_c`` so either convention can be reproduced downstream.
    All numeric fields are NaN when the case is UNDEFINED.
    """

    p_s: float
    p_c: float
    log_likelihood: float
    case: CausalCase
    p_c_raw: float = math.nan


def pair_probabilities(p_s: float, p_c: float) -> tuple[float, float, float, float]:
    """Model probabilities (f00, f01, f10, f11) of the four slot pairings."""
    if not (0.0 <= p_s <= 1.0 and 0.0 <= p_c <= 1.0):
        raise DomainError(f"probabilities out of range: p_s={p_s}, p_c={p_c}")
    return _pair_probabilities(p_s, p_c)


def _pair_probabilities(p_s: float, p_c: float) -> tuple[float, float, float, float]:
    q = 1.0 - p_s
    return (
        q * q,
        q * p_s,
        p_s * q * (1.0 - p_c),
        p_s * (p_s + p_c - p_s * p_c),
    )


def log_likelihood(counts: CorrespondenceCounts, p_s: float, p_c: float) -> float:
    """Log likelihood of the table; -inf when a positive count hits f=0.

    Cells with a zero count contribute nothing even when their probability
    is zero (the usual 0 * ln 0 = 0 convention), which makes the edge
    evaluations well defined.  The point need not lie inside [0, 1]^2 as
    long as every cell with a positive count keeps a positive probability;
    this is what lets finite-difference checks straddle the p_c = 1 edge.
    """
    fs = _pair_probabilities(p_s, p_c)
    total = 0.0
    for a, f in zip(counts.as_tuple(), fs):
        if a == 0:
            continue
        if f <= 0.0:
            return -math.inf
        total += a * math.log(f)
    return total


def log_likelihood_gradient(
    counts: CorrespondenceCounts, p_s: float, p_c: float
) -> tuple[float, float]:
    """Analytic partials (d/dp_s, d/dp_c) of the log likelihood.

    Cell terms:
        d ln f00 / dp_s = 2 / (p_s - 1)            d ln f00 / dp_c = 0
        d ln f01 / dp_s = (1 - 2 p_s) / (p_s (1 - p_s))
        d ln f10 / dp_s = (1 - 2 p_s) / (p_s (1 - p_s))
        d ln f10 / dp_c = 1 / (p_c - 1)
        d ln f11 / dp_s = (p_c - 2 p_s (p_c - 1)) / (p_s (p_s + p_c - p_s p_c))
        d ln f11 / dp_c = (1 - p_s) / (p_s + p_c - p_s p_c)

    Terms whose count is zero are skipped, matching the 0 * ln 0 = 0
    convention in :func:`log_likelihood`.
    """
    a00, a01, a10, a11 = counts.as_tuple()
    g11 = p_s + p_c - p_s * p_c
    d_ps = 0.0
    d_pc = 0.0
    if a00:
        d_ps += a00 * 2.0 / (p_s - 1.0)
    if a01:
        d_ps += a01 * (1.0 - 2.0 * p_s) / (p_s * (1.0 - p_s))
    if a10:
        d_ps += a10 * (1.0 - 2.0 * p_s) / (p_s * (1.0 - p_s))
        d_pc += a10 / (p_c - 1.0)
    if a11:
        d_ps += a11 * (p_c - 2.0 * p_s * (p_c - 1.0)) / (p_s * g11)
        d_pc += a11 * (1.0 - p_s) / g11
    return d_ps, d_pc


def estimate_unconstrained(counts: CorrespondenceCounts) -> tuple[float, float]:
    """Closed-form stationary point, which may leave [0, 1] in p_c."""
    a00, a01, a10, a11 = counts.as_tuple()
    ps_den = 2 * (a00 + a01) + a10 + a11
    pc_den = (2 * a00 + a01) * (a10 + a11)
    if ps_den == 0 or pc_den == 0:
        raise DomainError(
            f"degenerate table {counts.as_tuple()}: closed forms are undefined"
        )
    p_s = (a01 + a10 + a11) / ps_den
    p_c = (2 * a00 * a11 + a01 * (a11 - a10) - a10 * a10 - a10 * a11) / pc_den
    return p_s, p_c


def ps_given_pc0(counts: CorrespondenceCounts) -> float:
    """Maximizer of the log likelihood restricted to the p_c = 0 edge."""
    a00, a01, a10, a11 = counts.as_tuple()
    return (a01 + a10 + 2 * a11) / (2 * (a00 + a01 + a10 + a11))


def ps_given_pc1(counts: CorrespondenceCounts) -> float:
    """Maximizer of the log likelihood restricted to the p_c = 1 edge."""
    a00, a01, a10, a11 = counts.as_tuple()
    return (a01 + a11) / (2 * (a00 + a01) + a11)


def estimate(counts: CorrespondenceCounts) -> CausalEstimate:
    """Constrained MLE of (p_s, p_c) for one table.

    Step 1 takes the closed-form stationary point when it lies inside the
    probability square (checked with exact integer arithmetic).  Step 2
    otherwise evaluates the two feasible edge candidates (p_c = 0 and
    p_c = 1) and keeps the one with the greater log likelihood, breaking
    ties toward p_c = 0.  Tables with no cause events, or with cause
    events in every slot, are undefined: there is no opportunity to
    observe whether causation occurs (the p_s = 0 and p_s = 1 edges).
    """
    if counts.window <= 0:
        raise ParameterError("window must be positive")
    a00, a01, a10, a11 = counts.as_tuple()

    if a10 + a11 == 0 or a00 + a01 == 0:
        return CausalEstimate(math.nan, math.nan, math.nan, CausalCase.UNDEFINED)

    pc_num = 2 * a00 * a11 + a01 * (a11 - a10) - a10 * a10 - a10 * a11
    pc_den = (2 * a00 + a01) * (a10 + a11)
    p_s = (a01 + a10 + a11) / (2 * (a00 + a01) + a10 + a11)
    p_c_raw = pc_num / pc_den

    # p_s is always in [0, 1] and p_c_raw never exceeds 1 (their integer
    # numerators are bounded by their denominators), so the only escape
    # from the square is p_c_raw < 0.
    if pc_num >= 0:
        ll = log_likelihood(counts, p_s, p_c_raw)
        if math.isfinite(ll):
            return CausalEstimate(p_s, p_c_raw, ll, CausalCase.INTERIOR, p_c_raw)

    ps0 = ps_given_pc0(counts)
    ps1 = ps_given_pc1(counts)
    ll0 = log_likelihood(counts, ps0, 0.0)
    ll1 = log_likelihood(counts, ps1, 1.0)
    if ll1 > ll0:
        return CausalEstimate(ps1, 1.0, ll1, CausalCase.BOUNDARY_PC1, p_c_raw)
    return CausalEstimate(ps0, 0.0, ll0, CausalCase.BOUNDARY_PC0, p_c_raw)


def estimate_many(
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`estimate` for every row of an ``(n, 4)`` count array.

    Returns float64 columns ``p_s``, ``p_c``, ``p_c_raw`` and ``loglik``
    and an int8 ``case`` column of codes into :data:`CASES`.  Each value
    equals the scalar estimate's bit for bit: the quotients divide
    integers that float64 holds exactly (windows up to
    :data:`MAX_WINDOW`), the interior test is the same integer
    ``pc_num >= 0``, and the log likelihood sums the same cell terms in
    the same order with ``math.log``, since ``np.log`` may differ from it
    in the last bit.
    """
    counts = np.asarray(counts, dtype=np.int64).reshape(-1, 4)
    if counts.size and int(counts.sum(axis=1).max()) > MAX_WINDOW:
        raise ParameterError(f"window exceeds {MAX_WINDOW} slots")
    n = counts.shape[0]
    p_s, p_c, p_c_raw, loglik = (np.full(n, math.nan) for _ in range(4))
    case = np.full(n, UNDEFINED, dtype=np.int8)

    a00, a01, a10, a11 = counts.T
    rows = np.flatnonzero((a10 + a11 > 0) & (a00 + a01 > 0))
    a00, a01, a10, a11 = counts[rows].T
    pc_num = 2 * a00 * a11 + a01 * (a11 - a10) - a10 * a10 - a10 * a11
    pc_den = (2 * a00 + a01) * (a10 + a11)
    ps = (a01 + a10 + a11) / (2 * (a00 + a01) + a10 + a11)
    raw = pc_num / pc_den
    p_c_raw[rows] = raw

    ll = np.full(rows.size, -math.inf)
    in_square = pc_num >= 0
    ll[in_square] = _log_likelihood_many(counts[rows[in_square]], ps[in_square], raw[in_square])
    interior = np.isfinite(ll)
    p_s[rows[interior]] = ps[interior]
    p_c[rows[interior]] = raw[interior]
    loglik[rows[interior]] = ll[interior]
    case[rows[interior]] = INTERIOR

    edge = ~interior
    rows = rows[edge]
    a00, a01, a10, a11 = a00[edge], a01[edge], a10[edge], a11[edge]
    ps0 = (a01 + a10 + 2 * a11) / (2 * (a00 + a01 + a10 + a11))
    ps1 = (a01 + a11) / (2 * (a00 + a01) + a11)
    ll0 = _log_likelihood_many(counts[rows], ps0, 0.0)
    ll1 = _log_likelihood_many(counts[rows], ps1, 1.0)
    one = ll1 > ll0
    p_s[rows] = np.where(one, ps1, ps0)
    p_c[rows] = np.where(one, 1.0, 0.0)
    loglik[rows] = np.where(one, ll1, ll0)
    case[rows] = np.where(one, BOUNDARY_PC1, BOUNDARY_PC0)
    return p_s, p_c, p_c_raw, loglik, case


def _log_likelihood_many(counts: np.ndarray, p_s: np.ndarray, p_c) -> np.ndarray:
    """:func:`log_likelihood` per row, with the scalar's operations in its order."""
    total = np.zeros(counts.shape[0])
    dead = np.zeros(counts.shape[0], dtype=bool)
    for a, f in zip(counts.T, _pair_probabilities(p_s, p_c)):
        f = np.broadcast_to(f, total.shape)
        live = a != 0
        dead |= live & (f <= 0.0)
        use = np.flatnonzero(live & (f > 0.0))
        term = np.zeros(total.shape)
        term[use] = a[use] * np.fromiter(map(math.log, f[use].tolist()), float, use.size)
        total += term
    total[dead] = -math.inf
    return total
