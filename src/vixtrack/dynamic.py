"""Closed-form optimal two-contract tracking weights.

On each day the tracker picks the fraction ``w`` of wealth held in the
nearer of two futures contracts (the rest goes to the other contract,
so the pair always sums to one) to minimize the conditional expected
squared deviation of the portfolio's next-day return from ``beta``
times the index's return.  Conditional on today, that deviation is
normal with mean ``alpha0 + alpha1*w`` and standard deviation
``nu0 + nu1*w`` to first order in dt, so the objective is the convex
quadratic

    (alpha0 + alpha1*w)**2 + (nu0 + nu1*w)**2

whose minimizer and minimum are available in closed form.  The shock
loadings use the fitted square-root volatility g(S) = sigma * sqrt(S)
of ``HistoricalParams``.  Every function takes one day's scalars,
per-day arrays or (paths, days) arrays alike: a batch of paths shares
the days' contract pair, ttms and money-market return, so every path
goes through one evaluation (:func:`~vixtrack.simulate.track` runs the
tracker on a market's held pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, require
from .model import DT, HistoricalParams, RiskNeutralParams, b_coefficient

__all__ = [
    "TrackingCoefficients",
    "tracking_coefficients",
    "optimal_weight",
    "expected_sq_error",
]

# Contract pairs whose return sensitivities differ by less than this are
# treated as degenerate rather than regularized.
B_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class TrackingCoefficients:
    """Affine decomposition of the one-day tracking error.

    Mean part: alpha0 + alpha1 * w.  Shock part: nu0 + nu1 * w.  Each
    field is one day's scalar or a per-day array.
    """

    alpha0: float
    alpha1: float
    nu0: float
    nu1: float


def tracking_coefficients(
    spot,
    ttm1,
    ttm2,
    beta: float,
    hist: HistoricalParams,
    rn: RiskNeutralParams,
    mm_return,
) -> TrackingCoefficients:
    """Tracking-error coefficients for tracking ``beta`` times the index
    with one contract pair, given the spot, the pair's times to maturity
    and the money market's return over the day: one day's scalars,
    per-day arrays, or a (paths, days) spot against per-day ttms and
    returns.

    The pair must have distinct times to maturity.
    """
    require(spot > 0, ValueError, "spot must be positive, got {}", spot)
    require(
        ttm1 != ttm2, DegenerateProblemError,
        "contracts must have different times to maturity",
    )
    g_val = hist.sigma * np.sqrt(spot)
    # lambda * B_i = drift gap / (theta_tilde e^(mu_tilde T_i) + S - theta_tilde):
    # B_i with the drift gap in place of g, so it stays finite as g -> 0
    drift_gap = hist.mu * (hist.theta - spot) - rn.mu_tilde * (rn.theta_tilde - spot)
    numerators = np.stack(np.broadcast_arrays(g_val, drift_gap))
    b1, lam_b1 = b_coefficient(spot, ttm1, rn, numerators)
    b2, lam_b2 = b_coefficient(spot, ttm2, rn, numerators)
    require(
        (g_val == 0) | (abs(b1 - b2) >= B_SPREAD_TOL), DegenerateProblemError,
        "return sensitivities differ by {:.3e}; the pair is numerically degenerate",
        abs(b1 - b2),
    )
    sqrt_dt = math.sqrt(DT)
    alpha0 = (
        mm_return
        + DT * lam_b2
        - beta * hist.mu * DT * (hist.theta / spot - 1.0)
    )
    alpha1 = DT * (lam_b1 - lam_b2)
    nu0 = sqrt_dt * (b2 - beta * g_val / spot)
    nu1 = sqrt_dt * (b1 - b2)
    return TrackingCoefficients(alpha0=alpha0, alpha1=alpha1, nu0=nu0, nu1=nu1)


def optimal_weight(c: TrackingCoefficients) -> tuple:
    """Minimizer of the expected squared tracking error and its value.

    w* = -(alpha0*alpha1 + nu0*nu1) / (alpha1**2 + nu1**2)

    Returns ``(w_star, objective)`` where the companion contract gets
    weight ``1 - w_star`` and the objective is
    (nu1*alpha0 - nu0*alpha1)**2 / (alpha1**2 + nu1**2) >= 0.
    """
    denom = c.alpha1 ** 2 + c.nu1 ** 2
    require(
        denom > 0, DegenerateProblemError,
        "alpha1 and nu1 are both zero; no unique optimal weight exists",
    )
    w_star = -(c.alpha0 * c.alpha1 + c.nu0 * c.nu1) / denom
    objective = (c.nu1 * c.alpha0 - c.nu0 * c.alpha1) ** 2 / denom
    return w_star, objective


def expected_sq_error(w: float, c: TrackingCoefficients) -> float:
    """Expected squared one-day tracking error at weight ``w``.

    Convex in ``w``; minimized at the weight from :func:`optimal_weight`.
    """
    return (c.alpha0 + c.alpha1 * w) ** 2 + (c.nu0 + c.nu1 * w) ** 2
