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

whose minimizer and minimum are available in closed form.  Every
function takes one day's scalars or per-day arrays alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import PricePanel
from .errors import DegenerateProblemError, require
from .model import (
    DT,
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
    b_coefficient,
)

__all__ = [
    "TrackingConfig",
    "TrackingCoefficients",
    "tracking_coefficients",
    "optimal_weight",
    "expected_sq_error",
    "dynamic_weights",
]

# Contract pairs whose return sensitivities differ by less than this are
# treated as degenerate rather than regularized.
B_SPREAD_TOL = 1e-12


@dataclass(frozen=True)
class TrackingConfig:
    """Target leverage and the maturity ranks of the two tradable
    contracts (1 = front month)."""

    beta: float = 1.0
    i1: int = 1
    i2: int = 2

    def __post_init__(self):
        if self.i1 == self.i2:
            raise DegenerateProblemError("the two contracts must be distinct")
        if self.i1 < 1 or self.i2 < 1:
            raise ValueError("maturity ranks are 1-based")


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
    cfg: TrackingConfig,
    hist: HistoricalParams,
    rn: RiskNeutralParams,
    g: LocalVol,
    mkt: MarketConfig,
) -> TrackingCoefficients:
    """Tracking-error coefficients for one contract pair, given the spot
    and the times to maturity of the contracts of ranks ``cfg.i1`` and
    ``cfg.i2``: one day's scalars or per-day arrays.

    The pair must have distinct times to maturity.
    """
    require(spot > 0, ValueError, "spot must be positive, got {}", spot)
    require(
        ttm1 != ttm2, DegenerateProblemError,
        "contracts must have different times to maturity",
    )
    g_val = np.vectorize(g, otypes=[float])(spot)
    b1 = b_coefficient(spot, ttm1, rn, g_val)
    b2 = b_coefficient(spot, ttm2, rn, g_val)
    require(
        (g_val == 0) | (abs(b1 - b2) >= B_SPREAD_TOL), DegenerateProblemError,
        "return sensitivities differ by {:.3e}; the pair is numerically degenerate",
        abs(b1 - b2),
    )
    # lambda * B_i = drift gap / (theta_tilde e^(mu_tilde T_i) + S - theta_tilde):
    # B_i with the drift gap in place of g, so it stays finite as g -> 0
    drift_gap = hist.mu * (hist.theta - spot) - rn.mu_tilde * (rn.theta_tilde - spot)
    lam_b1 = b_coefficient(spot, ttm1, rn, drift_gap)
    lam_b2 = b_coefficient(spot, ttm2, rn, drift_gap)
    sqrt_dt = math.sqrt(DT)
    alpha0 = (
        math.expm1(mkt.r * DT)
        + DT * lam_b2
        - cfg.beta * hist.mu * DT * (hist.theta / spot - 1.0)
    )
    alpha1 = DT * (lam_b1 - lam_b2)
    nu0 = sqrt_dt * (b2 - cfg.beta * g_val / spot)
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


def dynamic_weights(
    panel: PricePanel,
    cfg: TrackingConfig,
    hist: HistoricalParams,
    rn: RiskNeutralParams,
    g: LocalVol,
    mkt: MarketConfig,
) -> np.ndarray:
    """Optimal fraction of wealth in rank ``cfg.i1`` on each day of the
    panel but the last; rank ``cfg.i2`` gets the complement."""
    ttm = np.take_along_axis(panel.ttms[:-1], panel.rank_columns(cfg.i1, cfg.i2), axis=1)
    c = tracking_coefficients(panel.spot[:-1], ttm[:, 0], ttm[:, 1], cfg, hist, rn, g, mkt)
    w_star, _ = optimal_weight(c)
    return w_star
