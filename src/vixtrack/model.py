"""Pricing kernel for a discrete-time mean-reverting volatility index.

The index level S mean-reverts to a long-run level under both the
historical measure (speed ``mu``, level ``theta``) and the risk-neutral
measure (speed ``mu_tilde``, level ``theta_tilde``), with the
square-root (CIR) local volatility g(S) = sigma * sqrt(S) of the
fitted ``HistoricalParams.sigma`` under both.  Futures prices are
risk-neutral conditional expectations of the index and admit the
closed form

    f(S, tau) = (S - theta_tilde) * exp(-mu_tilde * tau) + theta_tilde.

Everything in this module is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, require

__all__ = [
    "HistoricalParams",
    "RiskNeutralParams",
    "LocalVol",
    "futures_price",
    "b_coefficient",
    "critical_spot",
]

TRADING_DAYS_PER_YEAR = 252
# One trading day in years: the step of every daily grid.
DT = 1.0 / TRADING_DAYS_PER_YEAR
# Trading days in one monthly futures cycle: simulated contract k
# (1-based) matures on day CYCLE_DAYS * k.
CYCLE_DAYS = 21


@dataclass(frozen=True)
class HistoricalParams:
    """Mean-reversion parameters under the historical measure.

    Parameters
    ----------
    mu : float
        Mean-reversion speed, 1/year.
    theta : float
        Long-run index level, index points.
    sigma : float
        Coefficient of the local volatility g(S) = sigma * sqrt(S),
        index-points^(1/2)/year^(1/2).
    """

    mu: float
    theta: float
    sigma: float

    def __post_init__(self):
        # sigma = 0 is admitted as the deterministic (pure-drift)
        # degenerate case used in diagnostics; estimation routines
        # require sigma > 0 and enforce it themselves.
        if not (self.mu > 0 and self.theta > 0 and self.sigma >= 0):
            raise ValueError(
                f"mu, theta must be positive and sigma nonnegative, got "
                f"({self.mu}, {self.theta}, {self.sigma})"
            )


@dataclass(frozen=True)
class RiskNeutralParams:
    """Mean-reversion parameters under the pricing (risk-neutral) measure."""

    mu_tilde: float
    theta_tilde: float

    def __post_init__(self):
        if not (self.mu_tilde > 0 and self.theta_tilde > 0):
            raise ValueError(
                f"mu_tilde and theta_tilde must be positive, got "
                f"({self.mu_tilde}, {self.theta_tilde})"
            )


@dataclass(frozen=True)
class LocalVol:
    """The square-root local volatility g(S) = sigma * sqrt(S) as a
    callable, for the Euler engine's ``g`` argument."""

    sigma: float

    def __post_init__(self):
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")

    @classmethod
    def square_root(cls, sigma: float) -> "LocalVol":
        return cls(sigma)

    def __call__(self, spot):
        """Evaluate g(spot), elementwise for arrays."""
        # as float, for the inf start of the one-pass check: a NaN
        # minimum fails it and an empty batch passes
        spot = np.asarray(spot, dtype=float)
        if not np.minimum.reduce(spot, axis=None, initial=np.inf) >= 0:
            # the level alone: a batch of paths has no day to name
            bad = float(spot[~(spot >= 0)][0])
            raise ValueError(f"square-root volatility requires spot >= 0, got {bad}")
        return self.sigma * np.sqrt(spot)


def futures_price(spot, ttm, rn: RiskNeutralParams):
    """Futures price f = (spot - theta_tilde) e^(-mu_tilde ttm) + theta_tilde
    for time-to-maturity ``ttm`` given the current spot, elementwise
    over broadcast scalars or arrays: the one evaluation of the curve,
    for the simulated market and the curve fit alike.

    Affine in spot with slope exp(-mu_tilde * ttm) <= 1; converges to
    the spot at ttm = 0 and to theta_tilde as ttm grows.

    Raises
    ------
    ValueError
        If ``ttm`` or ``spot`` is negative (naming the first such day
        for arrays).
    """
    require(ttm >= 0, ValueError, "time to maturity must be >= 0, got {}", ttm)
    require(spot >= 0, ValueError, "spot must be >= 0, got {}", spot)
    return (spot - rn.theta_tilde) * np.exp(-rn.mu_tilde * ttm) + rn.theta_tilde


def b_coefficient(
    spot: float, ttm: float, rn: RiskNeutralParams, g_val: float
) -> float:
    """Sensitivity of a futures contract's one-day return to an index
    shock, to first order in dt.

    B = g_val / (theta_tilde * exp(mu_tilde * ttm) + spot - theta_tilde).

    Strictly decreasing in ``ttm`` for fixed spot and positive ``g_val``:
    longer-dated contracts react less to the same shock.  Takes scalars
    or per-day arrays.  ``g_val`` may carry a leading axis of several
    numerators over the one denominator, each of the denominator's shape.

    Raises
    ------
    ValueError
        If the denominator is not strictly positive (naming the first
        such day for arrays).
    """
    denom = rn.theta_tilde * np.exp(rn.mu_tilde * ttm) + spot - rn.theta_tilde
    require(
        denom > 0, ValueError,
        "invalid state: theta_tilde*e^(mu_tilde*ttm) + spot - theta_tilde "
        "= {} must be positive (spot={}, ttm={})", denom, spot, ttm,
    )
    return g_val / denom


def critical_spot(beta: float, r: float, rn: RiskNeutralParams) -> float:
    """Index level at which the two-contract tracker has zero expected
    squared return error, to first order in dt.

    S* = beta * mu_tilde * theta_tilde / (beta * mu_tilde + r_bar),
    with r_bar = (e^(r*dt) - 1)/dt for the continuously compounded
    annual rate ``r``.  Independent of the trading day and of which
    maturity pair is traded.

    Raises
    ------
    DegenerateProblemError
        If beta * mu_tilde + r_bar is zero.
    """
    denom = beta * rn.mu_tilde + math.expm1(r * DT) / DT
    if denom == 0:
        raise DegenerateProblemError(
            "beta * mu_tilde + r_bar = 0; the zero-error spot is undefined"
        )
    return beta * rn.mu_tilde * rn.theta_tilde / denom
