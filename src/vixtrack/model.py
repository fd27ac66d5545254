"""Pricing kernel for a discrete-time mean-reverting volatility index.

The index level S mean-reverts to a long-run level under both the
historical measure (speed ``mu``, level ``theta``, local volatility
``g``) and the risk-neutral measure (speed ``mu_tilde``, level
``theta_tilde``, same ``g``).  Futures prices are risk-neutral
conditional expectations of the index and admit the closed form

    f(S, tau) = (S - theta_tilde) * exp(-mu_tilde * tau) + theta_tilde.

Everything in this module is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError, VolatilitySingularityError, require

__all__ = [
    "HistoricalParams",
    "RiskNeutralParams",
    "LocalVol",
    "MarketConfig",
    "futures_price",
    "market_price_of_risk",
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
        Local-volatility coefficient.  For square-root volatility the
        units are index-points^(1/2)/year^(1/2).
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
    """Time-homogeneous local volatility function g(S).

    Two kinds are supported: ``"constant"`` evaluates to ``sigma``
    (Ornstein-Uhlenbeck dynamics) and ``"square-root"`` evaluates to
    ``sigma * sqrt(S)`` (CIR dynamics).
    """

    kind: str
    sigma: float

    KINDS = ("constant", "square-root")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")

    @classmethod
    def constant(cls, sigma: float) -> "LocalVol":
        return cls("constant", sigma)

    @classmethod
    def square_root(cls, sigma: float) -> "LocalVol":
        return cls("square-root", sigma)

    def __call__(self, spot: float) -> float:
        """Evaluate g(spot).  Nonnegative for spot >= 0."""
        if self.kind == "constant":
            return self.sigma
        if spot < 0:
            raise ValueError(f"square-root volatility requires spot >= 0, got {spot}")
        return self.sigma * math.sqrt(spot)


@dataclass(frozen=True)
class MarketConfig:
    """Money-market convention on the daily grid of step ``DT``.

    ``r`` is the continuously compounded annual risk-free rate.
    ``r_bar`` is always derived from (r, DT), never stored.
    """

    r: float

    @property
    def growth_factor(self) -> float:
        """One-step money-market growth factor e^(r*dt)."""
        return math.exp(self.r * DT)

    @property
    def r_bar(self) -> float:
        """Per-period simple rate (e^(r*dt) - 1) / dt."""
        return math.expm1(self.r * DT) / DT


def futures_price(spot: float, ttm: float, rn: RiskNeutralParams) -> float:
    """Futures price for time-to-maturity ``ttm`` given the current spot.

    Affine in spot with slope exp(-mu_tilde * ttm) <= 1; converges to
    the spot at ttm = 0 and to theta_tilde as ttm grows.

    Raises
    ------
    ValueError
        If ``ttm`` is negative or ``spot`` is negative.
    """
    if ttm < 0:
        raise ValueError(f"time to maturity must be >= 0, got {ttm}")
    if spot < 0:
        raise ValueError(f"spot must be >= 0, got {spot}")
    return (spot - rn.theta_tilde) * math.exp(-rn.mu_tilde * ttm) + rn.theta_tilde


def market_price_of_risk(
    spot: float,
    hist: HistoricalParams,
    rn: RiskNeutralParams,
    g: LocalVol,
) -> float:
    """Drift adjustment lambda linking historical and risk-neutral dynamics.

    lambda = [mu*(theta - S) - mu_tilde*(theta_tilde - S)] / g(S).

    Raises
    ------
    VolatilitySingularityError
        If g(spot) is zero (e.g. spot = 0 under square-root volatility).
    """
    g_val = g(spot)
    if g_val <= 0:
        raise VolatilitySingularityError(
            f"local volatility is {g_val} at spot={spot}; "
            "market price of risk is undefined"
        )
    return (
        hist.mu * (hist.theta - spot) - rn.mu_tilde * (rn.theta_tilde - spot)
    ) / g_val


def b_coefficient(
    spot: float, ttm: float, rn: RiskNeutralParams, g_val: float
) -> float:
    """Sensitivity of a futures contract's one-day return to an index
    shock, to first order in dt.

    B = g_val / (theta_tilde * exp(mu_tilde * ttm) + spot - theta_tilde).

    Strictly decreasing in ``ttm`` for fixed spot and positive ``g_val``:
    longer-dated contracts react less to the same shock.  Takes scalars
    or per-day arrays.

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


def critical_spot(beta: float, cfg: MarketConfig, rn: RiskNeutralParams) -> float:
    """Index level at which the two-contract tracker has zero expected
    squared return error, to first order in dt.

    S* = beta * mu_tilde * theta_tilde / (beta * mu_tilde + r_bar),
    with r_bar = (e^(r*dt) - 1)/dt.  Independent of the trading day and
    of which maturity pair is traded.

    Raises
    ------
    DegenerateProblemError
        If beta * mu_tilde + r_bar is zero.
    """
    denom = beta * rn.mu_tilde + cfg.r_bar
    if denom == 0:
        raise DegenerateProblemError(
            "beta * mu_tilde + r_bar = 0; the zero-error spot is undefined"
        )
    return beta * rn.mu_tilde * rn.theta_tilde / denom
