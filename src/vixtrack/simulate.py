"""Path simulation, simulated futures curves, and strategy wealth evolution.

The index follows the explicit Euler recursion

    S[j+1] = S[j] + mu*(theta - S[j])*dt + g(S[j])*sqrt(dt)*Z[j+1]

with i.i.d. standard normal shocks and dt = ``model.DT``.  Monthly
contracts mature every ``model.CYCLE_DAYS`` trading days; their prices
are filled in from the closed form in :mod:`vixtrack.model` into the
same :class:`~vixtrack.data.PricePanel` that loaded quotes fill, NaN
past each contract's maturity.  A two-contract strategy (the
dynamic tracker, the VXX-style roll) is a per-day weight array on two
maturity ranks of the panel, and its wealth comes from one vectorized
self-financing mark-to-market recursion.

RNG convention: every path is driven by ``numpy.random.default_rng``
seeded from a ``SeedSequence``.  Multi-path runs spawn one child
sequence per path index, so serial and parallel execution produce the
same paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PricePanel
from .errors import require
from .model import (
    CYCLE_DAYS,
    DT,
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
)

__all__ = [
    "IndexPath",
    "PortfolioPath",
    "simulate_index_path",
    "simulate_index_paths",
    "futures_panel_from_path",
    "evolve_wealth",
    "hold_pair",
    "vxx_roll_weights",
    "vxx_front_weights",
]

# Floor applied when a Euler step proposes a nonpositive index level.
SPOT_FLOOR = 1e-8


@dataclass(frozen=True)
class IndexPath:
    """A simulated index path on a daily grid."""

    s0: float
    values: np.ndarray
    n_clamped: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a path needs at least 2 daily values")
        if v[0] != self.s0:
            raise ValueError("values[0] must equal s0")
        if not np.all(v > 0):
            raise ValueError("path values must be positive")

    @property
    def n_days(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class PortfolioPath:
    """Wealth series and per-day weights of a two-contract strategy.

    ``weights[j]`` holds the fractions of wealth in the pair's two
    contracts, chosen on day ``j`` from day-``j`` information and
    applied over the (j -> j+1) mark-to-market interval.  Wealth may go
    negative under leverage.
    """

    wealth: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (self.wealth.size - 1, 2):
            raise ValueError("need one weight pair per wealth transition")

    @property
    def returns(self) -> np.ndarray:
        return self.wealth[1:] / self.wealth[:-1] - 1.0


def _euler_step(s, drift_dt, g_vals, sqrt_dt, z):
    return s + drift_dt + g_vals * sqrt_dt * z


def simulate_index_path(
    hist: HistoricalParams,
    g: LocalVol,
    s0: float,
    n_days: int,
    seed,
) -> IndexPath:
    """Simulate one index path over ``n_days`` steps (n_days+1 values).

    A step that lands at or below zero is clamped to a small positive
    floor; the number of clamps is recorded on the returned path.
    Identical (parameters, seed, n_days) give bit-identical paths.
    """
    if s0 <= 0:
        raise ValueError(f"s0 must be positive, got {s0}")
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    rng = np.random.default_rng(seed)
    dt = DT  # a local name: the loop below reads it on every step
    sqrt_dt = np.sqrt(dt)
    z = rng.standard_normal(n_days)
    values = np.empty(n_days + 1)
    values[0] = s0
    n_clamped = 0
    s = s0
    for j in range(n_days):
        s_next = _euler_step(s, hist.mu * (hist.theta - s) * dt, g(s), sqrt_dt, z[j])
        if s_next < SPOT_FLOOR:
            s_next = SPOT_FLOOR
            n_clamped += 1
        values[j + 1] = s_next
        s = s_next
    return IndexPath(s0=s0, values=values, n_clamped=n_clamped)


def simulate_index_paths(
    hist: HistoricalParams,
    g: LocalVol,
    s0: float,
    n_days: int,
    n_paths: int,
    seed,
) -> list:
    """Simulate ``n_paths`` independent paths.

    Path ``k`` is driven by the ``k``-th child of ``SeedSequence(seed)``,
    so the set of paths does not depend on execution order.
    """
    children = np.random.SeedSequence(seed).spawn(n_paths)
    return [
        simulate_index_path(hist, g, s0, n_days, child) for child in children
    ]


def futures_panel_from_path(
    path: IndexPath, n_contracts: int, rn: RiskNeutralParams, mkt: MarketConfig
) -> PricePanel:
    """Price ``n_contracts`` monthly contracts on every day of the path;
    contract k (1-based) matures on day ``CYCLE_DAYS * k``.

    prices[j, i] = theta_tilde + (S[j] - theta_tilde) * exp(-mu_tilde * ttm)
    for ttm = T_i - j*dt >= 0; expired contracts are NaN in both
    ``prices`` and ``ttms``.  Days are integer indices; the rate is
    ``mkt.r`` throughout and the money market grows by e^(r*dt) a day.
    """
    n = path.n_days
    last = CYCLE_DAYS * n_contracts
    if n - 1 > last:
        raise ValueError(f"path spans {n - 1} days but the last maturity is day {last}")
    days = np.arange(n)
    maturity_days = CYCLE_DAYS * np.arange(1, n_contracts + 1)
    ttm = (maturity_days[None, :] - days[:, None]) * DT
    spot = path.values[:, None]
    prices = rn.theta_tilde + (spot - rn.theta_tilde) * np.exp(-rn.mu_tilde * ttm)
    expired = ttm < 0
    prices[expired] = np.nan
    ttm[expired] = np.nan
    return PricePanel(
        dates=days,
        spot=path.values,
        contracts=np.array([f"C{i + 1:02d}" for i in range(n_contracts)]),
        prices=prices,
        ttms=ttm,
        rates=np.full(n, mkt.r),
        mm_value=np.exp(mkt.r * DT * days),
    )


def evolve_wealth(
    weights: np.ndarray,
    today: np.ndarray,
    tomorrow: np.ndarray,
    cfg: MarketConfig,
) -> np.ndarray:
    """Wealth of a daily-rebalanced futures portfolio.

    x[j+1] = x[j] * (e^(r*dt) + sum_k w[j, k] * (f'[j, k] / f[j, k] - 1))

    from x[0] = 100.  Row ``j`` of the (n-1) x k arrays holds the weights
    and the day-``j`` and day-``j+1`` prices of the held contracts.  The
    full wealth sits on margin earning the risk-free rate; each contract
    contributes its price change times the units held.
    """
    weights, today, tomorrow = (
        np.asarray(a, dtype=float) for a in (weights, today, tomorrow)
    )
    if weights.ndim != 2 or not (weights.shape == today.shape == tomorrow.shape):
        raise ValueError("weights and prices must be (days, contracts) arrays of one shape")
    if np.any(today == 0):
        raise ZeroDivisionError("zero futures price in today's quotes")
    growth = cfg.growth_factor + np.sum(weights * (tomorrow / today - 1.0), axis=1)
    return np.cumprod(np.concatenate([[100.0], growth]))


def hold_pair(
    panel: PricePanel, ranks: tuple, w1: np.ndarray, cfg: MarketConfig
) -> PortfolioPath:
    """Hold ``w1[j]`` of wealth in maturity rank ``ranks[0]`` and the
    rest in rank ``ranks[1]`` over each day ``j`` -> ``j+1``.

    Ranks count contracts with ttm > 0 on day ``j`` (see
    :meth:`~vixtrack.data.PricePanel.rank_columns`), so a maturing
    contract's final settlement mark at f = S is earned by the holder
    and the next rank takes its place the day it settles.
    """
    cols = panel.rank_columns(*ranks)
    weights = np.column_stack([w1, 1.0 - w1])
    wealth = evolve_wealth(
        weights,
        np.take_along_axis(panel.prices[:-1], cols, axis=1),
        np.take_along_axis(panel.prices[1:], cols, axis=1),
        cfg,
    )
    return PortfolioPath(wealth=wealth, weights=weights)


def vxx_roll_weights(day_in_cycle, cycle_length) -> tuple:
    """Deterministic linear-roll weights on the two front contracts.

    The front weight falls linearly from 1 at the start of the cycle to
    0 at the end; the second-month weight is the complement.  Takes
    integer scalars or per-day arrays.
    """
    require(
        (0 <= day_in_cycle) & (day_in_cycle <= cycle_length), ValueError,
        "day_in_cycle must lie in [0, {:g}], got {:g}", cycle_length, day_in_cycle,
    )
    w1 = 1.0 - day_in_cycle / cycle_length
    return w1, 1.0 - w1


def vxx_front_weights(panel: PricePanel) -> np.ndarray:
    """Front-contract weight of the VXX-style linear roll on each day
    but the last (the second contract gets the rest).

    A cycle runs from one front expiry to the next.  Its length is the
    gap between the front two maturities, and the day in the cycle is
    that length minus the days left to the front's expiry, all in whole
    trading days.
    """
    ttm = np.take_along_axis(panel.ttms[:-1], panel.rank_columns(1, 2), axis=1)
    days = np.rint(ttm / DT).astype(int)
    cycle_length = days[:, 1] - days[:, 0]
    w1, _ = vxx_roll_weights(cycle_length - days[:, 0], cycle_length)
    return w1
