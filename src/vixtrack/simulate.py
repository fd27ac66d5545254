"""Path simulation, simulated futures curves, and strategy wealth evolution.

The index follows the explicit Euler recursion

    S[j+1] = S[j] + mu*(theta - S[j])*dt + g(S[j])*sqrt(dt)*Z[j+1]

with i.i.d. standard normal shocks, dt = ``model.DT`` and the local
volatility ``g`` the engine is given (every subcommand passes
``LocalVol.square_root(hist.sigma)``).  Monthly contracts mature every
``model.CYCLE_DAYS`` trading days; their prices are filled in from the
closed form in :mod:`vixtrack.model` into the same
:class:`~vixtrack.data.PricePanel` that loaded quotes fill, NaN past
each contract's maturity.  A two-contract strategy (the
dynamic tracker, the VXX-style roll) is a plain per-day array of the
weight on the first of two maturity ranks of the panel, the second
holding the rest, and its wealth is a plain array from one vectorized
self-financing mark-to-market recursion whose cash earns the panel's
money-market account.

RNG convention: path k of a multi-path run draws its normals from the
k-th child of ``SeedSequence(seed)`` into its own row of one batch,
which the recursion then advances a day at a time for all paths at
once; so a path is the same alone on its child or in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PricePanel
from .errors import require
from .model import (
    CYCLE_DAYS,
    DT,
    TRADING_DAYS_PER_YEAR,
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
)

__all__ = [
    "IndexPath",
    "simulate_index_path",
    "simulate_index_paths",
    "futures_panel_from_path",
    "evolve_wealth",
    "hold_pair",
    "vxx_front_weights",
]

# Floor applied when a Euler step proposes a nonpositive index level.
SPOT_FLOOR = 1e-8


@dataclass(frozen=True)
class IndexPath:
    """A simulated index path on a daily grid, from ``values[0]`` on,
    and the number of its Euler steps clamped to the positive floor."""

    values: np.ndarray
    n_clamped: int = 0


def _euler_paths(hist: HistoricalParams, g: LocalVol, s0, seeds, n_days: int) -> list:
    """Euler-step one path per seed, all paths together, from one level
    ``s0`` or one per path.  Row k of the batch first holds the normals
    of ``default_rng(seeds[k])``; each day's levels overwrite that day's
    shocks.  Returns one :class:`IndexPath` per row, a view of it."""
    if n_days < 1:
        raise ValueError(f"n_days must be >= 1, got {n_days}")
    values = np.empty((len(seeds), n_days + 1))
    values[:, 0] = s0
    if not np.all(values[:, 0] > 0):
        raise ValueError(f"s0 must be positive, got {s0}")
    for row, seed in zip(values, seeds):
        np.random.default_rng(seed).standard_normal(out=row[1:])
    sqrt_dt = np.sqrt(DT)
    n_clamped = np.zeros(len(seeds), dtype=int)
    s = values[:, 0]
    for j in range(1, n_days + 1):
        s = s + hist.mu * (hist.theta - s) * DT + g(s) * sqrt_dt * values[:, j]
        clamped = s < SPOT_FLOOR
        s[clamped] = SPOT_FLOOR
        n_clamped += clamped
        values[:, j] = s
    return [IndexPath(row, int(n)) for row, n in zip(values, n_clamped)]


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
    return _euler_paths(hist, g, s0, [seed], n_days)[0]


def simulate_index_paths(
    hist: HistoricalParams,
    g: LocalVol,
    s0,
    n_days: int,
    n_paths: int,
    seed,
) -> list:
    """Simulate ``n_paths`` independent paths from one level or one per path.

    Path ``k`` is driven by the ``k``-th child of ``SeedSequence(seed)``,
    so it equals ``simulate_index_path`` run alone on that child.
    """
    return _euler_paths(hist, g, s0, np.random.SeedSequence(seed).spawn(n_paths), n_days)


def futures_panel_from_path(
    path: IndexPath, n_contracts: int, rn: RiskNeutralParams, r: float
) -> PricePanel:
    """Price ``n_contracts`` monthly contracts on every day of the path;
    contract k (1-based) matures on day ``CYCLE_DAYS * k``.

    prices[j, i] = theta_tilde + (S[j] - theta_tilde) * exp(-mu_tilde * ttm)
    for ttm = (T_i - j) / 252 >= 0, as the loader counts it; expired
    contracts are NaN in ``prices`` and ``ttms``.  Days are integer
    indices; the money market grows at the continuously compounded
    annual rate ``r``, by e^(r*dt) a day.
    """
    n = path.values.size
    last = CYCLE_DAYS * n_contracts
    if n - 1 > last:
        raise ValueError(f"path spans {n - 1} days but the last maturity is day {last}")
    days = np.arange(n)
    maturity_days = CYCLE_DAYS * np.arange(1, n_contracts + 1)
    ttm = (maturity_days[None, :] - days[:, None]) / TRADING_DAYS_PER_YEAR
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
        mm_value=np.exp(r * DT * days),
    )


def evolve_wealth(
    weights: np.ndarray,
    today: np.ndarray,
    tomorrow: np.ndarray,
    mm_value: np.ndarray,
) -> np.ndarray:
    """Wealth of a daily-rebalanced futures portfolio.

    x[j+1] = x[j] * (M[j+1] / M[j] + sum_k w[j, k] * (f'[j, k] / f[j, k] - 1))

    from x[0] = 100.  Row ``j`` of the (n-1) x k arrays holds the weights
    and the day-``j`` and day-``j+1`` prices of the held contracts, and
    ``mm_value`` holds the n values M of the money-market account.  The
    full wealth sits on margin earning the account's return; each
    contract contributes its price change times the units held.
    """
    weights, today, tomorrow, mm_value = (
        np.asarray(a, dtype=float) for a in (weights, today, tomorrow, mm_value)
    )
    if weights.ndim != 2 or not (weights.shape == today.shape == tomorrow.shape):
        raise ValueError("weights and prices must be (days, contracts) arrays of one shape")
    if mm_value.shape != (weights.shape[0] + 1,):
        raise ValueError("need one money-market value per day")
    if np.any(today == 0):
        raise ZeroDivisionError("zero futures price in today's quotes")
    growth = mm_value[1:] / mm_value[:-1] + np.sum(weights * (tomorrow / today - 1.0), axis=1)
    return np.cumprod(np.concatenate([[100.0], growth]))


def hold_pair(panel: PricePanel, ranks: tuple, w1: np.ndarray) -> np.ndarray:
    """Wealth, from 100 on the panel's first day, of holding ``w1[j]``
    of it in maturity rank ``ranks[0]`` and the rest in rank
    ``ranks[1]`` over each day ``j`` -> ``j+1``, with the wealth earning
    the panel's money-market return.  It may go negative under
    leverage.

    Ranks count contracts with ttm > 0 on day ``j`` (see
    :meth:`~vixtrack.data.PricePanel.rank_columns`), so a maturing
    contract's final settlement mark at f = S is earned by the holder
    and the next rank takes its place the day it settles.
    """
    cols = panel.rank_columns(*ranks)
    return evolve_wealth(
        np.column_stack([w1, 1.0 - w1]),
        np.take_along_axis(panel.prices[:-1], cols, axis=1),
        np.take_along_axis(panel.prices[1:], cols, axis=1),
        panel.mm_value,
    )


def vxx_front_weights(panel: PricePanel) -> np.ndarray:
    """Front-contract weight of the VXX-style linear roll on each day
    but the last (the second contract gets the rest).

    A cycle runs from one front expiry to the next.  Its length is the
    gap between the front two maturities, and the day in the cycle is
    that length minus the days left to the front's expiry, all in whole
    trading days.  The front weight falls linearly from 1 at the start
    of the cycle to 0 at its end.

    Raises
    ------
    ValueError
        If, naming the first such day, the day falls outside its cycle.
    """
    ttm = np.take_along_axis(panel.ttms[:-1], panel.rank_columns(1, 2), axis=1)
    days = np.rint(ttm / DT).astype(int)
    cycle_length = days[:, 1] - days[:, 0]
    day_in_cycle = cycle_length - days[:, 0]
    require(
        (0 <= day_in_cycle) & (day_in_cycle <= cycle_length), ValueError,
        "day_in_cycle must lie in [0, {:g}], got {:g}", cycle_length, day_in_cycle,
    )
    return 1.0 - day_in_cycle / cycle_length
