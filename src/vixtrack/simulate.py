"""Path simulation, simulated futures curves, and strategy wealth evolution.

The index follows the explicit Euler recursion

    S[j+1] = S[j] + mu*(theta - S[j])*dt + g(j*dt, S[j])*sqrt(dt)*Z[j+1]

with i.i.d. standard normal shocks.  Futures prices over a contract
calendar are filled in from the closed form in :mod:`vixtrack.model`
into the same :class:`~vixtrack.data.PricePanel` that loaded quotes
fill, NaN past each contract's maturity.  Strategies are run day by
day through the self-financing mark-to-market wealth recursion; a
strategy that needs the calendar (the dynamic tracker, the VXX-style
roll) is built by a factory that closes over it.

RNG convention: every path is driven by ``numpy.random.default_rng``
seeded from a ``SeedSequence``.  Multi-path runs spawn one child
sequence per path index, so serial and parallel execution produce the
same paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .data import PricePanel
from .model import (
    DT,
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
)

__all__ = [
    "IndexPath",
    "ContractCalendar",
    "PortfolioPath",
    "DayQuote",
    "simulate_index_path",
    "simulate_index_paths",
    "futures_panel_from_path",
    "evolve_wealth",
    "vxx_roll_weights",
    "vxx_strategy",
    "run_strategy",
    "replay_wealth",
]

# Floor applied when a Euler step proposes a nonpositive index level.
SPOT_FLOOR = 1e-8


@dataclass(frozen=True)
class IndexPath:
    """A simulated index path on a daily grid."""

    s0: float
    values: np.ndarray
    dt: float
    seed: object
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
class ContractCalendar:
    """Ordered futures maturities on the trading-day grid.

    Maturities are expressed in years and must sit on integer multiples
    of ``dt``.  ``cycle_length`` is the number of trading days in one
    roll cycle (front-month lifetime).
    """

    maturities: tuple
    cycle_length: int
    dt: float = DT

    def __post_init__(self):
        mats = tuple(float(m) for m in self.maturities)
        object.__setattr__(self, "maturities", mats)
        if len(mats) == 0:
            raise ValueError("calendar must contain at least one maturity")
        if any(b <= a for a, b in zip(mats, mats[1:])):
            raise ValueError("maturities must be strictly increasing")
        days = [m / self.dt for m in mats]
        if any(abs(d - round(d)) > 1e-9 for d in days):
            raise ValueError("every maturity must be an integer multiple of dt")
        object.__setattr__(self, "_maturity_days", tuple(int(round(d)) for d in days))
        if self.cycle_length < 1:
            raise ValueError("cycle_length must be >= 1")

    @classmethod
    def monthly(
        cls,
        n_contracts: int,
        days_per_month: int = 21,
        dt: float = DT,
    ) -> "ContractCalendar":
        """Evenly spaced maturities at multiples of ``days_per_month``."""
        mats = tuple((k + 1) * days_per_month * dt for k in range(n_contracts))
        return cls(mats, cycle_length=days_per_month, dt=dt)

    @property
    def maturity_days(self) -> tuple:
        return self._maturity_days

    @property
    def n_contracts(self) -> int:
        return len(self.maturities)

    def tradable(self, day: int) -> list:
        """Contract indices that can be held from `day` to `day`+1."""
        return [i for i, d in enumerate(self._maturity_days) if d > day]

    def ttm(self, day: int, contract: int) -> float:
        """Time to maturity in years of `contract` as of `day`."""
        return (self._maturity_days[contract] - day) * self.dt

    def day_in_cycle(self, day: int) -> int:
        """Days elapsed in the current roll cycle (0 on a fresh front)."""
        tradable = self.tradable(day)
        if not tradable:
            raise ValueError(f"no tradable contract on day {day}")
        days_to_expiry = self._maturity_days[tradable[0]] - day
        return self.cycle_length - days_to_expiry


@dataclass(frozen=True)
class PortfolioPath:
    """Wealth series and per-day weight vectors from a strategy run.

    ``weights[j]`` was chosen on day ``j`` from day-``j`` information and
    applied over the (j -> j+1) mark-to-market interval; it is aligned
    with the contracts tradable on day ``j``.  Wealth may go negative
    under leverage.
    """

    wealth: np.ndarray
    weights: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.weights) != self.wealth.size - 1:
            raise ValueError("need one weight vector per wealth transition")

    @property
    def returns(self) -> np.ndarray:
        return self.wealth[1:] / self.wealth[:-1] - 1.0


class DayQuote(NamedTuple):
    """Information available to a strategy on one trading day."""

    day: int
    spot: float
    ttms: np.ndarray
    prices: np.ndarray


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
    dt = DT
    sqrt_dt = np.sqrt(dt)
    z = rng.standard_normal(n_days)
    values = np.empty(n_days + 1)
    values[0] = s0
    n_clamped = 0
    s = s0
    for j in range(n_days):
        s_next = _euler_step(s, hist.mu * (hist.theta - s) * dt, g(j * dt, s), sqrt_dt, z[j])
        if s_next < SPOT_FLOOR:
            s_next = SPOT_FLOOR
            n_clamped += 1
        values[j + 1] = s_next
        s = s_next
    return IndexPath(s0=s0, values=values, dt=dt, seed=seed, n_clamped=n_clamped)


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
    path: IndexPath, cal: ContractCalendar, rn: RiskNeutralParams, mkt: MarketConfig
) -> PricePanel:
    """Price every live contract on every day of the path.

    prices[j, i] = theta_tilde + (S[j] - theta_tilde) * exp(-mu_tilde * ttm)
    for ttm = T_i - j*dt >= 0; expired contracts are NaN in both
    ``prices`` and ``ttms``.  Days are integer indices; the rate is
    ``mkt.r`` throughout and the money market grows by e^(r*dt) a day.
    """
    if cal.n_contracts == 0:
        raise ValueError("empty contract calendar")
    n = path.n_days
    if n - 1 > max(cal.maturity_days):
        raise ValueError(
            f"path spans {n - 1} days but the last maturity is day "
            f"{max(cal.maturity_days)}"
        )
    days = np.arange(n)
    ttm = (np.asarray(cal.maturity_days)[None, :] - days[:, None]) * cal.dt
    spot = path.values[:, None]
    prices = rn.theta_tilde + (spot - rn.theta_tilde) * np.exp(-rn.mu_tilde * ttm)
    expired = ttm < 0
    prices[expired] = np.nan
    ttm[expired] = np.nan
    return PricePanel(
        dates=days,
        spot=path.values,
        contracts=np.array([f"C{i + 1:02d}" for i in range(cal.n_contracts)]),
        prices=prices,
        ttms=ttm,
        rates=np.full(n, mkt.r),
        mm_value=np.exp(mkt.r * mkt.dt * days),
    )


def evolve_wealth(
    x: float,
    weights: np.ndarray,
    today: np.ndarray,
    tomorrow: np.ndarray,
    cfg: MarketConfig,
) -> float:
    """One mark-to-market step of the futures portfolio.

    x_next = x * e^(r*dt) + sum_i (w_i * x / f_i) * (f_i' - f_i)

    The full wealth sits on margin earning the risk-free rate; each
    contract contributes its price change times the units held.
    """
    weights = np.asarray(weights, dtype=float)
    today = np.asarray(today, dtype=float)
    tomorrow = np.asarray(tomorrow, dtype=float)
    if not (weights.shape == today.shape == tomorrow.shape):
        raise ValueError("weights and price vectors must have equal length")
    if np.any(today == 0):
        raise ZeroDivisionError("zero futures price in today's quotes")
    units = weights * x / today
    return x * cfg.growth_factor + float(np.dot(units, tomorrow - today))


def vxx_roll_weights(day_in_cycle: int, cycle_length: int) -> tuple:
    """Deterministic linear-roll weights on the two front contracts.

    The front weight falls linearly from 1 at the start of the cycle to
    0 at the end; the second-month weight is the complement.
    """
    if not 0 <= day_in_cycle <= cycle_length:
        raise ValueError(
            f"day_in_cycle must lie in [0, {cycle_length}], got {day_in_cycle}"
        )
    w1 = 1.0 - day_in_cycle / cycle_length
    return w1, 1.0 - w1


def vxx_strategy(cal: ContractCalendar):
    """Linear-roll ETN replica on ``cal``: long the two front contracts,
    rolling linearly from all-front to all-second over each cycle."""

    def rule(quote: DayQuote) -> np.ndarray:
        if quote.prices.size < 2:
            raise ValueError("linear roll needs at least two tradable contracts")
        w = np.zeros(quote.prices.size)
        w[0], w[1] = vxx_roll_weights(cal.day_in_cycle(quote.day), cal.cycle_length)
        return w

    return rule


def run_strategy(
    panel: PricePanel,
    strategy: Callable[[DayQuote], np.ndarray],
    x0: float,
    cfg: MarketConfig,
) -> PortfolioPath:
    """Run a daily-rebalanced strategy over a futures panel.

    On each day ``j`` the strategy sees a :class:`DayQuote` for the
    contracts tradable on that day (ttm > 0: alive through day j+1, so
    a maturing contract's final settlement mark at f = S is earned by
    the holder) and returns one weight per tradable contract.  The
    front contract drops out of the tradable set on its maturity day
    and the next rank takes its place.
    """
    n = panel.n_days
    if n < 2:
        raise ValueError("panel must span at least 2 days")
    wealth = np.empty(n)
    wealth[0] = x0
    weights_hist: list = []
    for j in range(n - 1):
        idx = np.flatnonzero(panel.ttms[j] > 0)
        quote = DayQuote(
            day=j,
            spot=float(panel.spot[j]),
            ttms=panel.ttms[j, idx],
            prices=panel.prices[j, idx],
        )
        w = np.asarray(strategy(quote), dtype=float)
        if w.shape != (len(idx),):
            raise ValueError(
                f"strategy returned {w.shape} weights on day {j}, "
                f"expected ({len(idx)},)"
            )
        wealth[j + 1] = evolve_wealth(
            wealth[j], w, panel.prices[j, idx], panel.prices[j + 1, idx], cfg
        )
        weights_hist.append(w)
    return PortfolioPath(wealth=wealth, weights=weights_hist)


def replay_wealth(
    panel: PricePanel, weights: list, x0: float, cfg: MarketConfig
) -> np.ndarray:
    """Recompute a wealth series from recorded weights and panel prices.

    A strategy run is self-financing, so this reproduces the original
    wealth series exactly.
    """
    n = panel.n_days
    if len(weights) != n - 1:
        raise ValueError("need one weight vector per transition")
    wealth = np.empty(n)
    wealth[0] = x0
    for j in range(n - 1):
        idx = np.flatnonzero(panel.ttms[j] > 0)
        wealth[j + 1] = evolve_wealth(
            wealth[j], weights[j], panel.prices[j, idx], panel.prices[j + 1, idx], cfg
        )
    return wealth
