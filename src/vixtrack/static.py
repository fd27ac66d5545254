"""Rolled futures value series and sum-to-one constrained least squares.

A "rolled series" is the dollar value of perpetually holding one
maturity rank: units stay constant between rolls, and at each roll the
full proceeds buy the contract that now occupies the rank, so the
position is self-financing throughout.  A roll must move into the next
contract by expiry after the held one; anything else is a quote gap.
The series is built from the panel's days x contracts price and ttm
matrices: one vectorized roll schedule finds every roll day and checks
them all at once, the units carried across the rolls are one Python
float step per roll, and the values are one gather of the held
contract's prices.  A run builds each rank once: in-sample and
out-of-sample windows read slices of the full-window series, rebased
to 100 on their first day.

A static tracking portfolio (:func:`static_portfolio`) solves

    min ||C w - d||^2   s.t.   sum(w) = 1

on the in-sample window and is scored on the out-of-sample one.  The
columns of C are the money-market account and the selected rolled
series and d is the spot, all rebased to 100 on the window's first day
(price mode) or taken as their daily simple returns (return mode).
The constraint is eliminated by substitution (w0 = 1 - sum of the
rest), which is algebraically identical to solving the equality-
constrained normal equations but avoids an indefinite system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PricePanel, rank_columns
from .errors import DataError, DegenerateProblemError
from .model import TRADING_DAYS_PER_YEAR

__all__ = [
    "RolledSeries",
    "StaticWeights",
    "build_rolled_series",
    "solve_constrained_ls",
    "evaluate_rmse",
    "static_portfolio",
]


@dataclass(frozen=True)
class RolledSeries:
    """Self-financing dollar value of holding one maturity rank, and
    how many of its rolls came early (the held contract's quotes
    stopped before its settlement day)."""

    maturity_rank: int
    values: np.ndarray
    early_rolls: int = 0


@dataclass(frozen=True)
class StaticWeights:
    """Fitted portfolio weights (cash first) with in/out RMSE in percent."""

    weights: np.ndarray
    in_rmse: float
    out_rmse: float


# A contract whose quotes stop while it still has more than this long
# to run has a data gap, not an imminent settlement.
_SETTLEMENT_WINDOW = 3.0 / TRADING_DAYS_PER_YEAR


def build_rolled_series(panel: PricePanel, rank: int) -> RolledSeries:
    """Value of a constant position in maturity rank ``rank``, from 100
    on the panel's first day.

    The position holds one contract at a time.  At each cycle boundary
    (when the front settles and every contract moves up one rank) it
    sells the held contract at that day's close and buys the contract
    now occupying the rank, keeping the value unchanged.  When the held
    contract's quotes stop before its settlement day (common in
    ingested data), the roll happens on its last quoted day instead: an
    early roll, counted in ``early_rolls``.  Either way the new
    contract must be the next one by expiry after the held one, and it
    must be quoted on the roll day.

    The roll days come from whole-array comparisons of the rank's
    column A: with e(d) the early rolls, the position holds
    A[d - 1] + e(d - 1) into day d and rolls where A moves off it or
    early, e(d) = [A[d] == A[d - 1] + e(d - 1)] & the held contract has
    no quote on day d + 1.  Only chains of early rolls are walked in
    Python, and so is the units chain, one step per roll.

    Raises
    ------
    DataError
        If the panel has fewer than 2 days, the rank is missing on a
        day before the last, the rank skips a contract, the held
        contract's quotes stop far from its settlement, or a contract
        it needs has no quote.  Of several faults at rolls, the one on
        the earliest day is named.
    """
    ids, prices, ttms = panel.contracts, panel.prices, panel.ttms
    n = panel.n_days
    if n < 2:
        raise DataError(f"a rolled series needs at least 2 days, got {n}")
    # the rank on every day a roll can happen: all but the last
    col = rank_columns(ttms, rank)[:, 0]
    tomorrow = np.arange(1, n)
    unquoted_next = np.isnan(prices[tomorrow, col])
    # early rolls, first as if none happened the day before, then each
    # chain of them walked: after one, the rank has moved one further
    early = unquoted_next.copy()
    early[1:] &= col[1:] == col[:-1]
    for day in np.flatnonzero(early).tolist():
        if early[day]:
            while day + 2 < n and unquoted_next[day + 1] and col[day + 1] == col[day] + 1:
                day += 1
                early[day] = True
            if day + 2 < n:
                early[day + 1] = False
    after = col + early  # the contract held from day d into day d + 1
    held = np.concatenate([col[:1], after[:-1]])
    rolls = np.flatnonzero((col != held) | early)

    # the checks of every roll, then the first fault by day: a roll's
    # own checks, or the day after it, when the contract bought has no
    # quote (that day's roll, if any, is checked after it)
    out = held[rolls]
    into = out + 1
    last = ids.size - 1
    moved = col[rolls] != out
    skipped = moved & (col[rolls] != into)
    far = ~moved & (ttms[rolls, np.minimum(out, last)] > _SETTLEMENT_WINDOW)
    unbuyable = (into > last) | np.isnan(prices[rolls, np.minimum(into, last)])
    unmarked = np.isnan(prices[rolls + 1, np.minimum(into, last)])
    fault = np.flatnonzero(skipped | far | unbuyable)
    gap = np.flatnonzero(unmarked)
    if gap.size and (not fault.size or gap[0] < fault[0]):
        k = gap[0]
        raise DataError(f"held contract {ids[into[k]]} has no quote on day {rolls[k] + 1}")
    if fault.size:
        k = fault[0]
        day, gone = rolls[k], ids[out[k]]
        if skipped[k]:
            raise DataError(
                f"rank {rank} moved from {gone} to {ids[col[day]]} on day {day}, "
                "not to the next contract by expiry; quote gap in the panel"
            )
        if far[k]:
            raise DataError(
                f"held contract {gone} has no quote on day {day + 1} "
                f"but is far from settlement; quote gap in the panel"
            )
        raise DataError(
            f"no quote on day {day} for the contract after {gone}, "
            "which the position rolls into"
        )

    # value is carried across each roll: u' = (u * p_out) / p_in, with
    # the value on day 0 exactly 100
    units = [100.0 / prices[0, col[0]]]
    for day, p_out, p_in in zip(
        rolls.tolist(), prices[rolls, out].tolist(), prices[rolls, into].tolist()
    ):
        value = units[-1] * p_out if day else 100.0
        units.append(value / p_in)
    lengths = np.diff(rolls, prepend=0, append=n - 1)
    values = np.empty(n)
    values[0] = 100.0
    values[1:] = np.repeat(units, lengths) * prices[tomorrow, after]
    return RolledSeries(maturity_rank=rank, values=values, early_rolls=int(early.sum()))


def solve_constrained_ls(columns, target, labels) -> np.ndarray:
    """Weights w minimizing ||C w - d||^2 subject to sum(w) = 1, for the
    days x components matrix C = ``columns`` (money market first) and
    d = ``target``; ``labels`` names the columns.

    Substituting w0 = 1 - sum(rest) reduces the problem to an ordinary
    least squares in the remaining weights; the returned residual is
    orthogonal to every feasible direction.

    Raises
    ------
    ValueError
        If ``columns`` is not len(target) x len(labels).
    DegenerateProblemError
        If the reduced system is rank-deficient at the least-squares
        solve's own cutoff; the message names the offending columns.
    """
    c = np.asarray(columns, dtype=float)
    d = np.asarray(target, dtype=float)
    if c.shape != (d.size, len(labels)):
        raise ValueError(
            f"columns {c.shape} must be target length x labels {(d.size, len(labels))}"
        )
    a = c[:, 1:] - c[:, [0]]
    u, _, rank, _ = np.linalg.lstsq(a, d - c[:, 0], rcond=None)
    if rank < a.shape[1]:
        import scipy.linalg

        _, _, piv = scipy.linalg.qr(a, pivoting=True, mode="economic")
        names = [labels[i] for i in sorted(piv[rank:] + 1)]
        raise DegenerateProblemError(
            f"rank-deficient constrained system; dependent columns: {names}"
        )
    return np.concatenate([[1.0 - u.sum()], u])


def evaluate_rmse(portfolio: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared deviation sqrt(sum((target - portfolio)^2)/n).

    On series normalized to 100 this reads as the average percentage
    deviation of the portfolio from the target.
    """
    portfolio = np.asarray(portfolio, dtype=float)
    target = np.asarray(target, dtype=float)
    if portfolio.shape != target.shape:
        raise ValueError("series must have equal length")
    if portfolio.size == 0:
        raise ValueError("series must be nonempty")
    return float(np.sqrt(np.mean((target - portfolio) ** 2)))


def static_portfolio(panel: PricePanel, rolled, cut: int, mode: str) -> StaticWeights:
    """Fit tracking weights on the panel's days before ``cut`` and score
    them on the days from ``cut`` on.

    The components are the money-market account and the ``rolled``
    series, which are built on the whole ``panel``; the target is the
    spot.  Each window rebases every series to 100 on its own first
    day.  ``mode="price"`` fits those values; ``mode="return"`` fits
    their daily simple returns and reports both RMSEs in percent of
    daily return.

    Raises
    ------
    ValueError
        On an unknown mode, a series not as long as the panel, a cut
        that leaves a window under 2 days, or a window starting at zero.
    DegenerateProblemError
        If the in-sample system is rank-deficient.
    """
    if mode not in ("price", "return"):
        raise ValueError(f"mode must be 'price' or 'return', got {mode!r}")
    for series in rolled:
        if series.values.size != panel.n_days:
            raise ValueError(
                f"{series.maturity_rank}-m series has {series.values.size} days, "
                f"the panel {panel.n_days}"
            )
    if not 2 <= cut <= panel.n_days - 2:
        raise ValueError(f"cut {cut} leaves a window of the {panel.n_days} days under 2 days")
    columns = np.column_stack([panel.mm_value, *(series.values for series in rolled)])
    labels = ("cash", *(f"{series.maturity_rank}-m" for series in rolled))

    def window(x, days):
        x = x[days]
        if np.any(x[0] == 0):
            raise ValueError("first value is zero")
        x = x * (100.0 / x[0])
        return x if mode == "price" else x[1:] / x[:-1] - 1.0

    scale = 1.0 if mode == "price" else 100.0
    c_in, d_in = window(columns, slice(0, cut)), window(panel.spot, slice(0, cut))
    weights = solve_constrained_ls(c_in, d_in, labels)
    c_out, d_out = window(columns, slice(cut, None)), window(panel.spot, slice(cut, None))
    return StaticWeights(
        weights,
        in_rmse=scale * evaluate_rmse(c_in @ weights, d_in),
        out_rmse=scale * evaluate_rmse(c_out @ weights, d_out),
    )
