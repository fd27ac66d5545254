"""Rolled futures value series and sum-to-one constrained least squares.

A "rolled series" is the dollar value of perpetually holding one
maturity rank: units stay constant between rolls, and at each roll the
full proceeds buy the contract that now occupies the rank, so the
position is self-financing throughout.  A roll must move into the next
contract by expiry after the held one; anything else is a quote gap.
The series is built from the panel's days x contracts price and ttm
matrices, with Python work only at roll events, and a run builds each
rank once: in-sample and out-of-sample windows read slices of the
full-window series, rebased to 100 on their first day.

The tracking portfolios solve

    min ||C w - d||^2   s.t.   sum(w) = 1

where the columns of C are the money-market account and the selected
rolled series (dollar values normalized to 100 at the window start, or
their daily simple returns) and d is the corresponding spot series.
The constraint is eliminated by substitution (w0 = 1 - sum of the
rest), which is algebraically identical to solving the equality-
constrained normal equations but avoids an indefinite system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import PricePanel, normalize_to_100, split_in_out
from .errors import DataError, DegenerateProblemError
from .model import TRADING_DAYS_PER_YEAR

__all__ = [
    "RolledSeries",
    "DesignMatrix",
    "StaticWeights",
    "build_rolled_series",
    "build_design_matrix",
    "solve_constrained_ls",
    "price_tracking_portfolio",
    "return_tracking_portfolio",
    "evaluate_rmse",
    "results_table",
]


@dataclass(frozen=True)
class RolledSeries:
    """Self-financing dollar value of holding one maturity rank."""

    maturity_rank: int
    values: np.ndarray


@dataclass(frozen=True)
class DesignMatrix:
    """Least-squares inputs: one column per portfolio component (money
    market first), a target vector, and column labels."""

    columns: np.ndarray
    target: np.ndarray
    labels: tuple

    def __post_init__(self):
        if self.columns.shape[0] != self.target.shape[0]:
            raise ValueError("columns and target must have equal length")
        if self.columns.shape[1] != len(self.labels):
            raise ValueError("one label per column required")


@dataclass(frozen=True)
class StaticWeights:
    """Fitted portfolio weights (cash first) with in/out RMSE in percent."""

    labels: tuple
    weights: np.ndarray
    in_rmse: float
    out_rmse: float | None = None

    @property
    def w0(self) -> float:
        return float(self.weights[0])


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
    ingested data), the roll happens on its last quoted day instead.
    Either way the new contract must be the next one by expiry after
    the held one, and it must be quoted on the roll day.

    Raises
    ------
    DataError
        If the panel has fewer than 2 days, the rank is missing on a
        day before the last, the rank skips a contract, the held
        contract's quotes stop far from its settlement, or a contract
        it needs has no quote.
    """
    ids, prices, ttms = panel.contracts, panel.prices, panel.ttms
    n = panel.n_days
    if n < 2:
        raise DataError(f"a rolled series needs at least 2 days, got {n}")
    # the rank on every day a roll can happen: all but the last
    rank_col = panel.rank_columns(rank)[:, 0]
    held = rank_col[0]
    quoted = ~np.isnan(prices)

    values = np.empty(n)
    values[0] = 100.0
    units = 100.0 / prices[0, held]
    opened = 0  # day the position in ``held`` was opened
    scan = 0  # first day that can roll it
    while True:
        # a roll happens on the first day the rank moves off the held
        # contract or the held contract has no quote the next day
        due = (rank_col[scan:] != held) | ~quoted[scan + 1 :, held]
        roll = scan + int(np.argmax(due)) if due.any() else None
        stop = n if roll is None else roll + 1
        marks = prices[opened + 1 : stop, held]
        if np.isnan(marks).any():
            day = opened + 1 + int(np.argmax(np.isnan(marks)))
            raise DataError(f"held contract {ids[held]} has no quote on day {day}")
        values[opened + 1 : stop] = units * marks
        if roll is None:
            return RolledSeries(maturity_rank=rank, values=values)
        target = held + 1  # the next contract by expiry
        if rank_col[roll] != held:
            if rank_col[roll] != target:
                raise DataError(
                    f"rank {rank} moved from {ids[held]} to {ids[rank_col[roll]]} "
                    f"on day {roll}, not to the next contract by expiry; "
                    "quote gap in the panel"
                )
        elif ttms[roll, held] > _SETTLEMENT_WINDOW:
            raise DataError(
                f"held contract {ids[held]} has no quote on day {roll + 1} "
                f"but is far from settlement; quote gap in the panel"
            )
        if target == ids.size or not quoted[roll, target]:
            raise DataError(
                f"no quote on day {roll} for the contract after {ids[held]}, "
                "which the position rolls into"
            )
        units = values[roll] / prices[roll, target]
        held = target
        opened = roll
        scan = roll + 1


def build_design_matrix(
    panel: PricePanel, rolled, mode: str = "price", days: slice = slice(None)
) -> DesignMatrix:
    """Assemble the money-market column plus one column per rolled
    series, over the panel days selected by ``days``.

    ``rolled`` holds series built on ``panel``.  ``mode="price"`` uses
    dollar values rebased to 100 on the window's first day;
    ``mode="return"`` uses their daily simple returns.
    """
    if mode not in ("price", "return"):
        raise ValueError(f"mode must be 'price' or 'return', got {mode!r}")
    cols = [normalize_to_100(panel.mm_value[days])]
    labels = ["cash"]
    for series in rolled:
        if series.values.size != panel.n_days:
            raise ValueError(
                f"{series.maturity_rank}-m series has {series.values.size} days, "
                f"the panel {panel.n_days}"
            )
        cols.append(normalize_to_100(series.values[days]))
        labels.append(f"{series.maturity_rank}-m")
    target = normalize_to_100(panel.spot[days])
    if mode == "return":
        cols = [c[1:] / c[:-1] - 1.0 for c in cols]
        target = target[1:] / target[:-1] - 1.0
    return DesignMatrix(
        columns=np.column_stack(cols), target=target, labels=tuple(labels)
    )


def solve_constrained_ls(dm: DesignMatrix) -> StaticWeights:
    """Minimize ||C w - d||^2 subject to sum(w) = 1.

    Substituting w0 = 1 - sum(rest) reduces the problem to an ordinary
    least squares in the remaining weights; the returned residual is
    orthogonal to every feasible direction.

    Raises
    ------
    DegenerateProblemError
        If the reduced system is rank-deficient; the message names the
        offending columns.
    """
    c = np.asarray(dm.columns, dtype=float)
    d = np.asarray(dm.target, dtype=float)
    n, k_plus_1 = c.shape
    if k_plus_1 == 1:
        w = np.array([1.0])
        return StaticWeights(dm.labels, w, in_rmse=evaluate_rmse(c @ w, d))
    a = c[:, 1:] - c[:, [0]]
    rank = np.linalg.matrix_rank(a)
    if rank < a.shape[1]:
        _, _, piv = scipy.linalg.qr(a, pivoting=True, mode="economic")
        bad = sorted(piv[rank:] + 1)
        names = [dm.labels[i] for i in bad]
        raise DegenerateProblemError(
            f"rank-deficient constrained system; dependent columns: {names}"
        )
    u, *_ = np.linalg.lstsq(a, d - c[:, 0], rcond=None)
    w = np.concatenate([[1.0 - u.sum()], u])
    return StaticWeights(dm.labels, w, in_rmse=evaluate_rmse(c @ w, d))


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


def price_tracking_portfolio(panel: PricePanel, rolled, boundary) -> StaticWeights:
    """Fit dollar-value tracking weights in-sample and evaluate both
    windows.

    ``rolled`` holds the rolled series of the portfolio's ranks, built
    on the whole ``panel``; each window reads a slice of them.  The
    in-sample window is everything before ``boundary``; the
    out-of-sample portfolio and target are re-based to 100 at the first
    out-of-sample day.
    """
    cut = split_in_out(panel, boundary)[0].n_days
    dm_in = build_design_matrix(panel, rolled, "price", slice(0, cut))
    fitted = solve_constrained_ls(dm_in)
    dm_out = build_design_matrix(panel, rolled, "price", slice(cut, None))
    out_rmse = evaluate_rmse(dm_out.columns @ fitted.weights, dm_out.target)
    return StaticWeights(fitted.labels, fitted.weights, fitted.in_rmse, out_rmse)


def return_tracking_portfolio(panel: PricePanel, rolled, boundary) -> StaticWeights:
    """Fit daily-return tracking weights in-sample and evaluate both
    windows.  ``rolled`` is as for :func:`price_tracking_portfolio`.
    RMSE values are reported in percent of daily return."""
    cut = split_in_out(panel, boundary)[0].n_days
    dm_in = build_design_matrix(panel, rolled, "return", slice(0, cut))
    fitted = solve_constrained_ls(dm_in)
    dm_out = build_design_matrix(panel, rolled, "return", slice(cut, None))
    out_rmse = 100.0 * evaluate_rmse(dm_out.columns @ fitted.weights, dm_out.target)
    return StaticWeights(
        fitted.labels, fitted.weights, 100.0 * fitted.in_rmse, out_rmse
    )


def results_table(results: dict) -> str:
    """Delimited table of fitted subsets: label, cash weight, futures
    weights, in-RMSE, out-RMSE.  ``results`` maps a subset label to a
    StaticWeights (or to an error string for failed subsets).  There
    are as many futures-weight columns as the largest fitted subset
    has futures, and at least 4."""
    fitted = [res for res in results.values() if not isinstance(res, str)]
    width = max([4] + [res.weights.size - 1 for res in fitted])
    header = ["futures", "w0"] + [f"w{i}" for i in range(1, width + 1)]
    header += ["in_rmse", "out_rmse"]
    lines = ["\t".join(header)]
    for label, res in results.items():
        if isinstance(res, str):
            lines.append("\t".join([label, "ERROR", res]))
            continue
        futures_w = list(res.weights[1:]) + [None] * (
            width - (res.weights.size - 1)
        )
        cells = [label, f"{res.w0:.3f}"]
        cells += ["-" if w is None else f"{w:.3f}" for w in futures_w]
        cells.append(f"{res.in_rmse:.3f}")
        cells.append("-" if res.out_rmse is None else f"{res.out_rmse:.3f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
