import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vixtrack import (
    DataError,
    DegenerateProblemError,
    HistoricalParams,
    RolledSeries,
    SimulatedCurves,
    build_rolled_series,
    evaluate_rmse,
    load_panel,
    rank_columns,
    solve_constrained_ls,
    static_portfolio,
)

from conftest import grid_panel, make_sim_panels, rolled, write_quote_files
import oracles


class TestRolledSeries:
    def test_constant_prices_give_flat_value(self):
        panel = grid_panel(lambda j, k: 30.0, n_days=50)
        rolled = build_rolled_series(panel, rank=1)
        assert np.allclose(rolled.values, 100.0)

    def test_roll_into_pricier_contract_keeps_value(self):
        # prices static per contract; new front 10% more expensive
        panel = grid_panel(lambda j, k: 20.0 * 1.1**k, n_days=40)
        rolled = build_rolled_series(panel, rank=1)
        assert np.allclose(rolled.values, 100.0)

    def test_contango_bleeds_value(self, fit_rn):
        # constant spot far below the long-run pricing level
        hist = HistoricalParams(1.0, fit_rn.theta_tilde / 2, 0.0)
        panel, _, _ = make_sim_panels(
            cycles=3, seed=1, s0=hist.theta, hist=hist, r=0.0, sigma=0.0
        )
        rolled = build_rolled_series(panel, rank=1)
        assert np.all(np.diff(rolled.values) < 0)
        # independent ledger: track units and marks by hand
        values = [100.0]
        held = oracles.rank_column(panel, 0, 1)
        units = 100.0 / oracles.quote(panel, 0, held)
        for j in range(1, panel.n_days):
            values.append(units * oracles.quote(panel, j, held))
            if j < panel.n_days - 1 and oracles.rank_column(panel, j, 1) != held:
                held = oracles.rank_column(panel, j, 1)
                units = values[-1] / oracles.quote(panel, j, held)
        assert np.allclose(rolled.values, values)

    def test_missing_roll_price_is_a_data_gap(self):
        def price_fn(j, k):
            return 25.0

        panel = grid_panel(price_fn, n_days=30)
        # remove the new front's quote on the roll day (day 21)
        drop_quote(panel, 21, "K02")
        with pytest.raises(DataError):
            build_rolled_series(panel, rank=1)

    def test_rank_must_exist_every_day(self):
        panel = grid_panel(lambda j, k: 25.0, n_days=30, n_contracts=2)
        with pytest.raises(DataError, match="rank 5 not available on day 0"):
            build_rolled_series(panel, rank=5)
        with pytest.raises(DataError):
            build_rolled_series(panel, rank=0)

    def test_one_day_panel_is_a_data_error(self):
        panel = grid_panel(lambda j, k: 25.0, n_days=1)
        with pytest.raises(DataError, match="at least 2 days"):
            build_rolled_series(panel, rank=1)

    def test_a_batch_of_paths_is_a_data_error(self, fit_rn):
        market = SimulatedCurves(np.full((2, 127), 20.0), fit_rn, 0.01)
        message = "a rolled series takes one path, got a spot of shape (2, 127)"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            build_rolled_series(market, rank=1)


def available_ranks(panel):
    """Ranks present on every day that can roll (all but the last)."""
    days = slice(0, max(panel.n_days - 1, 1))
    return range(1, int((panel.ttms[days] > 0).sum(axis=1).min()) + 1)


def drop_quote(panel, day, contract):
    column = np.flatnonzero(panel.contracts == contract)[0]
    panel.prices[day, column] = np.nan
    panel.ttms[day, column] = np.nan


def rows(panel, start, stop):
    """The panel's days [start, stop)."""
    fields = ("dates", "spot", "prices", "ttms", "mm_value")
    return dataclasses.replace(panel, **{f: getattr(panel, f)[start:stop] for f in fields})


def noisy_grid_panel(seed, n_days, drop_settling=False):
    """Grid panel with independent prices per day and contract;
    optionally without any contract's quote on its settlement day, so
    the front rank rolls a day early."""
    noise = np.random.default_rng(seed).uniform(0.8, 1.2, size=(n_days, 30))
    panel = grid_panel(lambda j, k: (20.0 + k) * noise[j, k], n_days=n_days)
    if drop_settling:
        for day in range(21, n_days, 21):
            # the contract settling that day is the first one quoted
            drop_quote(panel, day, panel.contracts[day // 21 - 1])
    return panel


# The message of each case of test_data_gaps_raise.
GAP_MESSAGES = {
    "new front unquoted on the roll day": (
        "rank 1 moved from K01 to K03 on day 21, not to the next contract by expiry; "
        "quote gap in the panel"
    ),
    "nearer contract unquoted on the roll day": (
        "rank 3 moved from K03 to K05 on day 21, not to the next contract by expiry; "
        "quote gap in the panel"
    ),
    "new contract unquoted from the day after the roll": (
        "held contract K02 has no quote on day 22"
    ),
    "rank missing": "rank 5 not available on day 0",
    "quotes stop far from settlement": (
        "held contract K01 has no quote on day 10 but is far from settlement; "
        "quote gap in the panel"
    ),
    "early-roll target unquoted": (
        "no quote on day 20 for the contract after K01, which the position rolls into"
    ),
}


class TestRolledSeriesOracle:
    """The vectorized build against the per-day loop of oracles.py."""

    def assert_matches_loop(self, panel):
        ranks = available_ranks(panel)
        assert len(ranks) >= 2
        for rank in ranks:
            want = oracles.rolled_series_loop(panel, rank)
            got = build_rolled_series(panel, rank).values
            assert np.array_equal(got, want), f"rank {rank}"

    def test_simulated_panels(self):
        for seed in (1, 2):
            panel, _, _ = make_sim_panels(cycles=4, seed=seed, extra_contracts=5)
            self.assert_matches_loop(panel)

    def test_grid_panels(self):
        self.assert_matches_loop(noisy_grid_panel(4, n_days=150))

    def test_grid_panel_rolling_early(self):
        panel = noisy_grid_panel(5, n_days=90, drop_settling=True)
        self.assert_matches_loop(panel)
        on_time = build_rolled_series(noisy_grid_panel(5, n_days=90), 1)
        early = build_rolled_series(panel, 1)
        assert np.array_equal(early.values[:21], on_time.values[:21])
        assert early.values[21] != on_time.values[21]
        # rank 1 rolls early into each of the 4 settlements, rank 2 never
        assert (on_time.early_rolls, early.early_rolls) == (0, 4)
        assert build_rolled_series(panel, 2).early_rolls == 0

    def test_loaded_panel_every_kept_rank(self, tmp_path):
        write_quote_files(tmp_path, n_days=200, seed=3)
        panel = load_panel(tmp_path, n_ranks=7)
        assert list(available_ranks(panel)) == list(range(1, 8))
        self.assert_matches_loop(panel)

    def test_last_kept_rank_rolls_as_in_a_wider_panel(self, tmp_path):
        write_quote_files(tmp_path, n_days=200, seed=3)
        narrow = build_rolled_series(load_panel(tmp_path, n_ranks=7), 7)
        wide = build_rolled_series(load_panel(tmp_path, n_ranks=8), 7)
        assert np.array_equal(narrow.values, wide.values)

    @pytest.mark.parametrize(
        "build",
        [build_rolled_series, oracles.rolled_series_rolls, oracles.rolled_series_loop],
    )
    @pytest.mark.parametrize(
        "case, rank",
        [
            ("new front unquoted on the roll day", 1),
            ("nearer contract unquoted on the roll day", 3),
            ("new contract unquoted from the day after the roll", 1),
            ("rank missing", 5),
            ("quotes stop far from settlement", 1),
            ("early-roll target unquoted", 1),
        ],
    )
    def test_data_gaps_raise(self, build, case, rank):
        # the per-day loop words its messages its own way
        message = f"^{re.escape(GAP_MESSAGES[case])}$"
        match = None if build is oracles.rolled_series_loop else message
        n_contracts = 2 if case == "rank missing" else None
        panel = grid_panel(lambda j, k: 25.0, n_days=30, n_contracts=n_contracts)
        if case in (
            "new front unquoted on the roll day",
            "nearer contract unquoted on the roll day",
        ):
            drop_quote(panel, 21, "K02")
        elif case == "new contract unquoted from the day after the roll":
            for day in range(22, 30):
                drop_quote(panel, day, "K02")
        elif case == "quotes stop far from settlement":
            for day in range(10, 22):
                drop_quote(panel, day, "K01")
        elif case == "early-roll target unquoted":
            drop_quote(panel, 21, "K01")
            drop_quote(panel, 20, "K02")
        with pytest.raises(DataError, match=match):
            build(panel, rank)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rank=st.integers(1, 3),
    start=st.integers(0, 100),
    length=st.integers(2, 60),
    drop_settling=st.booleans(),
)
@example(seed=0, rank=1, start=21, length=30, drop_settling=False)  # opens on a roll day
@example(seed=0, rank=2, start=21, length=22, drop_settling=False)  # opens and closes on one
@example(seed=0, rank=1, start=20, length=30, drop_settling=True)  # opens on an early roll
@example(seed=0, rank=3, start=0, length=43, drop_settling=True)  # closes on a roll day
def test_slicing_then_rolling_equals_rolling_then_rebasing(
    seed, rank, start, length, drop_settling
):
    panel = noisy_grid_panel(seed, n_days=160, drop_settling=drop_settling)
    stop = start + length
    full = build_rolled_series(panel, rank).values
    window = build_rolled_series(rows(panel, start, stop), rank).values
    np.testing.assert_allclose(
        window, full[start:stop] * (100.0 / full[start]), rtol=1e-12, atol=0.0
    )


def test_early_roll_on_the_first_day_matches_the_oracles():
    # K01 has no quote on its settlement day (21), so from day 20 on the
    # position opens in K01 and rolls out of it at once, on its day 0
    panel = rows(noisy_grid_panel(0, n_days=100, drop_settling=True), 20, 100)
    series = build_rolled_series(panel, 1)
    assert series.early_rolls == 4
    assert panel.held(1)[0][0] == panel.contracts[1] == "K02"
    assert np.array_equal(series.values, oracles.rolled_series_rolls(panel, 1))
    assert np.array_equal(series.values, oracles.rolled_series_loop(panel, 1))


def chained_panel(settles):
    """Grid panel whose K01 has no quote on its settlement day (21),
    and whose K02, K03, ... settle on the days ``settles``, each losing
    its quote on a settlement day after 21.  So an early roll out of
    K01 on day 20 lands in a contract that settles on day 21 or 22.
    With K02 settling on day 21, rank 1 moves two columns on, to K03,
    on day 21; with each further contract settling the day after the
    one before, the position rolls early again on each of those days."""
    panel = noisy_grid_panel(6, n_days=60)
    drop_quote(panel, 21, "K01")
    for column, settle in enumerate(settles, 1):
        panel.ttms[:, column] = (settle - np.arange(60)) / 252.0
        panel.ttms[settle + 1 :, column] = panel.prices[settle + 1 :, column] = np.nan
        if settle > 21:
            drop_quote(panel, settle, panel.contracts[column])
    return panel


@pytest.mark.parametrize("settles, early_rolls", [((21,), 1), ((22,), 2), ((22, 23), 3)])
def test_chained_rolls_match_the_oracles(settles, early_rolls):
    panel = chained_panel(settles)
    series = build_rolled_series(panel, 1)
    assert series.early_rolls == early_rolls
    assert np.array_equal(series.values, oracles.rolled_series_rolls(panel, 1))
    assert np.array_equal(series.values, oracles.rolled_series_loop(panel, 1))


def outcome(build, *args):
    """What ``build(*args)`` returns, or the message of its DataError."""
    try:
        return build(*args)
    except DataError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    rank=st.integers(1, 3),
    drop_settling=st.booleans(),
    # (cycle, day offset from its settlement, contracts behind the settling one)
    drops=st.lists(
        st.tuples(
            st.integers(1, 4),
            st.one_of(st.integers(-3, 1), st.integers(-21, 2)),
            st.integers(0, 3),
        ),
        max_size=4,
    ),
)
@example(seed=0, rank=1, drop_settling=False, drops=[(1, -1, 0)])  # early roll on day 19
@example(seed=0, rank=1, drop_settling=True, drops=[(1, 0, 1)])  # early-roll target unquoted
@example(seed=0, rank=2, drop_settling=False, drops=[(2, 1, 0)])  # held unquoted after a roll
def test_rolls_match_the_oracles_under_random_gaps(seed, rank, drop_settling, drops):
    panel = noisy_grid_panel(seed, n_days=100, drop_settling=drop_settling)
    for cycle, offset, behind in drops:
        drop_quote(panel, 21 * cycle + offset, panel.contracts[cycle - 1 + behind])
    got = outcome(build_rolled_series, panel, rank)
    want = outcome(oracles.rolled_series_rolls, panel, rank)
    loop = outcome(oracles.rolled_series_loop, panel, rank)
    if isinstance(want, str):
        assert got == want
        assert isinstance(loop, str)
    else:
        assert np.array_equal(got.values, want)
        assert np.array_equal(got.values, loop)
    cols = outcome(rank_columns, panel.ttms, rank, 1, rank + 2)
    want_cols = outcome(oracles.rank_columns_cumsum, panel.ttms, rank, 1, rank + 2)
    if isinstance(want_cols, str):
        assert cols == want_cols
    else:
        assert np.array_equal(cols, want_cols)


class TestConstrainedLS:
    def test_exact_column_match(self):
        rng = np.random.default_rng(0)
        cols = rng.normal(10, 1, size=(40, 3))
        target = cols[:, 1].copy()
        w = solve_constrained_ls(cols, target, ("cash", "a", "b"))
        assert np.allclose(w, [0.0, 1.0, 0.0], atol=1e-10)
        assert evaluate_rmse(cols @ w, target) < 1e-10

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cols = rng.normal(0, 1, size=(50, 3)) + rng.uniform(5, 15, size=3)
            target = rng.normal(8, 2, size=50)
            w = solve_constrained_ls(cols, target, ("cash", "a", "b"))
            ref = oracles.kkt_weights(cols, target)
            assert np.allclose(w, ref, atol=1e-10)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=30)
        cols = np.column_stack([np.ones(30), base, base])
        with pytest.raises(DegenerateProblemError, match="dup"):
            solve_constrained_ls(cols, rng.normal(size=30), ("cash", "dup1", "dup2"))

    @pytest.mark.parametrize("n_days, labels", [(29, ("cash", "a", "b")), (30, ("cash", "a"))])
    def test_columns_not_target_by_labels_rejected(self, n_days, labels):
        cols = np.random.default_rng(3).normal(size=(30, 3))
        with pytest.raises(ValueError, match="must be target length x labels"):
            solve_constrained_ls(cols, np.ones(n_days), labels)

    def test_feasible_perturbations_never_improve(self):
        rng = np.random.default_rng(9)
        cols = rng.normal(0, 1, size=(60, 4)) + 10
        target = rng.normal(10, 1, size=60)
        w = solve_constrained_ls(cols, target, ("cash", "a", "b", "c"))
        sse = np.sum((cols @ w - target) ** 2)
        for _ in range(50):
            delta = rng.normal(size=4)
            delta -= delta.mean()  # keeps the sum-to-one constraint
            for eps in (1e-4, -1e-4):
                sse_pert = np.sum((cols @ (w + eps * delta) - target) ** 2)
                assert sse_pert >= sse - 1e-12

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        cols = rng.normal(0, 1, size=(45, 3)) + 12
        target = rng.normal(12, 1, size=45)
        w1 = solve_constrained_ls(cols, target, ("cash", "a", "b"))
        w2 = solve_constrained_ls(3.7 * cols, 3.7 * target, ("cash", "a", "b"))
        assert np.allclose(w1, w2, atol=1e-12)

    def test_grid_oracle_on_small_instance(self):
        rng = np.random.default_rng(17)
        cols = rng.normal(0, 1, size=(30, 3)) + 8
        target = rng.normal(8, 1, size=30)
        w = solve_constrained_ls(cols, target, ("cash", "a", "b"))
        step = 5e-3
        w1 = np.arange(-3, 3, step)
        w2 = np.arange(-3, 3, step)
        grid1, grid2 = np.meshgrid(w1, w2, indexing="ij")
        grid0 = 1.0 - grid1 - grid2
        stacked = np.stack([grid0, grid1, grid2], axis=-1)
        fitted = stacked @ cols.T
        sse = np.sum((fitted - target) ** 2, axis=-1)
        k = np.unravel_index(np.argmin(sse), sse.shape)
        assert abs(w[1] - w1[k[0]]) <= step
        assert abs(w[2] - w2[k[1]]) <= step


class TestTrackingPortfolios:
    def test_recovers_constructed_price_solution(self):
        panel, _, _ = make_sim_panels(cycles=4, seed=21)
        r1 = build_rolled_series(panel, 1).values
        r2 = build_rolled_series(panel, 2).values
        panel.spot = 0.31 * (0.6 * r1 + 0.4 * r2)  # scale is irrelevant
        res = static_portfolio(panel, rolled(panel, 1, 2), 63, "price")
        assert np.allclose(res.weights, [0.0, 0.6, 0.4], atol=1e-8)
        assert res.in_rmse < 1e-8

    def test_constant_target_is_all_cash(self):
        panel = grid_panel(
            lambda j, k: 20.0 + 2.0 * np.sin(0.3 * j + k), n_days=63, r=0.0,
            spot=np.full(63, 47.0),
        )
        res = static_portfolio(panel, rolled(panel, 1), 42, "price")
        assert res.weights[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(res.weights[1]) < 1e-10

    def test_recovers_constructed_return_solution(self):
        panel, _, _ = make_sim_panels(cycles=4, seed=33, r=0.02)
        r1 = build_rolled_series(panel, 1).values
        cash = panel.mm_value
        spot = np.empty(panel.n_days)
        spot[0] = 18.0
        for j in range(panel.n_days - 1):
            ret = 1.5 * (r1[j + 1] / r1[j] - 1.0) - 0.5 * (
                cash[j + 1] / cash[j] - 1.0
            )
            spot[j + 1] = spot[j] * (1.0 + ret)
        panel.spot = spot
        res = static_portfolio(panel, rolled(panel, 1), 63, "return")
        assert np.allclose(res.weights, [-0.5, 1.5], atol=1e-8)
        assert res.in_rmse < 1e-8

    def test_target_identical_to_one_column(self):
        panel, _, _ = make_sim_panels(cycles=4, seed=5)
        panel.spot = 2.0 * build_rolled_series(panel, 2).values
        res = static_portfolio(panel, rolled(panel, 1, 2), 63, "return")
        assert np.allclose(res.weights, [0.0, 0.0, 1.0], atol=1e-8)


class TestRmse:
    def test_identical_series(self):
        x = np.linspace(90, 110, 40)
        assert evaluate_rmse(x, x) == 0.0

    def test_constant_offset(self):
        assert evaluate_rmse(np.full(17, 90.0), np.full(17, 100.0)) == pytest.approx(10.0)

    @pytest.mark.parametrize(
        "n_portfolio, n_target, message", [(3, 4, "equal length"), (0, 0, "nonempty")]
    )
    def test_unequal_or_empty_series_rejected(self, n_portfolio, n_target, message):
        with pytest.raises(ValueError, match=message):
            evaluate_rmse(np.ones(n_portfolio), np.ones(n_target))


class TestStaticPortfolio:
    @pytest.mark.parametrize("mode", ["price", "return"])
    def test_each_window_rebased_to_100(self, mode):
        # the target is the 1-m series at one scale in-sample and at
        # another out-of-sample, so only a per-window rebase fits both
        panel, _, _ = make_sim_panels(cycles=4, seed=3)
        series = rolled(panel, 1, 2)
        panel.spot = series[0].values * np.where(np.arange(panel.n_days) < 42, 0.5, 3.0)
        res = static_portfolio(panel, series, 42, mode)
        assert np.allclose(res.weights, [0.0, 1.0, 0.0], atol=1e-8)
        assert res.in_rmse < 1e-8 and res.out_rmse < 1e-8

    def test_bad_mode_rejected(self):
        panel, _, _ = make_sim_panels(cycles=2, seed=3)
        with pytest.raises(ValueError, match="mode"):
            static_portfolio(panel, rolled(panel, 1), 21, "volume")

    def test_series_of_another_length_rejected(self):
        panel, _, _ = make_sim_panels(cycles=2, seed=3)
        short = RolledSeries(1, build_rolled_series(panel, 1).values[:-1])
        n = panel.n_days
        with pytest.raises(ValueError, match=f"1-m series has {n - 1} days, the panel {n}"):
            static_portfolio(panel, [short], 21, "price")

    def test_cut_must_leave_both_windows_nonempty(self):
        panel, _, _ = make_sim_panels(cycles=2, seed=3)
        for cut in (0, 1, panel.n_days - 1, panel.n_days):  # each window needs 2 days
            with pytest.raises(ValueError, match=f"cut {cut} leaves a window"):
                static_portfolio(panel, rolled(panel, 1), cut, "price")

    @pytest.mark.parametrize("day", [0, 21])
    def test_zero_anchor_rejected(self, day):
        panel, _, _ = make_sim_panels(cycles=2, seed=3)
        panel.spot[day] = 0.0
        with pytest.raises(ValueError, match="first value is zero"):
            static_portfolio(panel, rolled(panel, 1), 21, "price")
