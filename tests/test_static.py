import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vixtrack import (
    DataError,
    DegenerateProblemError,
    DesignMatrix,
    HistoricalParams,
    build_design_matrix,
    build_rolled_series,
    evaluate_rmse,
    load_panel,
    normalize_to_100,
    price_tracking_portfolio,
    return_tracking_portfolio,
    solve_constrained_ls,
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
        panel, _, _, _ = make_sim_panels(
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
        panel = grid_panel(lambda j, k: 25.0, n_days=30).slice(0, 1)
        with pytest.raises(DataError, match="at least 2 days"):
            build_rolled_series(panel, rank=1)


def available_ranks(panel):
    """Ranks present on every day that can roll (all but the last)."""
    days = slice(0, max(panel.n_days - 1, 1))
    return range(1, int((panel.ttms[days] > 0).sum(axis=1).min()) + 1)


def drop_quote(panel, day, contract):
    column = np.flatnonzero(panel.contracts == contract)[0]
    panel.prices[day, column] = np.nan
    panel.ttms[day, column] = np.nan


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
            panel, _, _, _ = make_sim_panels(cycles=4, seed=seed, extra_contracts=5)
            self.assert_matches_loop(panel)

    def test_grid_panels(self):
        self.assert_matches_loop(noisy_grid_panel(4, n_days=150))

    def test_grid_panel_rolling_early(self):
        panel = noisy_grid_panel(5, n_days=90, drop_settling=True)
        self.assert_matches_loop(panel)
        on_time = build_rolled_series(noisy_grid_panel(5, n_days=90), 1).values
        early = build_rolled_series(panel, 1).values
        assert np.array_equal(early[:21], on_time[:21])
        assert early[21] != on_time[21]

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

    @pytest.mark.parametrize("build", [build_rolled_series, oracles.rolled_series_loop])
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
        with pytest.raises(DataError):
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
    window = build_rolled_series(panel.slice(start, stop), rank).values
    np.testing.assert_allclose(
        window, normalize_to_100(full[start:stop]), rtol=1e-12, atol=0.0
    )


class TestConstrainedLS:
    def test_exact_column_match(self):
        rng = np.random.default_rng(0)
        cols = rng.normal(10, 1, size=(40, 3))
        dm = DesignMatrix(cols, cols[:, 1].copy(), ("cash", "a", "b"))
        res = solve_constrained_ls(dm)
        assert np.allclose(res.weights, [0.0, 1.0, 0.0], atol=1e-10)
        assert res.in_rmse < 1e-10

    def test_matches_dense_kkt_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cols = rng.normal(0, 1, size=(50, 3)) + rng.uniform(5, 15, size=3)
            target = rng.normal(8, 2, size=50)
            dm = DesignMatrix(cols, target, ("cash", "a", "b"))
            res = solve_constrained_ls(dm)
            ref = oracles.kkt_weights(cols, target)
            assert np.allclose(res.weights, ref, atol=1e-10)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=30)
        cols = np.column_stack([np.ones(30), base, base])
        dm = DesignMatrix(cols, rng.normal(size=30), ("cash", "dup1", "dup2"))
        with pytest.raises(DegenerateProblemError, match="dup"):
            solve_constrained_ls(dm)

    def test_feasible_perturbations_never_improve(self):
        rng = np.random.default_rng(9)
        cols = rng.normal(0, 1, size=(60, 4)) + 10
        target = rng.normal(10, 1, size=60)
        dm = DesignMatrix(cols, target, ("cash", "a", "b", "c"))
        w = solve_constrained_ls(dm).weights
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
        w1 = solve_constrained_ls(DesignMatrix(cols, target, ("cash", "a", "b"))).weights
        w2 = solve_constrained_ls(
            DesignMatrix(3.7 * cols, 3.7 * target, ("cash", "a", "b"))
        ).weights
        assert np.allclose(w1, w2, atol=1e-12)

    def test_grid_oracle_on_small_instance(self):
        rng = np.random.default_rng(17)
        cols = rng.normal(0, 1, size=(30, 3)) + 8
        target = rng.normal(8, 1, size=30)
        dm = DesignMatrix(cols, target, ("cash", "a", "b"))
        w = solve_constrained_ls(dm).weights
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
        panel, _, _, _ = make_sim_panels(cycles=4, seed=21)
        r1 = build_rolled_series(panel, 1).values
        r2 = build_rolled_series(panel, 2).values
        panel.spot = 0.31 * (0.6 * r1 + 0.4 * r2)  # scale is irrelevant
        res = price_tracking_portfolio(panel, rolled(panel, 1, 2), boundary=63)
        assert np.allclose(res.weights, [0.0, 0.6, 0.4], atol=1e-8)
        assert res.in_rmse < 1e-8

    def test_constant_target_is_all_cash(self):
        panel = grid_panel(
            lambda j, k: 20.0 + 2.0 * np.sin(0.3 * j + k), n_days=63, r=0.0,
            spot=np.full(63, 47.0),
        )
        res = price_tracking_portfolio(panel, rolled(panel, 1), boundary=42)
        assert res.w0 == pytest.approx(1.0, abs=1e-10)
        assert abs(res.weights[1]) < 1e-10

    def test_recovers_constructed_return_solution(self):
        panel, _, _, _ = make_sim_panels(cycles=4, seed=33, r=0.02)
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
        res = return_tracking_portfolio(panel, rolled(panel, 1), boundary=63)
        assert np.allclose(res.weights, [-0.5, 1.5], atol=1e-8)
        assert res.in_rmse < 1e-8

    def test_target_identical_to_one_column(self):
        panel, _, _, _ = make_sim_panels(cycles=4, seed=5)
        panel.spot = 2.0 * build_rolled_series(panel, 2).values
        res = return_tracking_portfolio(panel, rolled(panel, 1, 2), boundary=63)
        assert np.allclose(res.weights, [0.0, 0.0, 1.0], atol=1e-8)


class TestRmse:
    def test_identical_series(self):
        x = np.linspace(90, 110, 40)
        assert evaluate_rmse(x, x) == 0.0

    def test_constant_offset(self):
        assert evaluate_rmse(np.full(17, 90.0), np.full(17, 100.0)) == pytest.approx(10.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_rmse(np.ones(3), np.ones(4))


class TestDesignMatrix:
    def test_price_mode_normalized_to_100(self):
        panel, _, _, _ = make_sim_panels(cycles=2, seed=3)
        dm = build_design_matrix(panel, rolled(panel, 1, 2), mode="price")
        assert np.allclose(dm.columns[0], 100.0)
        assert dm.target[0] == pytest.approx(100.0)
        assert dm.labels == ("cash", "1-m", "2-m")

    def test_bad_mode_rejected(self):
        panel, _, _, _ = make_sim_panels(cycles=2, seed=3)
        with pytest.raises(ValueError):
            build_design_matrix(panel, rolled(panel, 1), mode="volume")
