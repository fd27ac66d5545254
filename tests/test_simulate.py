import numpy as np
import pytest

from vixtrack import (
    DataError,
    HistoricalParams,
    LocalVol,
    PricePanel,
    RiskNeutralParams,
    SimulatedCurves,
    futures_price,
    hold_pair,
    holding_period_returns,
    load_panel,
    rank_columns,
    simulate_index_paths,
    track,
    vxx_front_weights,
)

import oracles
from conftest import FIT_HIST, FIT_RN, make_sim_panels, write_quote_files


class TestIndexPath:
    def test_zero_vol_at_long_run_level_is_constant(self):
        hist = HistoricalParams(10.86, 18.81, 0.0)
        [path] = simulate_index_paths(hist, LocalVol.square_root(0.0), 18.81, 50, 1, 1)
        assert np.all(path.values == 18.81)

    def test_zero_vol_pure_drift_decays_towards_theta(self):
        hist = HistoricalParams(5.0, 20.0, 0.0)
        [path] = simulate_index_paths(hist, LocalVol.square_root(0.0), 40.0, 504, 1, 1)
        assert np.all(np.diff(path.values) < 0)
        assert path.values[-1] > 20.0
        assert path.values[-1] - 20.0 < 20.0 * np.exp(-5.0 * 2.0) * 1.3

    def test_terminal_mean_matches_long_run_level(self):
        # Monte Carlo moment oracle: stationary mean is theta, stationary
        # sd is sigma*sqrt(theta/(2 mu))
        paths = simulate_index_paths(
            FIT_HIST, LocalVol.square_root(FIT_HIST.sigma), 18.81, 252 * 20, 1000, 99
        )
        terminal = np.array([p.values[-1] for p in paths])
        sd = FIT_HIST.sigma * np.sqrt(FIT_HIST.theta / (2 * FIT_HIST.mu))
        se = sd / np.sqrt(len(paths))
        assert abs(terminal.mean() - FIT_HIST.theta) < 3 * se

    def test_identical_seed_identical_path(self, fit_hist, fit_g):
        [a] = simulate_index_paths(fit_hist, fit_g, 18.81, 252, 1, 1234)
        [b] = simulate_index_paths(fit_hist, fit_g, 18.81, 252, 1, 1234)
        assert np.array_equal(a.values, b.values)

    def test_spawned_streams_are_order_independent(self, fit_hist, fit_g):
        # path k is the same alone or in a batch of any size
        batch = simulate_index_paths(fit_hist, fit_g, 18.81, 100, 4, 7)
        smaller = simulate_index_paths(fit_hist, fit_g, 18.81, 100, 3, 7)
        [solo] = simulate_index_paths(fit_hist, fit_g, 18.81, 100, 1, 7)
        assert np.array_equal(batch[2].values, smaller[2].values)
        assert np.array_equal(batch[0].values, solo.values)

    def test_clamp_counter_and_floor(self):
        # violent vol forces the Euler step below zero
        hist = HistoricalParams(1.0, 5.0, 60.0)
        [path] = simulate_index_paths(hist, LocalVol.square_root(60.0), 5.0, 252, 1, 5)
        assert path.n_clamped > 0
        assert np.all(path.values > 0)

    def test_argument_validation(self, fit_hist, fit_g):
        with pytest.raises(ValueError):
            simulate_index_paths(fit_hist, fit_g, 0.0, 10, 1, 1)
        with pytest.raises(ValueError):
            simulate_index_paths(fit_hist, fit_g, 20.0, 0, 1, 1)
        with pytest.raises(ValueError, match="s0 must be positive"):
            simulate_index_paths(fit_hist, fit_g, [20.0, -1.0, 20.0], 10, 3, 1)
        with pytest.raises(ValueError):  # one level per path
            simulate_index_paths(fit_hist, fit_g, [20.0, 20.0], 10, 3, 1)

    def test_volatility_is_evaluated_once_a_day_for_the_whole_batch(self, fit_hist, fit_g):
        shapes = []

        def counting_g(spot):
            shapes.append(np.shape(spot))
            return fit_g(spot)

        simulate_index_paths(fit_hist, counting_g, 18.81, 63, 5, 7)
        assert shapes == [(5,)] * 63


def _assert_batch_matches_loop(hist, g, s0, n_paths, seed, n_days=252):
    """Every path of a batch equals the scalar loop on the same stream
    bit for bit, clamps included.  Returns the number of clamped steps
    over the batch."""
    batch = simulate_index_paths(hist, g, s0, n_days, n_paths, seed)
    starts = np.broadcast_to(s0, (n_paths,))
    children = np.random.SeedSequence(seed).spawn(n_paths)
    assert len(batch) == n_paths
    for path, start, child in zip(batch, starts, children):
        values, n_clamped = oracles.euler_path_loop(hist, g, start, n_days, child)
        assert np.array_equal(path.values, values)
        assert path.n_clamped == n_clamped
    return sum(path.n_clamped for path in batch)


def _constant_vol(sigma):
    """g(S) = sigma: the engine steps any callable of the level, and a
    level-free volatility crosses zero where the square root cannot."""
    return lambda spot: np.full(np.shape(spot), float(sigma))


VOLS = {"constant": _constant_vol, "square-root": LocalVol.square_root}


@pytest.mark.parametrize("n_paths", (1, 5))
@pytest.mark.parametrize("start", ("theta/3", "theta", "3theta", "per-path"))
@pytest.mark.parametrize("vol", VOLS)
def test_batch_is_bit_identical_to_scalar_loop(vol, start, n_paths):
    theta = FIT_HIST.theta
    s0 = {
        "theta/3": theta / 3.0,
        "theta": theta,
        "3theta": 3.0 * theta,
        "per-path": np.linspace(theta / 3.0, 3.0 * theta, n_paths).tolist(),
    }[start]
    _assert_batch_matches_loop(FIT_HIST, VOLS[vol](FIT_HIST.sigma), s0, n_paths, 17)


@pytest.mark.parametrize("n_paths", (1, 5))
@pytest.mark.parametrize("vol", VOLS)
def test_clamped_batch_is_bit_identical_to_scalar_loop(vol, n_paths):
    # the violent volatility of test_clamp_counter_and_floor, over five
    # years: in one year the lone constant-volatility path never clamps
    hist = HistoricalParams(1.0, 5.0, 60.0)
    assert _assert_batch_matches_loop(hist, VOLS[vol](60.0), 5.0, n_paths, 5, n_days=1260) > 0


class TestFuturesPanel:
    def test_constant_path_at_theta_tilde_prices_flat(self):
        hist = HistoricalParams(1.0, 26.03, 0.0)
        [path] = simulate_index_paths(hist, LocalVol.square_root(0.0), 26.03, 63, 1, 1)
        _, today, tomorrow = SimulatedCurves(path.values, FIT_RN, 0.0).held_pair(1, 2)
        assert np.allclose(today, 26.03) and np.allclose(tomorrow, 26.03)

    def test_maturity_convergence_and_pointwise_oracle(self, fit_hist, fit_g, fit_rn):
        [path] = simulate_index_paths(fit_hist, fit_g, 18.81, 63, 1, 3)
        ttm, today, tomorrow = SimulatedCurves(path.values, fit_rn, 0.0).held_pair(1, 3)
        # rank r on day j is the contract maturing on day 21 (j // 21 + r)
        days = np.arange(63)[:, None]
        maturity = 21 * (days // 21 + np.array([1, 3]))
        assert np.array_equal(ttm, (maturity - days) / 252.0)
        # the front contract held into its maturity day settles at the spot
        assert tomorrow[20, 0] == pytest.approx(path.values[21], rel=1e-14)
        assert tomorrow[41, 0] == pytest.approx(path.values[42], rel=1e-14)
        # re-evaluate every held price through the scalar pricing routine
        for (j, k), m in np.ndenumerate(maturity):
            assert today[j, k] == pytest.approx(
                futures_price(path.values[j], (m - j) / 252.0, fit_rn), rel=1e-14
            )
            assert tomorrow[j, k] == pytest.approx(
                futures_price(path.values[j + 1], (m - j - 1) / 252.0, fit_rn), rel=1e-14
            )

    def test_rank_below_one_rejected(self, fit_rn):
        curves = SimulatedCurves(np.full(43, 20.0), fit_rn, 0.0)
        with pytest.raises(DataError, match="rank 0 not available: ranks are 1-based"):
            curves.held_pair(0, 1)

    def test_far_ranks_equal_the_full_panel(self, fit_hist, fit_g, fit_rn):
        # rank 7 on the last held day (41) is the contract maturing on
        # day 168, the 8th of the full panel's 9
        values = np.stack([p.values for p in simulate_index_paths(
            fit_hist, fit_g, [fit_hist.theta, 40.0], 42, 2, 5
        )])
        ttm, today, tomorrow = SimulatedCurves(values, fit_rn, 0.02).held_pair(3, 7)
        for k, row in enumerate(values):
            panel = oracles.futures_panel_from_path(row, 9, fit_rn, 0.02)
            for got, want in zip((ttm, today[k], tomorrow[k]), panel.held_pair(3, 7)):
                assert np.array_equal(got, want)


class TestHoldPair:
    # one day of a money market at r = 0.03
    MM = [1.0, np.exp(0.03 / 252)]

    @staticmethod
    def batch(n_paths=4, n_days=30, seed=5):
        """Random (paths, days) first weights, (paths, days, 2) prices,
        and an account."""
        rng = np.random.default_rng(seed)
        shape = (n_paths, n_days, 2)
        today = rng.uniform(10.0, 30.0, shape)
        tomorrow = today * np.exp(0.05 * rng.standard_normal(shape))
        mm = np.exp(0.03 * np.arange(n_days + 1) / 252)
        return rng.normal(size=shape[:-1]), today, tomorrow, mm

    def test_flat_prices_contribute_nothing(self):
        got = hold_pair([0.3], [[20.0, 25.0]], [[20.0, 25.0]], self.MM)
        assert got[1] == pytest.approx(100.0 * np.exp(0.03 / 252))

    def test_hand_ledger(self):
        # 2x long at 20 gains 10 units * +1; 1x short at 25 gains 4 units * +1
        got = hold_pair([2.0], [[20.0, 25.0]], [[21.0, 24.0]], [1.0, 1.0])
        assert got[1] == pytest.approx(114.0)

    def test_leading_axis_rows_match_one_path_calls(self):
        w1, today, tomorrow, mm = self.batch()
        got = hold_pair(w1, today, tomorrow, mm)
        assert got.shape == (4, 31)
        for k in range(4):
            assert np.array_equal(got[k], hold_pair(w1[k], today[k], tomorrow[k], mm))

    def test_zero_price_rejected(self):
        with pytest.raises(ZeroDivisionError):
            hold_pair([1.0], [[0.0, 20.0]], [[1.0, 20.0]], [1.0, 1.0])
        w1, today, tomorrow, mm = self.batch()
        today[2, 17, 1] = 0.0  # one price of one path
        with pytest.raises(ZeroDivisionError):
            hold_pair(w1, today, tomorrow, mm)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hold_pair([1.0, 0.0], [[20.0, 25.0]], [[21.0, 24.0]], [1.0, 1.0])
        with pytest.raises(ValueError):
            hold_pair([1.0], [20.0, 25.0], [21.0, 24.0], [1.0, 1.0])  # not days x 2
        with pytest.raises(ValueError):
            hold_pair([1.0], [[20.0, 25.0]], [[21.0, 24.0, 1.0]], [1.0, 1.0])
        with pytest.raises(ValueError, match="one money-market value per day"):
            hold_pair([1.0], [[20.0, 25.0]], [[21.0, 24.0]], [1.0, 1.0, 1.0])
        w1, today, tomorrow, mm = self.batch()
        with pytest.raises(ValueError, match="one money-market value per day"):
            hold_pair(w1, today, tomorrow, mm[:-1])


def expiry_panel(expiries, n_days):
    """Flat-priced panel of contracts expiring on the given days."""
    days = np.arange(n_days)
    ttms = (np.asarray(expiries)[None, :] - days[:, None]) / 252.0
    ttms[ttms < 0] = np.nan
    return PricePanel(
        dates=days,
        spot=np.full(n_days, 20.0),
        contracts=np.arange(len(expiries)),
        prices=np.where(np.isnan(ttms), np.nan, 20.0),
        ttms=ttms,
        mm_value=np.ones(n_days),
    )


class TestVxxWeights:
    @pytest.mark.parametrize("spacing", (14, 21))
    def test_front_weight_falls_linearly_over_each_cycle(self, spacing):
        panel = expiry_panel(spacing * np.arange(1, 5), n_days=3 * spacing + 1)
        w1 = vxx_front_weights(panel.held_pair(1, 2)[0])
        days = np.arange(panel.n_days - 1)
        # 1 on a cycle's first day, 0.5 halfway through a 14-day cycle
        assert np.array_equal(w1, 1.0 - (days % spacing) / spacing)
        assert np.all((0.0 < w1) & (w1 <= 1.0))

    def test_outside_cycle_rejected(self):
        # from day 5 the front (expiring on day 30) is 25 days out, but
        # its cycle up to the second's expiry (day 35) is 5 days long
        with pytest.raises(ValueError, match=r"\[0, 5\], got -20 on day 5"):
            vxx_front_weights(expiry_panel([5, 30, 35], n_days=10).held_pair(1, 2)[0])
        # a front expiring more than a cycle ahead rejects day 0
        with pytest.raises(ValueError, match="got -1 on day 0"):
            vxx_front_weights(expiry_panel([11, 21], n_days=3).held_pair(1, 2)[0])


class TestRankColumns:
    def test_roll_replaces_front_contract(self):
        # across the cycle boundary the front ranks shift by one contract
        panel, _, _ = make_sim_panels(cycles=2, seed=2)
        cols = rank_columns(panel.ttms, 1, 2)
        assert cols.shape == (panel.n_days - 1, 2)
        assert cols[20].tolist() == [0, 1]
        assert cols[21].tolist() == [1, 2]

    def test_rank_beyond_tradable_names_the_day(self):
        panel, _, _ = make_sim_panels(cycles=3, seed=2)
        with pytest.raises(DataError, match="rank 3 not available on day 42"):
            rank_columns(panel.ttms, 2, 3)
        with pytest.raises(ValueError):
            rank_columns(panel.ttms, 0, 1)

    def test_a_day_short_at_its_last_column_does_not_read_the_next_day(self):
        # day 0 has live contracts only in its last two columns, and the
        # next day's first column is live
        ttms = np.array([[np.nan, 1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        with pytest.raises(DataError, match="rank 3 not available on day 0"):
            rank_columns(ttms, 3)
        assert rank_columns(ttms, 2, 1).tolist() == [[2, 1], [1, 0]]


class TestStrategies:
    def test_flat_prices_flat_wealth_at_zero_rate(self, fit_rn):
        # a zero-volatility spot at theta_tilde prices every contract flat
        flat = HistoricalParams(1.0, fit_rn.theta_tilde, 0.0)
        panel, _, _ = make_sim_panels(cycles=2, seed=4, hist=flat, r=0.0)
        _, today, tomorrow = panel.held_pair(1, 2)
        w1 = np.random.default_rng(4).normal(size=panel.n_days - 1)
        assert np.all(hold_pair(w1, today, tomorrow, panel.mm_value) == 100.0)

    def test_vxx_loses_in_contango_with_static_spot(self):
        # constant spot below the long-run pricing level: every contract
        # rolls down towards the spot, so a long-only roll bleeds daily
        hist = HistoricalParams(1.0, 13.0, 0.0)
        [path] = simulate_index_paths(hist, LocalVol.square_root(0.0), 13.0, 42, 1, 1)
        curves = SimulatedCurves(path.values, RiskNeutralParams(1.39, 26.03), 0.0)
        _, _, wealth = track(curves, (1, 2), 1.0, hist, curves.rn)
        assert np.all(np.diff(wealth[1]) < 0)

    def test_dynamic_tracks_index_over_three_cycles(self, fit_hist, fit_rn):
        panel, _, path = make_sim_panels(cycles=3, seed=11)
        _, _, wealth = track(panel, (1, 2), 1.0, fit_hist, fit_rn)
        index_returns = path.values[1:] / path.values[:-1] - 1.0
        corr = np.corrcoef(holding_period_returns(wealth[0], 1), index_returns)[0, 1]
        assert corr > 0.99

    def test_wrong_length_weights_abort(self):
        panel, _, _ = make_sim_panels(cycles=1, seed=2)
        _, today, tomorrow = panel.held_pair(1, 2)
        with pytest.raises(ValueError):
            hold_pair(np.zeros(panel.n_days), today, tomorrow, panel.mm_value)

    def test_vxx_weights_valid_and_dynamic_pair_sums_to_one(self, fit_hist, fit_rn):
        panel, _, _ = make_sim_panels(cycles=3, seed=8)
        w_dyn, w, _ = track(panel, (1, 2), 1.0, fit_hist, fit_rn)
        assert np.all((w >= 0) & (w <= 1))
        assert np.all(w + (1.0 - w) == 1.0)
        assert np.allclose(w_dyn + (1.0 - w_dyn), 1.0, rtol=0.0, atol=1e-15)


SEEDS = (3, 8, 11)
S0_MULTS = (1.0 / 3.0, 1.0, 3.0)


def _relative_gap(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mult", S0_MULTS)
def test_vxx_matches_per_day_loop(seed, mult):
    panel, _, _ = make_sim_panels(
        cycles=6, seed=seed, s0=mult * FIT_HIST.theta, extra_contracts=2
    )
    _, w, got = track(panel, (1, 2), 1.0, FIT_HIST, FIT_RN)
    wealth, held = oracles.strategy_loop(panel, oracles.vxx_rule)
    assert np.array_equal(np.column_stack([w, 1.0 - w]), [list(h.values()) for h in held])
    assert _relative_gap(got[1], wealth) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mult", S0_MULTS)
@pytest.mark.parametrize("beta", (1.0, 1.5))
@pytest.mark.parametrize("ranks", ((1, 2), (2, 3)))
def test_dynamic_matches_per_day_loop(seed, mult, beta, ranks, fit_hist, fit_rn):
    panel, g, _ = make_sim_panels(
        cycles=6, seed=seed, s0=mult * fit_hist.theta, extra_contracts=2
    )
    w, _, got = track(panel, ranks, beta, fit_hist, fit_rn)
    rule = oracles.dynamic_rule(ranks, beta, fit_hist, fit_rn, g)
    wealth, held = oracles.strategy_loop(panel, rule)
    weights = np.column_stack([w, 1.0 - w])
    assert _relative_gap(weights, np.array([list(h.values()) for h in held])) <= 1e-13
    assert _relative_gap(got[0], wealth) <= 1e-12


@pytest.mark.parametrize("beta", (1.0, 0.7))
@pytest.mark.parametrize("r", (0.0, 0.03))
@pytest.mark.parametrize("ranks", ((1, 2), (2, 3), (2, 1)))
def test_batch_equals_the_per_scenario_loop(ranks, r, beta, fit_hist, fit_g, fit_rn):
    """All paths through the trackers at once, pricing only the held
    pair, give exactly the weights, prices and wealth of one full panel
    per path."""
    cycles, mults = 6, (1.0, 1.0 / 3.0, 3.0, 0.5)
    n_contracts = cycles + max(*ranks, 2) - 1
    paths = simulate_index_paths(
        fit_hist, fit_g, [m * fit_hist.theta for m in mults], 21 * cycles, len(mults), 7
    )
    values = np.stack([path.values for path in paths])
    curves = SimulatedCurves(values, fit_rn, r)
    w_dyn, w_vxx, wealth = track(curves, ranks, beta, fit_hist, fit_rn)
    want_dyn, want_vxx, want_wealth = oracles.simulate_loop(
        values, n_contracts, ranks, beta, r, fit_hist, fit_rn
    )
    assert w_dyn.shape == want_dyn.shape == (len(mults), 21 * cycles)
    assert np.array_equal(w_dyn, want_dyn)
    assert all(np.array_equal(w_vxx, want) for want in want_vxx)
    assert wealth.shape == want_wealth.shape == (len(mults), 2, 21 * cycles + 1)
    assert np.array_equal(wealth, want_wealth)
    ttm, today, tomorrow = curves.held_pair(*ranks)
    for k, row in enumerate(values):
        panel = oracles.futures_panel_from_path(row, n_contracts, fit_rn, r)
        assert np.array_equal(curves.mm_value, panel.mm_value)
        for got, want in zip((ttm, today[k], tomorrow[k]), panel.held_pair(*ranks)):
            assert np.array_equal(got, want)


class TestLoadedQuotes:
    """The trackers on quotes loaded from files, whose money market
    compounds the rates file ACT/360 over calendar gaps."""

    def test_zero_rate_matches_the_simulated_panel_of_the_same_path(
        self, tmp_path, fit_hist, fit_rn, fit_g
    ):
        n_days = 120
        write_quote_files(tmp_path, n_days=n_days, seed=3, rate=0.0)
        loaded = load_panel(tmp_path, n_ranks=8)
        # the path the quote files were priced from
        values, _ = oracles.euler_path_loop(fit_hist, fit_g, fit_hist.theta, n_days - 1, 3)
        simulated = SimulatedCurves(values, fit_rn, 0.0)
        assert np.array_equal(loaded.spot, simulated.spot)
        assert np.array_equal(loaded.mm_value, simulated.mm_value)
        for ranks in ((1, 2), (2, 3)):
            for got, want in zip(loaded.held_pair(*ranks), simulated.held_pair(*ranks)):
                assert np.array_equal(got, want)
            for got, want in zip(
                track(loaded, ranks, 1.0, fit_hist, fit_rn),
                track(simulated, ranks, 1.0, fit_hist, fit_rn),
            ):
                assert np.array_equal(got, want)

    def test_cash_leg_follows_the_loaded_money_market(self, tmp_path, fit_hist, fit_rn, fit_g):
        # a zero-volatility spot at theta_tilde prices every contract flat
        flat = HistoricalParams(1.0, fit_rn.theta_tilde, 0.0)
        write_quote_files(tmp_path, n_days=60, seed=1, hist=flat, rate=0.05)
        panel = load_panel(tmp_path, n_ranks=8)
        assert np.all(panel.prices[~np.isnan(panel.prices)] == fit_rn.theta_tilde)
        # weekends make the daily cash return uneven
        assert np.ptp(np.diff(np.log(panel.mm_value))) > 0
        w_dyn, _, wealth = track(panel, (1, 2), 1.0, fit_hist, fit_rn)
        for row in wealth:
            assert _relative_gap(row, 100.0 * panel.mm_value / panel.mm_value[0]) <= 1e-14
        # the tracker's drift reads the same account, day by day
        rule = oracles.dynamic_rule((1, 2), 1.0, fit_hist, fit_rn, fit_g)
        _, held = oracles.strategy_loop(panel, rule)
        assert _relative_gap(w_dyn, np.array([list(h.values())[0] for h in held])) <= 1e-13

    def test_held_pair_follows_an_early_roll(self, tmp_path, fit_hist, fit_rn):
        # F01 has no close on its settlement day (21): rank 1 rolls into
        # F02 on day 20, while rank 2 still holds F02 that day
        write_quote_files(tmp_path, n_days=120, seed=3, drop_futures_on=(21,), drop_rank=0)
        panel = load_panel(tmp_path)
        cols, early_rolls = panel.held_columns(1)
        assert early_rolls == 1 and panel.contracts[cols[20]] == "F02"
        ttm, today, tomorrow = panel.held_pair(1, 3)
        assert np.isfinite(today).all() and np.isfinite(tomorrow).all()
        days = np.arange(panel.n_days - 1)
        assert np.array_equal(ttm[:, 0], panel.ttms[days, cols])
        assert np.array_equal(today[:, 0], panel.prices[days, cols])
        assert np.array_equal(tomorrow[:, 0], panel.prices[days + 1, cols])
        message = "^ranks 1 and 2 both hold F02 on day 20$"
        with pytest.raises(DataError, match=message):
            panel.held_pair(1, 2)
        # through the VXX-style roll's (1, 2) pair
        with pytest.raises(DataError, match=message):
            track(panel, (1, 3), 1.0, fit_hist, fit_rn)
