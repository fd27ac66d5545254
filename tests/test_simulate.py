import numpy as np
import pytest

from vixtrack import (
    DataError,
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
    TrackingConfig,
    dynamic_weights,
    evolve_wealth,
    futures_panel_from_path,
    futures_price,
    hold_pair,
    simulate_index_path,
    simulate_index_paths,
    vxx_front_weights,
    vxx_roll_weights,
)

import oracles
from conftest import FIT_HIST, FIT_RN, make_sim_panels


class TestIndexPath:
    def test_zero_vol_at_long_run_level_is_constant(self):
        hist = HistoricalParams(10.86, 18.81, 0.0)
        path = simulate_index_path(hist, LocalVol.square_root(0.0), 18.81, 50, 1)
        assert np.all(path.values == 18.81)

    def test_zero_vol_pure_drift_decays_towards_theta(self):
        hist = HistoricalParams(5.0, 20.0, 0.0)
        path = simulate_index_path(hist, LocalVol.constant(0.0), 40.0, 504, 1)
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
        a = simulate_index_path(fit_hist, fit_g, 18.81, 252, 1234)
        b = simulate_index_path(fit_hist, fit_g, 18.81, 252, 1234)
        assert np.array_equal(a.values, b.values)

    def test_spawned_streams_are_order_independent(self, fit_hist, fit_g):
        batch = simulate_index_paths(fit_hist, fit_g, 18.81, 100, 4, 7)
        children = np.random.SeedSequence(7).spawn(4)
        solo = simulate_index_path(fit_hist, fit_g, 18.81, 100, children[2])
        assert np.array_equal(batch[2].values, solo.values)

    def test_clamp_counter_and_floor(self):
        # violent vol forces the Euler step below zero
        hist = HistoricalParams(1.0, 5.0, 60.0)
        path = simulate_index_path(hist, LocalVol.square_root(60.0), 5.0, 252, 5)
        assert path.n_clamped > 0
        assert np.all(path.values > 0)

    def test_argument_validation(self, fit_hist, fit_g):
        with pytest.raises(ValueError):
            simulate_index_path(fit_hist, fit_g, 0.0, 10, 1)
        with pytest.raises(ValueError):
            simulate_index_path(fit_hist, fit_g, 20.0, 0, 1)


class TestFuturesPanel:
    def test_constant_path_at_theta_tilde_prices_flat(self):
        hist = HistoricalParams(1.0, 26.03, 0.0)
        path = simulate_index_path(hist, LocalVol.constant(0.0), 26.03, 63, 1)
        panel = futures_panel_from_path(path, 4, FIT_RN, MarketConfig(r=0.0))
        live = ~np.isnan(panel.prices)
        assert np.allclose(panel.prices[live], 26.03)

    def test_maturity_convergence_and_pointwise_oracle(self, fit_hist, fit_g, fit_rn):
        path = simulate_index_path(fit_hist, fit_g, 18.81, 63, 3)
        panel = futures_panel_from_path(path, 4, fit_rn, MarketConfig(r=0.0))
        maturity_days = (21, 42, 63, 84)  # contract k matures on day 21 k
        assert panel.contracts.size == len(maturity_days)
        for i, mday in enumerate(maturity_days):
            if mday < path.n_days:
                assert panel.prices[mday, i] == pytest.approx(path.values[mday])
        # re-evaluate every live entry through the scalar pricing routine
        for j in range(panel.n_days):
            live = [i for i, mday in enumerate(maturity_days) if mday >= j]
            for i in live:
                ttm = (maturity_days[i] - j) / 252.0
                assert panel.prices[j, i] == pytest.approx(
                    futures_price(path.values[j], ttm, fit_rn), rel=1e-14
                )

    def test_horizon_past_last_maturity_rejected(self, fit_hist, fit_g, fit_rn):
        path = simulate_index_path(fit_hist, fit_g, 18.81, 64, 3)
        with pytest.raises(ValueError, match="last maturity is day 63"):
            futures_panel_from_path(path, 3, fit_rn, MarketConfig(r=0.0))
        with pytest.raises(ValueError):
            futures_panel_from_path(path, 0, fit_rn, MarketConfig(r=0.0))


class TestEvolveWealth:
    def test_all_cash(self):
        mkt = MarketConfig(r=0.03)
        got = evolve_wealth([[0.0]], [[20.0]], [[21.0]], mkt)
        assert got[0] == 100.0
        assert got[1] == pytest.approx(100.0 * np.exp(0.03 / 252))

    def test_flat_prices_contribute_nothing(self):
        mkt = MarketConfig(r=0.03)
        got = evolve_wealth([[1.0]], [[20.0]], [[20.0]], mkt)
        assert got[1] == pytest.approx(100.0 * np.exp(0.03 / 252))

    def test_hand_ledger(self):
        # 2x long at 20 gains 10 units * +1; 1x short at 25 gains 4 units * +1
        mkt = MarketConfig(r=0.0)
        got = evolve_wealth([[2.0, -1.0]], [[20.0, 25.0]], [[21.0, 24.0]], mkt)
        assert got[1] == pytest.approx(114.0)

    def test_zero_price_rejected(self):
        mkt = MarketConfig(r=0.0)
        with pytest.raises(ZeroDivisionError):
            evolve_wealth([[1.0]], [[0.0]], [[1.0]], mkt)

    def test_length_mismatch_rejected(self):
        mkt = MarketConfig(r=0.0)
        with pytest.raises(ValueError):
            evolve_wealth([[1.0, 0.0]], [[20.0]], [[21.0]], mkt)
        with pytest.raises(ValueError):
            evolve_wealth([1.0], [20.0], [21.0], mkt)  # not days x contracts


class TestVxxWeights:
    def test_cycle_endpoints(self):
        assert vxx_roll_weights(0, 21) == (1.0, 0.0)
        assert vxx_roll_weights(21, 21) == (0.0, 1.0)

    def test_midpoint(self):
        assert vxx_roll_weights(7, 14) == (0.5, 0.5)

    def test_outside_cycle_rejected(self):
        with pytest.raises(ValueError):
            vxx_roll_weights(22, 21)
        with pytest.raises(ValueError):
            vxx_roll_weights(-1, 21)
        with pytest.raises(ValueError, match="got 22 on day 2"):
            vxx_roll_weights(np.array([0, 5, 22]), np.array([21, 21, 21]))

    def test_weights_bounded_and_sum_to_one(self):
        for d in range(22):
            w1, w2 = vxx_roll_weights(d, 21)
            assert 0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0
            assert w1 + w2 == 1.0


class TestRankColumns:
    def test_roll_replaces_front_contract(self):
        # across the cycle boundary the front ranks shift by one contract
        panel, _, _, _ = make_sim_panels(cycles=2, seed=2)
        cols = panel.rank_columns(1, 2)
        assert cols.shape == (panel.n_days - 1, 2)
        assert cols[20].tolist() == [0, 1]
        assert cols[21].tolist() == [1, 2]

    def test_rank_beyond_tradable_names_the_day(self):
        panel, _, _, _ = make_sim_panels(cycles=3, seed=2)
        with pytest.raises(DataError, match="rank 3 not available on day 42"):
            panel.rank_columns(2, 3)
        with pytest.raises(ValueError):
            panel.rank_columns(0, 1)


class TestStrategies:
    def test_zero_weights_flat_wealth_at_zero_rate(self):
        panel, mkt, _, _ = make_sim_panels(cycles=2, seed=4, r=0.0)
        cols = panel.rank_columns(1, 2)
        today = np.take_along_axis(panel.prices[:-1], cols, axis=1)
        tomorrow = np.take_along_axis(panel.prices[1:], cols, axis=1)
        wealth = evolve_wealth(np.zeros(cols.shape), today, tomorrow, mkt)
        assert np.all(wealth == 100.0)

    def test_vxx_loses_in_contango_with_static_spot(self):
        # constant spot below the long-run pricing level: every contract
        # rolls down towards the spot, so a long-only roll bleeds daily
        hist = HistoricalParams(1.0, 13.0, 0.0)
        mkt = MarketConfig(r=0.0)
        path = simulate_index_path(hist, LocalVol.constant(0.0), 13.0, 42, 1)
        panel = futures_panel_from_path(path, 3, RiskNeutralParams(1.39, 26.03), mkt)
        out = hold_pair(panel, (1, 2), vxx_front_weights(panel), mkt)
        assert np.all(np.diff(out.wealth) < 0)

    def test_dynamic_tracks_index_over_three_cycles(self, fit_hist, fit_rn):
        panel, mkt, g, path = make_sim_panels(cycles=3, seed=11)
        w = dynamic_weights(panel, TrackingConfig(), fit_hist, fit_rn, g, mkt)
        out = hold_pair(panel, (1, 2), w, mkt)
        index_returns = path.values[1:] / path.values[:-1] - 1.0
        corr = np.corrcoef(out.returns, index_returns)[0, 1]
        assert corr > 0.99

    def test_wrong_length_weights_abort(self):
        panel, mkt, _, _ = make_sim_panels(cycles=1, seed=2)
        with pytest.raises(ValueError):
            hold_pair(panel, (1, 2), np.zeros(panel.n_days), mkt)

    def test_vxx_weights_valid_and_dynamic_pair_sums_to_one(self, fit_hist, fit_rn):
        panel, mkt, g, _ = make_sim_panels(cycles=3, seed=8)
        vxx = hold_pair(panel, (1, 2), vxx_front_weights(panel), mkt)
        assert np.all((vxx.weights >= 0) & (vxx.weights <= 1))
        assert np.all(vxx.weights.sum(axis=1) == 1.0)
        w = dynamic_weights(panel, TrackingConfig(), fit_hist, fit_rn, g, mkt)
        dyn = hold_pair(panel, (1, 2), w, mkt)
        assert np.allclose(dyn.weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)


SEEDS = (3, 8, 11)
S0_MULTS = (1.0 / 3.0, 1.0, 3.0)


def _relative_gap(got, want):
    return np.max(np.abs(got - want) / np.abs(want))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mult", S0_MULTS)
def test_vxx_matches_per_day_loop(seed, mult):
    panel, mkt, _, _ = make_sim_panels(
        cycles=6, seed=seed, s0=mult * FIT_HIST.theta, extra_contracts=2
    )
    out = hold_pair(panel, (1, 2), vxx_front_weights(panel), mkt)
    wealth, held = oracles.strategy_loop(panel, oracles.vxx_rule, mkt)
    assert np.array_equal(out.weights, [list(w.values()) for w in held])
    assert _relative_gap(out.wealth, wealth) <= 1e-12


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mult", S0_MULTS)
@pytest.mark.parametrize("beta", (1.0, 1.5))
@pytest.mark.parametrize("ranks", ((1, 2), (2, 3)))
def test_dynamic_matches_per_day_loop(seed, mult, beta, ranks, fit_hist, fit_rn):
    panel, mkt, g, _ = make_sim_panels(
        cycles=6, seed=seed, s0=mult * fit_hist.theta, extra_contracts=2
    )
    cfg = TrackingConfig(beta=beta, i1=ranks[0], i2=ranks[1])
    w = dynamic_weights(panel, cfg, fit_hist, fit_rn, g, mkt)
    out = hold_pair(panel, ranks, w, mkt)
    rule = oracles.dynamic_rule(cfg, fit_hist, fit_rn, g, mkt)
    wealth, held = oracles.strategy_loop(panel, rule, mkt)
    assert _relative_gap(out.weights, np.array([list(h.values()) for h in held])) <= 1e-13
    assert _relative_gap(out.wealth, wealth) <= 1e-12
