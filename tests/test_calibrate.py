import os

import numpy as np
import pytest
from scipy.integrate import quad

from vixtrack import (
    CalibrationError,
    HistoricalParams,
    LocalVol,
    PricePanel,
    RiskNeutralParams,
    average_log_likelihood,
    cir_log_density,
    initial_guess_from_moments,
    log_bessel_i,
    mle_fit,
    mom_fit,
    mom_loss,
    simulate_index_path,
)

import oracles

needs_real_data = pytest.mark.skipif(
    "VIXTRACK_DATA_DIR" not in os.environ,
    reason="set VIXTRACK_DATA_DIR to a directory of real quote files",
)


def curve_panel(spots, ttms, prices):
    """Panel of the given spots and days x contracts ttms and prices."""
    n_days, n_contracts = np.shape(prices)
    return PricePanel(
        dates=np.arange(n_days),
        spot=np.asarray(spots, dtype=float),
        contracts=np.arange(n_contracts),
        prices=np.asarray(prices, dtype=float),
        ttms=np.asarray(ttms, dtype=float),
        mm_value=np.ones(n_days),
    )


def synth_panel(rn, n_days=100, seed=0, noise=0.0, spot_lo=12.0, spot_hi=40.0):
    rng = np.random.default_rng(seed)
    spots = rng.uniform(spot_lo, spot_hi, n_days)
    ttms = np.arange(1, 8) * 21 / 252.0
    rows = []
    for s in spots:
        prices = (s - rn.theta_tilde) * np.exp(-rn.mu_tilde * ttms) + rn.theta_tilde
        if noise:
            prices = prices + noise * rng.normal(size=ttms.size)
        rows.append(prices)
    return curve_panel(spots, np.tile(ttms, (n_days, 1)), rows)


class TestLogBesselI:
    @pytest.mark.parametrize("n_half,order", [(0, 0.5), (1, 1.5), (2, 2.5)])
    def test_half_integer_closed_forms(self, n_half, order):
        for x in np.geomspace(1e-3, 1e3, 40):
            ref = oracles.mp_log_i_half_integer(n_half, float(x))
            got = log_bessel_i(order, float(x))
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_order_half_spot_values(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
        for x, ref in [
            (0.1, -1.3754177876781698139),
            (1.0, -0.064351991073531798753),
            (10.0, 7.9297689182371507916),
        ]:
            assert log_bessel_i(0.5, x) == pytest.approx(ref, abs=1e-13)

    def test_order_zero_limit_at_origin(self):
        assert log_bessel_i(0.0, 1e-9) == pytest.approx(0.0, abs=1e-15)

    def test_quadrature_oracle_at_fractional_order(self):
        # regenerate the frozen value from the integral representation
        from mpmath import mp, mpf, quad as mpquad, exp, cos, cosh, sin, pi, log

        mp.dps = 40
        q, x = mpf("9.068"), mpf(500)
        main = mpquad(lambda t: exp(x * (cos(t) - 1)) * cos(q * t), [0, pi]) / pi
        tail = sin(q * pi) / pi * mpquad(
            lambda s: exp(-x * (cosh(s) - 1) - q * s), [0, 3]
        )
        ref = float(x + log(main - tail * exp(-2 * x)))
        assert ref == pytest.approx(oracles.LOG_I_9068_500, rel=1e-15)
        assert log_bessel_i(9.068, 500.0) == pytest.approx(ref, rel=1e-13)

    def test_no_overflow_at_huge_argument(self):
        val = log_bessel_i(9.0, 1e6)
        assert np.isfinite(val)
        assert val == pytest.approx(1e6 - 0.5 * np.log(2 * np.pi * 1e6), rel=1e-9)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.02, 1.0, 30.0, 4000.0])
        vec = log_bessel_i(2.2, xs)
        assert np.allclose(vec, [log_bessel_i(2.2, float(x)) for x in xs], rtol=1e-14)

    @pytest.mark.parametrize(
        "order,xs",
        [
            (60.0, np.geomspace(1e-3, 1e5, 25)),
            (1e3, np.geomspace(1e-3, 1e5, 25)),  # ive underflows for x < 624
            # ive underflows for x < 7.2e4; mpmath needs seconds per point above 3e4
            (1e4, np.geomspace(1e-3, 3e4, 22)),
            (10.0, np.array([1e-40])),  # ive underflows at small order too
            (-0.2, np.geomspace(1e-3, 1e3, 13)),  # below the Feller order
            (1.0, np.array([1e-310])),  # order / x overflows
            (2.0, np.array([1e-160])),  # ive underflows where R is far below 200
            (500.0, np.array([1e-307, 1.0, 300.0])),  # R >= 200 with an x near zero
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_mpmath_oracle(self, order, xs):
        got = log_bessel_i(order, xs)
        for x, g in zip(xs, got):
            ref = oracles.mp_log_i(order, float(x))
            assert abs(g - ref) <= 1e-12 * max(1.0, abs(ref)), (order, x)

    @pytest.mark.parametrize("order", [-0.44, 0.0, 1.0, 9.068, 55.0, 150.0])
    def test_mpmath_oracle_across_the_debye_radius(self, order):
        # the expansion takes every entry with hypot(order, x) >= 200
        radii = 200.0 * np.array([0.9, 0.99, 1.0, 1.01, 1.5, 10.0])
        xs = np.sqrt(radii**2 - order**2)
        got = log_bessel_i(order, xs)
        for x, g in zip(xs, got):
            ref = oracles.mp_log_i(order, float(x))
            tol = 1e-15 if np.hypot(order, x) >= 200.0 else 1e-12
            assert abs(g - ref) <= tol * max(1.0, abs(ref)), (order, x)

    def test_daily_regime_never_calls_ive(self, monkeypatch):
        class IveCalled(Exception):
            pass

        def ive(order, x):
            raise IveCalled

        monkeypatch.setattr("vixtrack.calibrate.ive", ive)
        # the paper's order; x = 2 sqrt(S' S e^(-mu dt)) / sig2 over daily VIX levels
        xs = np.linspace(250.0, 2000.0, 200)
        assert np.all(np.isfinite(log_bessel_i(9.068, xs)))
        assert np.isfinite(log_bessel_i(9.068, 250.0))
        # below the radius the scaled Bessel function is still used
        with pytest.raises(IveCalled):
            log_bessel_i(9.068, 150.0)
        with pytest.raises(IveCalled):
            log_bessel_i(9.068, np.array([500.0, 150.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            log_bessel_i(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i(1.0, 0.0)


class TestCirLogDensity:
    def test_density_integrates_to_one(self, fit_hist):
        # the second point fails the Feller condition: q = -0.2
        for hist in (fit_hist, HistoricalParams(1.0, 10.0, 5.0)):
            for s_prev in (10.0, 18.81, 35.0):
                total, err = quad(
                    lambda s: np.exp(cir_log_density(s, s_prev, hist)),
                    1e-12,
                    20 * hist.theta,
                    points=[s_prev],
                    limit=300,
                )
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_feller_order_constant(self, fit_hist):
        q = 2 * fit_hist.mu * fit_hist.theta / fit_hist.sigma**2 - 1
        assert q == pytest.approx(oracles.FELLER_ORDER, rel=1e-14)

    def test_unimodal_in_next_state(self, fit_hist):
        s = np.linspace(5.0, 40.0, 800)
        dens = cir_log_density(s, 18.81, fit_hist)
        sign_changes = np.sum(np.diff(np.sign(np.diff(dens))) != 0)
        assert sign_changes == 1

    def test_order_near_minus_one_is_proper(self):
        # q = -0.996: positive (mu, theta) always give q > -1, where the
        # density has an integrable s^q singularity at zero
        hist = HistoricalParams(mu=0.1, theta=0.5, sigma=5.0)
        for s_prev in (0.5, 10.0):
            total, err = quad(
                lambda s: np.exp(cir_log_density(s, s_prev, hist)),
                0.0,
                60.0,
                points=[s_prev],
                limit=500,
            )
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_states_rejected(self, fit_hist):
        with pytest.raises(ValueError):
            cir_log_density(0.0, 10.0, fit_hist)


class TestMleFit:
    def test_synthetic_recovery(self):
        true = HistoricalParams(5.0, 20.0, 3.0)
        path = simulate_index_path(true, LocalVol.square_root(3.0), 20.0, 252 * 20, 7)
        rep = mle_fit(path.values)
        assert rep.converged
        assert abs(rep.params.theta / true.theta - 1) < 0.05
        assert abs(rep.params.sigma / true.sigma - 1) < 0.03
        assert abs(rep.params.mu / true.mu - 1) < 0.30

    def test_loglik_never_below_start(self):
        true = HistoricalParams(8.0, 15.0, 2.0)
        path = simulate_index_path(true, LocalVol.square_root(2.0), 15.0, 2000, 3)
        rep = mle_fit(path.values)
        assert rep.start == initial_guess_from_moments(path.values)
        assert rep.avg_loglik >= average_log_likelihood(path.values, rep.start)

    def test_near_constant_series(self):
        rng = np.random.default_rng(0)
        series = 20.0 + 1e-4 * rng.standard_normal(600)
        rep = mle_fit(series)
        assert abs(rep.params.theta - 20.0) < 0.05
        assert rep.params.sigma < 0.05

    def test_fails_feller_condition(self):
        # true q = 2 * 1 * 10 / 25 - 1 = -0.2: the search visits orders
        # in (-1, 0), where the density is still proper
        true = HistoricalParams(1.0, 10.0, 5.0)
        path = simulate_index_path(true, LocalVol.square_root(5.0), 10.0, 2000, 3)
        rep = mle_fit(path.values)
        assert np.isfinite(rep.avg_loglik)
        assert rep.avg_loglik >= average_log_likelihood(path.values, true)

    @pytest.mark.parametrize(
        "true, s0, seed",
        [
            ((10.86, 18.81, 6.37), 18.81, 1),  # the paper's parameters
            ((1.0, 10.0, 5.0), 10.0, 3),  # Feller condition fails, q = -0.2
            ((0.5, 20.0, 6.0), 20.0, 3),  # Feller condition fails, q = -0.44
            ((60.0, 18.81, 6.37), 18.81, 5),  # fast mean reversion
            ((10.86, 18.81, 6.37), 60.0, 6),  # start far above theta
        ],
        ids=["paper", "feller", "feller-deep", "fast-reversion", "far-start"],
    )
    def test_single_start_matches_multistart(self, true, s0, seed):
        hist = HistoricalParams(*true)
        path = simulate_index_path(hist, LocalVol.square_root(hist.sigma), s0, 1260, seed)
        assert path.n_clamped == 0
        rep = mle_fit(path.values)
        params, avg_loglik = oracles.multistart_mle(path.values)
        assert rep.converged
        assert rep.evaluations > rep.iterations
        assert rep.avg_loglik >= avg_loglik - 1e-12
        for got, want in zip(
            (rep.params.mu, rep.params.theta, rep.params.sigma),
            (params.mu, params.theta, params.sigma),
        ):
            assert got == pytest.approx(want, rel=1e-5)

    def test_validation(self, fit_hist):
        with pytest.raises(ValueError):
            mle_fit(np.full(10, 20.0))
        with pytest.raises(ValueError):
            mle_fit(np.linspace(-1, 20, 200))

    def test_moment_start_is_reasonable(self):
        true = HistoricalParams(5.0, 20.0, 3.0)
        path = simulate_index_path(true, LocalVol.square_root(3.0), 20.0, 5000, 11)
        init = initial_guess_from_moments(path.values)
        assert abs(init.theta / 20.0 - 1) < 0.15
        assert abs(init.sigma / 3.0 - 1) < 0.15

    @needs_real_data
    def test_matches_reported_fit_on_real_data(self):
        from vixtrack import load_panel

        panel = load_panel(
            os.environ["VIXTRACK_DATA_DIR"], window=("2011-01-01", "2015-12-31")
        )
        rep = mle_fit(panel.spot)
        assert rep.params.mu == pytest.approx(10.86, abs=0.005)
        assert rep.params.theta == pytest.approx(18.81, abs=0.005)
        assert rep.params.sigma == pytest.approx(6.37, abs=0.005)


class TestMom:
    def test_loss_zero_on_generated_prices(self):
        rn = RiskNeutralParams(1.39, 26.03)
        obs = synth_panel(rn, n_days=40, seed=1).observations()
        assert mom_loss(rn, obs) == pytest.approx(0.0, abs=1e-24)
        off = RiskNeutralParams(1.5, 26.03)
        assert mom_loss(off, obs) > 0.0

    def test_single_contract_arithmetic(self):
        rn = RiskNeutralParams(1.0, 25.0)
        ttm = 21 / 252.0
        fair = (20.0 - 25.0) * np.exp(-1.0 * ttm) + 25.0
        obs = curve_panel([20.0], [[ttm]], [[fair + 2.0]]).observations()
        assert mom_loss(rn, obs) == pytest.approx(2.0)

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            curve_panel([], np.empty((0, 1)), np.empty((0, 1))).observations()
        # a contract on its settlement day (ttm 0) is not a live quote
        with pytest.raises(ValueError, match="no live quote on day 1"):
            curve_panel([20.0, 20.0], [[0.1], [0.0]], [[21.0], [20.0]]).observations()

    def test_noiseless_recovery(self):
        true = RiskNeutralParams(2.0, 25.0)
        rep = mom_fit(synth_panel(true, n_days=60, seed=2).observations())
        assert abs(rep.params.mu_tilde / 2.0 - 1) < 1e-6
        assert abs(rep.params.theta_tilde / 25.0 - 1) < 1e-6
        assert rep.loss < 1e-14

    def test_noisy_recovery_within_two_percent(self):
        true = RiskNeutralParams(1.39, 26.03)
        for seed in range(5):
            panel = synth_panel(true, n_days=100, seed=seed, noise=0.05)
            rep = mom_fit(panel.observations())
            assert abs(rep.params.mu_tilde / true.mu_tilde - 1) < 0.02
            assert abs(rep.params.theta_tilde / true.theta_tilde - 1) < 0.02

    def test_grid_scan_oracle(self):
        panel = synth_panel(RiskNeutralParams(1.39, 26.03), n_days=100, seed=7, noise=0.05)
        obs = panel.observations()
        # the oracle sums day by day over raw (spot, [(ttm, price), ...]) pairs
        quotes = [
            (float(s), list(zip(t, p))) for s, t, p in zip(panel.spot, panel.ttms, panel.prices)
        ]
        mu_grid = np.geomspace(0.7, 2.8, 401)
        theta_grid = np.geomspace(13.0, 52.0, 401)
        k_mu, k_theta, grid_min = oracles.grid_min_mom_loss(quotes, mu_grid, theta_grid)
        grid_best = RiskNeutralParams(mu_grid[k_mu], theta_grid[k_theta])
        assert mom_loss(grid_best, obs) == pytest.approx(grid_min, rel=1e-12)
        rep = mom_fit(obs)
        assert rep.loss <= grid_min
        for got, grid, k in (
            (rep.params.mu_tilde, mu_grid, k_mu),
            (rep.params.theta_tilde, theta_grid, k_theta),
        ):
            assert abs(np.log(got / grid[k])) <= np.log(grid[1] / grid[0])

    def test_unidentifiable_surface_rejected(self):
        panel = curve_panel([20.0] * 5, [[21 / 252.0]] * 5, [[21.0]] * 5)
        with pytest.raises(CalibrationError):
            mom_fit(panel.observations())

    @needs_real_data
    def test_matches_reported_fit_on_real_data(self):
        from vixtrack import load_panel

        panel = load_panel(
            os.environ["VIXTRACK_DATA_DIR"], window=("2011-01-01", "2015-12-31")
        )
        rep = mom_fit(panel.observations())
        assert rep.params.mu_tilde == pytest.approx(1.39, abs=0.005)
        assert rep.params.theta_tilde == pytest.approx(26.03, abs=0.005)
