import importlib.util
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from vixtrack import (
    CalibrationError,
    HistoricalParams,
    LocalVol,
    PricePanel,
    RiskNeutralParams,
    cir_log_density,
    futures_price,
    initial_guess_from_moments,
    load_panel,
    log_bessel_i,
    mle_fit,
    mom_fit,
    mom_loss,
)
from vixtrack import calibrate
from vixtrack.calibrate import (
    _PENALTY,
    MLE_MAX_ITER,
    _log_i_debye,
    _log_i_debye_partials,
    _neg_avg_loglik,
    _neg_avg_loglik_and_score,
)

import oracles
from conftest import write_quote_files

needs_real_data = pytest.mark.skipif(
    "VIXTRACK_DATA_DIR" not in os.environ,
    reason="set VIXTRACK_DATA_DIR to a directory of real quote files",
)


@pytest.fixture(scope="module")
def cli_quotes_fit(tmp_path_factory):
    """The spot of the CLI tests' quotes (200 days, seed 3) and its fit."""
    data_dir = tmp_path_factory.mktemp("quotes")
    write_quote_files(data_dir, n_days=200, seed=3)
    spot = load_panel(data_dir).spot
    return spot, mle_fit(spot)


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

    @pytest.mark.parametrize("order", [-0.2, 2.2, 9.068, 150.0, 500.0])
    def test_mixed_array_entries_equal_their_scalar_calls(self, order):
        # one array across every route: leading term, ive, the expansion
        # where ive underflows, and the expansion from R = 200 up
        xs = np.array([1e-300, 1e-9, 1e-3, 0.5, 30.0, 150.0, 199.9, 200.0, 250.0, 4000.0, 1e6])
        vec = log_bessel_i(order, xs)
        for x, v in zip(xs, vec):
            assert v == log_bessel_i(order, float(x)), (order, x)

    def test_one_polynomial_matches_five(self):
        # the same expansion summed as five polynomials in (q/R)^2: the two
        # sums round the small correction differently, which moves the result
        # by one ulp at about 1 entry in 10^5, as at the two points appended
        q_grid = np.concatenate([np.linspace(-0.9, 10.0, 110), np.geomspace(10.0, 1e3, 100)])
        cases = [(q, np.sqrt(np.geomspace(max(200.0, abs(q)), 1e5, 200) ** 2 - q * q)) for q in q_grid]
        cases += [(7.593979933110367, np.sqrt([214.6**2 - 7.593979933110367**2]))]
        cases += [(148.1046048880674, np.sqrt([231.0**2 - 148.1046048880674**2]))]
        got, want = [], []
        for q, xs in cases:
            r = np.hypot(q, xs)
            ok = (r >= 200.0) & (xs > 0)
            got.append(_log_i_debye(q, xs[ok], r[ok]))
            want.append(oracles.log_i_debye_five_polynomials(q, xs[ok]))
        got, want = np.concatenate(got), np.concatenate(want)
        diff = np.abs(got - want)
        assert diff.size > 40_000
        assert np.all(diff <= np.spacing(np.abs(want)))
        assert np.count_nonzero(diff) <= 1e-4 * diff.size

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

        monkeypatch.setattr("scipy.special.ive", ive)
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


def bench_spot():
    """The bench's spot: 1260 Euler days at the paper's parameters from
    theta (``perfbench/inputs.py``, ``spot_path``)."""
    hist = HistoricalParams(10.86, 18.81, 6.37)
    seed = np.random.SeedSequence(0).spawn(2)[0]
    return oracles.euler_path_loop(hist, LocalVol.square_root(6.37), hist.theta, 1259, seed)[0]


@pytest.fixture(scope="module")
def bench_quotes(tmp_path_factory):
    """The per-quote arrays of the bench's quotes (seed 0, ``--n-ranks
    8``), written by ``perfbench/inputs.py``, loaded by path: its
    directory has an ``oracles.py`` too."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    quotes = inputs.write_inputs(tmp_path_factory.mktemp("bench"), 0)["quotes"]
    return load_panel(quotes, n_ranks=8).observations()


def time_scaled_quotes(mu_tilde):
    """Noisy quotes of mu_tilde = 1.39 with every maturity multiplied by
    1.39 / mu_tilde: quotes of mu_tilde, since the curve depends on
    mu_tilde T alone."""
    rn = RiskNeutralParams(1.39, 26.03)
    spots, ttms, prices, weights = synth_panel(rn, seed=7, noise=0.05).observations()
    return spots, ttms * (1.39 / mu_tilde), prices, weights


def one_spot_maturity_quotes():
    """Noisy quotes of mu_tilde = 1.39, plus five of a maturity of
    their own, each at the spot 22: that maturity's spot spread
    S_ss is 0."""
    rn = RiskNeutralParams(1.39, 26.03)
    spots, ttms, prices, weights = synth_panel(rn, seed=7, noise=0.05).observations()
    noise = 0.05 * np.random.default_rng(8).normal(size=5)
    extra = np.full(5, 22.0), np.full(5, 0.5), futures_price(22.0, 0.5, rn) + noise, weights[:5]
    return tuple(map(np.concatenate, zip((spots, ttms, prices, weights), extra)))


def own_maturity_quotes():
    """Noisy quotes of mu_tilde = 1.39 with each maturity moved by its
    own amount in [0, 1e-3): every maturity is quoted once."""
    rn = RiskNeutralParams(1.39, 26.03)
    spots, ttms, prices, weights = synth_panel(rn, seed=7, noise=0.05).observations()
    ttms = ttms + np.random.default_rng(8).uniform(0.0, 1e-3, ttms.size)
    assert np.unique(ttms).size == ttms.size
    return spots, ttms, prices, weights


def unclipped_theta(observations, mu_tilde):
    """The theta_tilde that minimizes the curve fit's loss at mu_tilde,
    by its closed form, before the clip to (1e-6, 1e4)."""
    spots, ttms, prices, weights = observations
    e = np.exp(-mu_tilde * ttms)
    return np.sum(weights * (1 - e) * (prices - spots * e)) / np.sum(weights * (1 - e) ** 2)


def profile_loss(observations, log_mu):
    """mom_loss at mu_tilde = e^log_mu and its clipped best theta_tilde."""
    theta = min(max(unclipped_theta(observations, math.exp(log_mu)), 1e-6), 1e4)
    return mom_loss(RiskNeutralParams(math.exp(log_mu), theta), observations)


def search_calls(monkeypatch):
    """The (fun, start, bounds, result) of each search mom_fit runs, from
    then on."""
    calls, search = [], calibrate._bfgs_in_box

    def spy(fun, z, bounds):
        calls.append((fun, z, bounds, search(fun, z, bounds)))
        return calls[-1][-1]

    monkeypatch.setattr(calibrate, "_bfgs_in_box", spy)
    return calls


def mixed_routes_spot():
    """The spot of the mixed-routes quotes: 504 days at q = -0.2 (seed 3)."""
    hist = HistoricalParams(1.0, 10.0, 5.0)
    return oracles.euler_path_loop(hist, LocalVol.square_root(5.0), hist.theta, 503, 3)[0]


class TestScore:
    @pytest.mark.parametrize("order", [-0.9, -0.2, 0.0, 1.0, 9.068, 55.0, 150.0, 1e3])
    def test_debye_partials_match_mpmath(self, order):
        # the score takes the expansion's partials on every entry, also
        # below R = 200 where the likelihood's value comes from ive.  At
        # R >= 200 they were within 2.9e-16 of mpmath, relative to
        # max(1, |ref|); at R = 127 within 7.8e-15, and at R = 50 within
        # 5e-12, so the expansion's own error shows below about R = 120
        radii = np.array([127.0, 150.0, 199.0, 200.0, 201.0, 400.0, 1200.0, 2000.0])
        radii = radii[radii > abs(order)]
        xs = np.sqrt(radii**2 - order**2)
        d_q, x_d_x = _log_i_debye_partials(order, xs, np.hypot(order, xs))
        for x, r, got_q, got_x in zip(xs, radii, d_q, x_d_x):
            want_q, want_x = oracles.mp_log_i_partials(order, float(x))
            tol = 1e-15 if r >= 200.0 else 2e-14
            assert abs(got_q - want_q) <= tol * max(1.0, abs(want_q)), (order, r)
            assert abs(got_x - want_x) <= tol * max(1.0, abs(want_x)), (order, r)

    @pytest.mark.parametrize(
        "spot, params",
        [
            (bench_spot, (10.86, 18.81, 6.37)),  # min R 187: 3 of 1259 entries take ive
            (bench_spot, (10.86, 18.81, 7.73)),  # min R 127: 85 entries take ive
            (mixed_routes_spot, (1.0, 10.0, 5.0)),  # q = -0.2, min R 97: 46 of 503
        ],
        ids=["bench", "bench-min-r-127", "mixed-routes"],
    )
    def test_score_matches_central_differences(self, spot, params):
        # five-point central differences of the objective at step 1e-3 agreed
        # within 1.5e-9 of the largest score entry at these three points
        s = spot()
        args = (s[1:], np.log(s[1:]), s[:-1])
        z = np.log(params)
        value, score = _neg_avg_loglik_and_score(z, *args)
        assert value == _neg_avg_loglik(z, *args)  # to the bit
        h = 1e-3
        f = lambda k, e: _neg_avg_loglik(z + k * h * e, *args)
        fd = np.array([(8 * (f(1, e) - f(-1, e)) - (f(2, e) - f(-2, e))) / (12 * h) for e in np.eye(3)])
        assert np.max(np.abs(fd - score)) <= 1e-8 * np.max(np.abs(score))

    def test_not_finite_likelihood_is_a_wall(self):
        # (s' + u) / sig2 overflows: the point gets the penalty and a score
        # with no zero entry, so the gradient search never stops on it
        s = np.linspace(1e300, 1.5e300, 200)
        with np.errstate(all="ignore"):
            value, score = _neg_avg_loglik_and_score(
                np.log([10.86, 18.81, 6.37]), s[1:], np.log(s[1:]), s[:-1]
            )
        assert value == _PENALTY
        assert np.all(np.isfinite(score)) and np.all(score != 0.0)


class TestMleFit:
    def test_synthetic_recovery(self):
        true = HistoricalParams(5.0, 20.0, 3.0)
        values, _ = oracles.euler_path_loop(true, LocalVol.square_root(3.0), 20.0, 252 * 20, 7)
        rep = mle_fit(values)
        assert rep.converged
        assert abs(rep.params.theta / true.theta - 1) < 0.05
        assert abs(rep.params.sigma / true.sigma - 1) < 0.03
        assert abs(rep.params.mu / true.mu - 1) < 0.30

    def test_loglik_never_below_start(self):
        true = HistoricalParams(8.0, 15.0, 2.0)
        values, _ = oracles.euler_path_loop(true, LocalVol.square_root(2.0), 15.0, 2000, 3)
        rep = mle_fit(values)
        start = initial_guess_from_moments(values)
        assert rep.avg_loglik >= np.mean(cir_log_density(values[1:], values[:-1], start))

    def test_recovery_on_exact_transitions(self):
        # 16 five-year paths at the paper's parameters, drawn from the
        # transition density the fit maximizes.  Over seeds 0-11 the
        # median of sigma_hat / sigma - 1 ranged over [-1.5 %, +1.0 %],
        # that of theta_hat / theta - 1 over [-2.5 %, +2.3 %], and sigma
        # was inside the 5-95 % band of sigma_hat every time.
        true = HistoricalParams(10.86, 18.81, 6.37)
        paths = oracles.cir_exact_paths(true, true.theta, 1260, 16, seed=0)
        fits = [mle_fit(row).params for row in paths]
        sigma = np.array([p.sigma for p in fits])
        theta = np.array([p.theta for p in fits])
        lo, hi = np.quantile(sigma, [0.05, 0.95])
        assert lo <= true.sigma <= hi
        assert abs(np.median(sigma) / true.sigma - 1) < 0.025
        assert abs(np.median(theta) / true.theta - 1) < 0.04

    def test_near_constant_series(self):
        rng = np.random.default_rng(0)
        series = 20.0 + 1e-4 * rng.standard_normal(600)
        rep = mle_fit(series)
        assert abs(rep.params.theta - 20.0) < 0.05
        assert rep.params.sigma < 0.05
        # the likelihood rises towards sigma's lower bound: the search
        # stops on the box, well inside its iteration budget
        assert rep.at_bound and not rep.converged
        assert rep.iterations < MLE_MAX_ITER

    @pytest.mark.parametrize(
        "series",
        [np.full(200, 20.0), np.r_[np.full(199, 20.0), 20.5], np.r_[20.5, np.full(199, 20.0)]],
        ids=["constant", "last-differs", "first-differs"],
    )
    def test_constant_series_is_rejected(self, series):
        # a stale feed: one of the lagged slices is constant, so the
        # autocorrelation of the moment start is undefined
        with pytest.raises(CalibrationError, match="the spot is constant"):
            mle_fit(series)

    def test_fails_feller_condition(self):
        # true q = 2 * 1 * 10 / 25 - 1 = -0.2: the search visits orders
        # in (-1, 0), where the density is still proper
        true = HistoricalParams(1.0, 10.0, 5.0)
        values, _ = oracles.euler_path_loop(true, LocalVol.square_root(5.0), 10.0, 2000, 3)
        rep = mle_fit(values)
        assert np.isfinite(rep.avg_loglik)
        assert rep.avg_loglik >= np.mean(cir_log_density(values[1:], values[:-1], true))

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
        g = LocalVol.square_root(hist.sigma)
        values, n_clamped = oracles.euler_path_loop(hist, g, s0, 1260, seed)
        assert n_clamped == 0
        rep = mle_fit(values)
        params, avg_loglik = oracles.multistart_mle(values)
        assert rep.converged
        assert rep.evaluations > rep.iterations
        assert rep.avg_loglik >= avg_loglik - 1e-12
        for got, want in zip(
            (rep.params.mu, rep.params.theta, rep.params.sigma),
            (params.mu, params.theta, params.sigma),
        ):
            assert got == pytest.approx(want, rel=1e-5)

    @pytest.mark.parametrize(
        "n_days, true",
        [
            (200, (10.86, 18.81, 6.37)),  # the CLI tests' quotes: every R >= 200
            (504, (1.0, 10.0, 5.0)),  # q near -0.2: both routes at every evaluation
        ],
        ids=["cli-quotes", "mixed-routes"],
    )
    def test_matches_five_polynomial_two_route_likelihood(self, tmp_path, n_days, true):
        write_quote_files(tmp_path, n_days=n_days, seed=3, hist=HistoricalParams(*true))
        spot = load_panel(tmp_path).spot
        rep = mle_fit(spot)
        res = oracles.mle_two_routes(spot)
        assert not rep.simplex_fallback
        assert (rep.params.mu, rep.params.theta, rep.params.sigma) == tuple(np.exp(res.x))
        assert rep.avg_loglik == -res.fun
        assert (rep.iterations, rep.evaluations) == (res.nit, res.nfev)

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.25, 4.0))
    def test_scale_equivariance(self, cli_quotes_fit, c):
        # cS is CIR(mu, c theta, sqrt(c) sigma), and its density is that of
        # S divided by c.  Over 5302 values of c in [0.25, 4] (301 and 2001
        # log-spaced, 3000 uniform) the BFGS search's worst errors were
        # 6.5e-7 (mu), 1.2e-7 (theta), 2.5e-8 (sigma), relative, and 4.4e-14
        # in the average log-likelihood.  Each bound is about twice the
        # worst of the L-BFGS-B search it replaced: 8.6e-7, 3.9e-7, 6.9e-8
        # and 5.2e-14.  The end point moves within the stop tolerance as c
        # moves the rounding of the iterates.  The simplex before it
        # reached 4.4e-6, 8.6e-7, 2.0e-7 and 2.3e-13.
        spot, fit = cli_quotes_fit
        rep = mle_fit(c * spot)
        assert rep.params.mu == pytest.approx(fit.params.mu, rel=2e-6)
        assert rep.params.theta / c == pytest.approx(fit.params.theta, rel=1e-6)
        assert rep.params.sigma / np.sqrt(c) == pytest.approx(fit.params.sigma, rel=2e-7)
        assert rep.avg_loglik + np.log(c) == pytest.approx(fit.avg_loglik, rel=0, abs=1e-13)

    def test_validation(self, fit_hist):
        with pytest.raises(ValueError):
            mle_fit(np.full(10, 20.0))
        with pytest.raises(ValueError):
            mle_fit(np.linspace(-1, 20, 200))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_close_not_finite_and_positive_names_the_day(self, bad):
        spot = np.linspace(15.0, 25.0, 200)
        spot[57] = bad
        message = f"spot close must be finite and > 0, got {bad} on day 57"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mle_fit(spot)

    def test_moment_start_is_reasonable(self):
        true = HistoricalParams(5.0, 20.0, 3.0)
        values, _ = oracles.euler_path_loop(true, LocalVol.square_root(3.0), 20.0, 5000, 11)
        init = initial_guess_from_moments(values)
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

    def test_exact_fit_keeps_the_grid_point(self, monkeypatch):
        # a flat curve at its constant spot: the grid minimum is exactly 0,
        # so no search runs (it divides by that minimum), and nothing warns
        calls = search_calls(monkeypatch)
        ttms = np.arange(1, 5) * 21 / 252.0
        rep = mom_fit(curve_panel([20.0] * 5, [ttms] * 5, np.full((5, 4), 20.0)).observations())
        assert rep.loss == 0.0
        assert rep.params.theta_tilde == pytest.approx(20.0, rel=1e-8)
        assert calls == []

    def test_exact_fit_on_uneven_days_keeps_the_grid_point(self, monkeypatch):
        # as above, on days of 4, 3, 2, 4 and 1 live quotes, so that the
        # quotes weigh unequally: each maturity's mean spot and price are
        # still exactly 21.37, and its spread and residual exactly 0
        calls = search_calls(monkeypatch)
        ttms = np.tile(np.arange(1, 5) * 21 / 252.0, (5, 1))
        prices = np.full((5, 4), 21.37)
        for day, n_live in enumerate([4, 3, 2, 4, 1]):
            ttms[day, : 4 - n_live] = prices[day, : 4 - n_live] = np.nan  # expired
        rep = mom_fit(curve_panel([21.37] * 5, ttms, prices).observations())
        assert rep.loss == 0.0
        assert rep.params.theta_tilde == pytest.approx(21.37, rel=1e-8)
        assert calls == []

    @pytest.mark.parametrize("mu_tilde, clipped", [(1.39, False), (2e-6, True)])
    def test_profile_slope_is_its_derivative(self, monkeypatch, mu_tilde, clipped):
        # the slope the search sees, at its start, against central
        # differences of the value it sees: the partial in ln mu_tilde at
        # fixed theta_tilde, where theta_tilde is stationary and where it
        # is clipped at 1e-6.  At h = 1e-4 they agreed within 4.9e-9 and
        # 2.3e-8, relative: the differences' truncation error, with the
        # clipped profile's rounding dominating below it.
        calls = search_calls(monkeypatch)
        obs = synth_panel(RiskNeutralParams(mu_tilde, 26.03), seed=7, noise=0.05).observations()
        mom_fit(obs)
        [(fun, z, _, _)] = calls
        assert (unclipped_theta(obs, math.exp(z[0])) < 1e-6) == clipped
        h = 1e-4
        slope = (fun(z + h)[0] - fun(z - h)[0]) / (2 * h)
        assert fun(z)[1][0] == pytest.approx(slope, rel=1e-7)

    @pytest.mark.parametrize("quotes", ["bench", "cli", "lower-end", "upper-end"])
    def test_search_matches_scipys_bounded_brent(self, quotes, bench_quotes, tmp_path, monkeypatch):
        # scipy's bounded Brent search on the same bracket, as an oracle:
        # mom_fit may end no higher, and at the same mu_tilde.  The worst
        # gap in mu_tilde was 4.9e-8 at the lower end, where scipy's stop
        # tolerance adds 1.5e-8 |ln mu_tilde| = 2e-7 to xatol.  The CLI
        # quotes are model prices, so there both losses are rounding
        # (5.3e-23 against scipy's 1.7e-19).
        if quotes == "bench":
            obs = bench_quotes
        elif quotes == "cli":
            write_quote_files(tmp_path, n_days=200, seed=3)
            obs = load_panel(tmp_path).observations()
        else:
            obs = time_scaled_quotes(1.2e-6 if quotes == "lower-end" else 900.0)
        calls = search_calls(monkeypatch)
        rep = mom_fit(obs)
        [(_, _, bounds, _)] = calls
        lo, hi = bounds[0]
        assert (lo == math.log(1e-6), hi == math.log(1e3)) == (
            quotes == "lower-end", quotes == "upper-end"
        )
        want = minimize_scalar(
            lambda x: profile_loss(obs, x), bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}
        )
        assert want.success
        assert rep.loss <= want.fun * (1 + 1e-12)
        assert rep.params.mu_tilde == pytest.approx(math.exp(want.x), rel=1e-7)

    @pytest.mark.parametrize(
        "quotes, bound",
        [("bench", 1e-13), ("cli", 3e-13), ("one-spot", 1e-13), ("own-maturity", 1e-13)],
    )
    def test_profile_is_the_per_quote_loss(self, quotes, bound, bench_quotes, tmp_path, monkeypatch):
        # the profile the search sees, from per-maturity sums and divided
        # by the grid minimum, times that minimum quote by quote, against
        # profile_loss quote by quote, at every grid point.  The worst
        # gaps were 4.5e-14 (bench), 1.2e-13 (the CLI's model-price
        # quotes), 6.4e-14 (a maturity quoted at one spot, S_ss = 0) and
        # 3.5e-15 (every maturity quoted once), relative.
        if quotes == "bench":
            obs = bench_quotes
        elif quotes == "cli":
            write_quote_files(tmp_path, n_days=200, seed=3)
            obs = load_panel(tmp_path).observations()
        else:
            obs = one_spot_maturity_quotes() if quotes == "one-spot" else own_maturity_quotes()
        calls = search_calls(monkeypatch)
        mom_fit(obs)
        [(fun, z, _, _)] = calls
        assert fun(z)[0] == 1.0
        grid_min = profile_loss(obs, z[0])
        for log_mu in np.linspace(math.log(1e-6), math.log(1e3), 37):
            want = profile_loss(obs, log_mu)
            assert fun(np.array([log_mu]))[0] * grid_min == pytest.approx(want, rel=bound)

    @pytest.mark.parametrize(
        "quotes, flagged",
        [
            ("theta-clipped", True),
            ("lower-end", True),
            ("upper-end", True),
            ("bench", False),
            ("noise-free", False),
        ],
    )
    def test_at_bound(self, quotes, flagged, bench_quotes):
        # flagged where theta_tilde is clipped (here at 1e-6, inside the
        # grid) or the grid's best point is its first or last (there
        # theta_tilde is inside its box)
        if quotes == "theta-clipped":
            obs = synth_panel(RiskNeutralParams(2e-6, 26.03), seed=7, noise=0.05).observations()
        elif quotes in ("lower-end", "upper-end"):
            obs = time_scaled_quotes(1.2e-6 if quotes == "lower-end" else 900.0)
        elif quotes == "bench":
            obs = bench_quotes
        else:
            obs = synth_panel(RiskNeutralParams(2.0, 25.0), n_days=60, seed=2).observations()
        rep = mom_fit(obs)
        assert rep.at_bound is flagged
        assert (rep.params.theta_tilde == 1e-6) == (quotes == "theta-clipped")

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(0.25, 4.0))
    def test_scale_equivariance(self, bench_quotes, c):
        # futures are affine in the spot, so quotes times c are fitted by
        # the same mu_tilde and by c theta_tilde, at c^2 the loss.  Over
        # 1104 values of c in [0.25, 4] (104 log-spaced, 1000 uniform) the
        # worst errors were 4.0e-15 (mu_tilde), 1.0e-15 (theta_tilde) and
        # 2.2e-15 (loss), relative; the bounds are about twice those.
        # Searching the undivided profile, whose stop rules are absolute,
        # moved mu_tilde by up to 4.0e-8.
        spots, ttms, prices, weights = bench_quotes
        fit = mom_fit(bench_quotes)
        rep = mom_fit((c * spots, ttms, c * prices, weights))
        assert rep.params.mu_tilde == pytest.approx(fit.params.mu_tilde, rel=8e-15)
        assert rep.params.theta_tilde / c == pytest.approx(fit.params.theta_tilde, rel=2e-15)
        assert rep.loss / c**2 == pytest.approx(fit.loss, rel=5e-15)

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
