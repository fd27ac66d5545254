import math

import numpy as np
import pytest
from scipy.optimize import brentq

from vixtrack import (
    DegenerateProblemError,
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
    TrackingCoefficients,
    critical_spot,
    expected_sq_error,
    futures_price,
    optimal_weight,
    track,
    tracking_coefficients,
)
from vixtrack.model import DT

import oracles
from conftest import make_sim_panels

PAPER_HIST = HistoricalParams(10.86, 18.81, 6.37)
PAPER_RN = RiskNeutralParams(1.39, 26.03)


def grid_ttm(day, rank):
    """Time to maturity of rank ``rank`` on ``day`` (0-20) of the
    21-day monthly grid."""
    return (21 * rank - day) / 252.0


def coeffs_at(
    spot,
    day=0,
    beta=1.0,
    r=0.01,
    hist=PAPER_HIST,
    rn=PAPER_RN,
    i1=1,
    i2=2,
):
    return tracking_coefficients(
        spot, grid_ttm(day, i1), grid_ttm(day, i2), beta, hist, rn, math.expm1(r * DT)
    )


class TestTrackingCoefficients:
    def test_identical_measures_kill_the_drift_spread(self):
        hist = HistoricalParams(2.0, 22.0, 3.0)
        rn = RiskNeutralParams(2.0, 22.0)
        c = coeffs_at(20.0, hist=hist, rn=rn)
        assert c.alpha1 == 0.0

    def test_nearer_contract_has_larger_shock_loading(self):
        c = coeffs_at(18.81)
        assert c.nu1 > 0.0

    def test_matches_extended_precision_tuple(self):
        c = coeffs_at(18.81)
        a0, a1, n0, n1 = oracles.COEFFS_DAY0
        assert c.alpha0 == pytest.approx(a0, rel=1e-12)
        assert c.alpha1 == pytest.approx(a1, rel=1e-12)
        assert c.nu0 == pytest.approx(n0, rel=1e-12)
        assert c.nu1 == pytest.approx(n1, rel=1e-12)

    def test_identical_ranks_rejected(self, fit_hist, fit_rn):
        panel, _, _ = make_sim_panels(cycles=2, seed=2)
        with pytest.raises(DegenerateProblemError):
            track(panel, (2, 2), 1.0, fit_hist, fit_rn)

    def test_nonpositive_spot_rejected(self):
        with pytest.raises(ValueError):
            coeffs_at(0.0)

    def test_arrays_match_scalar_days(self):
        spots = np.array([6.27, 18.81, 25.0, 56.43])
        days = np.array([0, 7, 13, 20])
        c = tracking_coefficients(
            spots, grid_ttm(days, 2), grid_ttm(days, 3), 1.5, PAPER_HIST, PAPER_RN,
            math.expm1(0.02 * DT),
        )
        w, obj = optimal_weight(c)
        for k, (spot, day) in enumerate(zip(spots, days)):
            # equal up to vectorized versus scalar exp
            one = coeffs_at(spot, day=int(day), beta=1.5, r=0.02, i1=2, i2=3)
            got = (c.alpha0[k], c.alpha1[k], c.nu0[k], c.nu1[k], w[k], obj[k])
            want = (one.alpha0, one.alpha1, one.nu0, one.nu1, *optimal_weight(one))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_array_checks_name_the_first_bad_day(self):
        mm_return = math.expm1(0.01 * DT)
        ttm = np.array([0.1, 0.1, 0.1])
        with pytest.raises(ValueError, match="got -1.0 on day 1"):
            tracking_coefficients(
                np.array([18.0, -1.0, -2.0]), ttm, 2 * ttm, 1.0, PAPER_HIST, PAPER_RN, mm_return
            )
        with pytest.raises(DegenerateProblemError, match="on day 2"):
            tracking_coefficients(
                np.full(3, 18.0), ttm, np.array([0.2, 0.3, 0.1]), 1.0, PAPER_HIST, PAPER_RN,
                mm_return,
            )

    def test_batch_checks_name_the_day_and_path(self):
        # one spot row per path against per-day ttms and returns
        spot = np.full((3, 4), 18.0)
        spot[1, 2] = -1.0
        ttm = np.full(4, 0.1)
        with pytest.raises(ValueError, match=r"got -1.0 on day 2 of path 1$"):
            tracking_coefficients(
                spot, ttm, 2 * ttm, 1.0, PAPER_HIST, PAPER_RN, np.full(4, math.expm1(0.01 * DT))
            )

    def test_zero_volatility_is_the_limit_of_small_volatility(self):
        # lambda diverges like 1/g while every B vanishes like g: one formula
        # covers both, and the coefficients are continuous at g = 0
        hist0 = HistoricalParams(10.86, 18.81, 0.0)
        c0 = tracking_coefficients(
            22.0, 21 / 252, 42 / 252, 1.0, hist0, PAPER_RN, math.expm1(0.01 * DT)
        )
        assert c0.nu0 == 0.0 and c0.nu1 == 0.0
        hist = HistoricalParams(10.86, 18.81, 1e-9)
        c = tracking_coefficients(
            22.0, 21 / 252, 42 / 252, 1.0, hist, PAPER_RN, math.expm1(0.01 * DT)
        )
        assert c.alpha0 == pytest.approx(c0.alpha0, rel=1e-12)
        assert c.alpha1 == pytest.approx(c0.alpha1, rel=1e-12)
        drift_gap = 10.86 * (18.81 - 22.0) - 1.39 * (26.03 - 22.0)
        den = [26.03 * np.exp(1.39 * t) + 22.0 - 26.03 for t in (21 / 252, 42 / 252)]
        assert c0.alpha1 == pytest.approx(drift_gap * (1 / den[0] - 1 / den[1]) / 252, rel=1e-14)


class TestOptimalWeight:
    def test_matches_extended_precision_value(self):
        w, _ = optimal_weight(coeffs_at(18.81))
        assert w == pytest.approx(oracles.W_STAR_DAY0, rel=1e-12)

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(101)
        n_checked = 0
        while n_checked < 200:
            hist = HistoricalParams(
                mu=rng.uniform(1, 20),
                theta=rng.uniform(10, 40),
                sigma=rng.uniform(1, 10),
            )
            rn = RiskNeutralParams(rng.uniform(0.3, 3), rng.uniform(15, 40))
            c = coeffs_at(
                spot=rng.uniform(8, 60),
                day=int(rng.integers(0, 21)),
                beta=float(rng.choice([-1, 1]) * rng.uniform(0.25, 2)),
                r=rng.uniform(0, 0.08),
                hist=hist,
                rn=rn,
                i1=int(rng.integers(1, 4)),
                i2=int(rng.integers(4, 7)),
            )
            w_star, obj = optimal_weight(c)
            if abs(w_star) > 9.5:  # keep the oracle's grid domain binding
                continue
            w_grid, val_grid = oracles.grid_min_weight(c)
            assert abs(w_star - w_grid) <= 1e-4
            assert obj <= val_grid
            n_checked += 1

    def test_zero_objective_at_critical_spot(self, fit_rn):
        s_star = critical_spot(1.0, 0.02, fit_rn)
        c = coeffs_at(s_star, day=3, r=0.02)
        _, obj = optimal_weight(c)
        assert obj <= 1e-18
        for bump in (0.99, 1.01):
            _, obj_off = optimal_weight(coeffs_at(s_star * bump, day=3, r=0.02))
            assert obj_off > 0.0

    def test_zero_error_spot_same_for_all_days_and_pairs(self, fit_rn):
        s_star = critical_spot(1.0, 0.03, fit_rn)

        def h(spot, day, i1, i2):
            c = coeffs_at(spot, day=day, r=0.03, i1=i1, i2=i2)
            return c.nu1 * c.alpha0 - c.nu0 * c.alpha1

        roots = [
            brentq(h, 0.5 * s_star, 1.5 * s_star, args=(day, i1, i2), xtol=1e-14)
            for day, i1, i2 in [(0, 1, 2), (9, 1, 2), (17, 2, 5), (4, 3, 4)]
        ]
        for root in roots:
            assert root == pytest.approx(roots[0], rel=1e-12)

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(DegenerateProblemError):
            optimal_weight(TrackingCoefficients(0.5, 0.0, 0.2, 0.0))


class TestExpectedSqError:
    def test_consistency_with_closed_form_optimum(self):
        c = coeffs_at(16.0, day=5, beta=1.5)
        w_star, obj = optimal_weight(c)
        assert expected_sq_error(w_star, c) == pytest.approx(obj, rel=1e-9, abs=1e-24)

    def test_constant_coefficient_cases(self):
        flat = TrackingCoefficients(1.0, 0.0, 1.0, 0.0)
        for w in (-3.0, 0.0, 2.5):
            assert expected_sq_error(w, flat) == 2.0
        diag = TrackingCoefficients(0.0, 1.0, 0.0, 1.0)
        assert expected_sq_error(0.0, diag) == 0.0
        assert expected_sq_error(1.0, diag) == 2.0

    def test_convexity_around_the_optimum(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            c = TrackingCoefficients(*rng.normal(size=4))
            if c.alpha1 == 0 and c.nu1 == 0:
                continue
            w_star, obj = optimal_weight(c)
            for w in rng.uniform(-20, 20, size=5):
                assert expected_sq_error(w, c) >= obj - 1e-12


class TestOneDayMonteCarlo:
    """The coded objective is the one-day tracking error's mean square to
    first order in dt.  Each check draws tomorrow's index from one Euler
    step of the model and reprices both contracts with the model's own
    futures formula at T - dt, then measures the realized error: the
    portfolio's one-day return minus beta times the index's.  That error
    is exactly affine in the shock, with the coefficients of
    ``oracles.exact_one_day_coefficients``."""

    N_DRAWS = 1 << 20
    R = 0.01
    T1, T2 = 21 / 252, 42 / 252
    G = LocalVol.square_root(PAPER_HIST.sigma)

    def coded(self, spot, beta=1.0):
        return tracking_coefficients(
            spot, self.T1, self.T2, beta, PAPER_HIST, PAPER_RN, math.expm1(self.R * DT)
        )

    def exact(self, spot, beta=1.0):
        return oracles.exact_one_day_coefficients(
            spot, self.T1, self.T2, beta, self.R, PAPER_HIST, PAPER_RN, self.G(spot)
        )

    def simulated_error(self, spot, w, beta=1.0):
        """Shocks z and the realized one-day error at weight ``w``."""
        hist, rn, dt = PAPER_HIST, PAPER_RN, oracles.DT
        z = np.random.default_rng(20190701).standard_normal(self.N_DRAWS)
        s_next = spot + hist.mu * (hist.theta - spot) * dt + self.G(spot) * np.sqrt(dt) * z
        ret = np.expm1(self.R * dt)
        for weight, ttm in ((w, self.T1), (1.0 - w, self.T2)):
            # futures_price is affine in spot: f(S') = f(0) + (f(1) - f(0)) S'
            f0, f1 = (futures_price(s, ttm - dt, rn) for s in (0.0, 1.0))
            ret = ret + weight * ((f0 + (f1 - f0) * s_next) / futures_price(spot, ttm, rn) - 1.0)
        return z, ret - beta * (s_next / spot - 1.0)

    def realized_mse(self, spot, beta=1.0):
        w, objective = optimal_weight(self.coded(spot, beta))
        _, err = self.simulated_error(spot, w, beta)
        return float(np.mean(err ** 2)), objective

    @pytest.mark.parametrize("mult", (1.0 / 3.0, 1.0, 3.0))
    def test_simulated_error_is_exactly_affine_in_the_shock(self, mult):
        spot = mult * PAPER_HIST.theta
        a0, a1, n0, n1 = self.exact(spot)
        w_star, _ = optimal_weight(self.coded(spot))
        for w in (0.0, 1.0, w_star):
            z, err = self.simulated_error(spot, w)
            basis = np.column_stack([np.ones_like(z), z])
            (mean, slope), *_ = np.linalg.lstsq(basis, err, rcond=None)
            assert mean == pytest.approx(a0 + a1 * w, rel=1e-9, abs=0.0)
            assert slope == pytest.approx(n0 + n1 * w, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("mult", (1.0 / 3.0, 1.0, 3.0))
    def test_coded_coefficients_are_exact_to_first_order(self, mult):
        spot = mult * PAPER_HIST.theta
        c = self.coded(spot)
        for got, want in zip((c.alpha0, c.alpha1, c.nu0, c.nu1), self.exact(spot)):
            assert abs(got / want - 1.0) < 0.10

    @pytest.mark.parametrize("mult", (1.0 / 3.0, 1.0, 3.0))
    def test_objective_is_realized_mse_to_first_order(self, mult):
        realized, objective = self.realized_mse(mult * PAPER_HIST.theta)
        assert abs(realized / objective - 1.0) < 0.10

    def test_critical_spot_error_is_second_order(self):
        s_star = critical_spot(1.0, self.R, PAPER_RN)
        realized, _ = self.realized_mse(s_star)
        _, objective_at_theta = self.realized_mse(PAPER_HIST.theta)
        assert realized < 0.1 * objective_at_theta

    def test_exact_objective_vanishes_at_critical_spot(self):
        def min_objective(a0, a1, n0, n1):
            return (n1 * a0 - n0 * a1) ** 2 / (a1 ** 2 + n1 ** 2)

        s_star = critical_spot(1.0, self.R, PAPER_RN)
        at_s_star = min_objective(*self.exact(s_star))
        assert at_s_star < 1e-6 * min_objective(*self.exact(PAPER_HIST.theta))
