"""Parameter estimation: spot-series MLE and futures-curve moment fit.

Under square-root (CIR) dynamics the one-step transition density of the
index has a closed form involving the modified Bessel function I_q, of
order q = 2 mu theta / sigma^2 - 1 > -1, so the historical parameters
(mu, theta, sigma) are fitted by maximizing the average log-likelihood
over the observed daily transitions, with one simplex search inside a
parameter box from a moment-based start.  ln I_q(x) comes from the
uniform large-order (Debye) expansion wherever hypot(q, x) >= 200,
which on daily index data is most transitions, but not a series' lows
while the search passes through small orders, and is exact to rounding
there; below that radius it is ln of scipy's scaled
ive(q, x) = I_q(x) e^-x plus x, with the expansion where ive
underflows, or below x = 1e-8 the leading term
q ln(x/2) - ln Gamma(q + 1) of the power series.

The risk-neutral pair (mu_tilde, theta_tilde) is fitted by matching the
closed-form futures curve (s - theta_tilde) e^(-mu_tilde T) + theta_tilde
to observed prices in least squares, averaged over days (method of
moments).  The curve is linear in theta_tilde, which therefore has a
closed form for each mu_tilde (variable projection), leaving a
one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, require
from .model import DT, HistoricalParams, RiskNeutralParams, futures_price

__all__ = [
    "MLEReport",
    "MOMReport",
    "log_bessel_i",
    "cir_log_density",
    "initial_guess_from_moments",
    "mle_fit",
    "mom_loss",
    "mom_fit",
]

# Parameter box (mu, theta, sigma) the historical fit's simplex searches in;
# a fit that ends on a face of it is flagged at_bound.
MLE_BOUNDS = ((1e-3, 100.0), (1e-2, 200.0), (1e-3, 50.0))
# Simplex iteration budget of the historical fit.
MLE_MAX_ITER = 600
# The fit's objective where the likelihood is not finite.
_PENALTY = 1e12


# Radius hypot(q, x) from which the Debye expansion is exact to rounding.
_DEBYE_RADIUS = 200.0
# Below this x, ln I_q(x) = q ln(x/2) - ln Gamma(q + 1) to rounding for q > 0.
_SMALL_X = 1e-8
# Debye polynomials u_k(t) = t^k P_k(t^2), k = 1..5 (DLMF 10.41): the
# coefficients of P_k in t^2 from the constant term up, and P_k's divisor.
_DEBYE_P = (
    ((3, -5), 24),
    ((81, -462, 385), 1152),
    ((30375, -369603, 765765, -425425), 414720),
    ((4465125, -94121676, 349922430, -446185740, 185910725), 39813120),
    (
        (1519035525, -49286948607, 284499769554, -614135872350, 566098157625, -188699385875),
        6688604160,
    ),
)


# The five terms as one polynomial in s = 1/R: u_k(t)/q^k = P_k(t^2) s^k and
# t^2 = q^2 s^2, so the coefficient c of t^(2m) in P_k adds c q^(2m) / d_k
# to the coefficient of s^(k+2m), for powers s^1..s^15 and m = 0..5.  Entries
# (k + 2m - 1, c / d_k, m).
_DEBYE_S = tuple(
    (k + 2 * m - 1, c / divisor, m)
    for k, (coeffs, divisor) in enumerate(_DEBYE_P, start=1)
    for m, c in enumerate(coeffs)
)


def _log_i_debye(q: float, x: np.ndarray, r: np.ndarray) -> np.ndarray:
    # Uniform large-order expansion (DLMF 10.41) at R = hypot(q, x) = r.  It
    # is even in q, so it also holds for -1 < q < 0, where the K_q term is
    # e^(-2x) smaller.
    q2m = [(q * q) ** m for m in range(6)]
    a = [0.0] * 15
    for j, c, m in _DEBYE_S:
        a[j] += c * q2m[m]
    s = 1.0 / r
    series = a[-1] * s
    for a_j in reversed(a[:-1]):  # Horner, in place
        series += a_j
        series *= s
    return r - q * np.arcsinh(q / x) - 0.5 * np.log(2.0 * np.pi * r) + np.log1p(series)


def log_bessel_i(order: float, x):
    """ln I_order(x) for order > -1 and x > 0, vectorized over x.

    Entries with R = hypot(order, x) >= 200 take the uniform
    large-order (Debye) expansion to five terms: within 4.3e-16 of a
    40-digit mpmath reference, relative to max(1, |ln I|), for orders
    from -0.9 to 1e3.  On daily index data that is most entries, but not
    a series' lows while the likelihood search passes through small
    orders.  The rest are ln(ive(order, x)) + x from scipy's
    exponentially scaled Bessel function, with the same expansion where
    ive underflows to zero, or below x = 1e-8 the power series' leading
    term, exact there.  Each entry's route depends on that entry alone;
    nothing overflows for any x > 0.
    """
    if not (math.isfinite(order) and order > -1.0):
        raise ValueError(f"order must be finite and > -1, got {order}")
    scalar = np.isscalar(x)
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    x_min = np.fmin.reduce(x_arr, initial=np.inf)  # NaN entries are skipped
    if x_min <= 0:
        raise ValueError("x must be positive")
    r = np.hypot(order, x_arr)
    with np.errstate(all="ignore"):  # the entries it overflows at are replaced below
        out = _log_i_debye(order, x_arr, r)
    if x_min < _SMALL_X or np.hypot(order, x_min) < _DEBYE_RADIUS:
        from scipy.special import ive

        near = np.flatnonzero(r < _DEBYE_RADIUS)
        with np.errstate(divide="ignore"):
            from_ive = np.log(ive(order, x_arr[near])) + x_arr[near]
        kept = np.isfinite(from_ive)  # elsewhere ive underflowed
        out[near[kept]] = from_ive[kept]
        if x_min < _SMALL_X:  # q/x could overflow in the expansion
            small = x_arr < _SMALL_X
            small[near[kept]] = False
            out[small] = order * (np.log(x_arr[small]) - math.log(2.0)) - math.lgamma(order + 1.0)
    return float(out[0]) if scalar else out


def _log_density(s_next, log_s_next, s_prev, p: HistoricalParams):
    # cir_log_density on positive arrays, given ln s_next
    q = 2.0 * p.mu * p.theta / p.sigma**2 - 1.0
    decay = math.exp(-p.mu * DT)
    sig2 = p.sigma**2 * (1.0 - decay) / (2.0 * p.mu)
    u = s_prev * decay
    arg = 2.0 * np.sqrt(s_next * u) / sig2
    return (
        -math.log(sig2)
        - (s_next + u) / sig2
        + 0.5 * q * (log_s_next - np.log(u))
        + log_bessel_i(q, arg)
    )


def cir_log_density(s_next, s_prev, p: HistoricalParams):
    """Log transition density of the square-root process over one step
    of dt = ``model.DT``.

    With sig2 = sigma^2 (1 - e^(-mu dt)) / (2 mu), q = 2 mu theta / sigma^2 - 1
    and u = s_prev e^(-mu dt):

        ln f = -ln sig2 - (s_next + u)/sig2 + (q/2) ln(s_next/u)
               + ln I_q(2 sqrt(s_next u) / sig2)

    Vectorized over (s_next, s_prev) pairs.  Positive mu and theta give
    q > -1, where the density is proper also when the Feller condition
    (q >= 0) fails.

    Raises
    ------
    ValueError
        If any state is nonpositive.
    """
    scalar = np.isscalar(s_next) and np.isscalar(s_prev)
    s_next = np.atleast_1d(np.asarray(s_next, dtype=float))
    s_prev = np.atleast_1d(np.asarray(s_prev, dtype=float))
    if np.any(s_next <= 0) or np.any(s_prev <= 0):
        raise ValueError("states must be positive")
    log_f = _log_density(s_next, np.log(s_next), s_prev, p)
    return float(log_f[0]) if scalar else log_f


@dataclass(frozen=True)
class MLEReport:
    """Historical-measure fit with convergence diagnostics."""

    params: HistoricalParams
    avg_loglik: float
    iterations: int
    evaluations: int
    converged: bool
    at_bound: bool


@dataclass(frozen=True)
class MOMReport:
    """Risk-neutral curve fit: parameters and average squared pricing
    error."""

    params: RiskNeutralParams
    loss: float


def initial_guess_from_moments(series: np.ndarray) -> HistoricalParams:
    """Moment-based starting point for a daily series: sample mean for
    theta, lag-1 autocorrelation for mu, realized quadratic variation
    for sigma.

    Raises
    ------
    CalibrationError
        If the series is constant but for at most its first or last
        value, where the autocorrelation is undefined.
    """
    s = np.asarray(series, dtype=float)
    if np.ptp(s[1:]) == 0 or np.ptp(s[:-1]) == 0:
        raise CalibrationError(
            "the spot is constant, but for at most its first or last close: "
            "its lag-1 autocorrelation, and so mu, is undefined"
        )
    theta0 = float(np.mean(s))
    rho = float(np.corrcoef(s[1:], s[:-1])[0, 1])
    rho = min(max(rho, 1e-4), 1.0 - 1e-4)
    mu0 = -math.log(rho) / DT
    sigma0 = math.sqrt(float(np.mean(np.diff(s) ** 2 / (s[:-1] * DT))))
    clip = lambda v, lo, hi: min(max(v, lo * 1.01), hi * 0.99)
    return HistoricalParams(
        mu=clip(mu0, *MLE_BOUNDS[0]),
        theta=clip(theta0, *MLE_BOUNDS[1]),
        sigma=clip(sigma0, *MLE_BOUNDS[2]),
    )


def _neg_avg_loglik(z: np.ndarray, s_next, log_s_next, s_prev) -> float:
    mu, theta, sigma = np.exp(z).tolist()
    p = HistoricalParams(mu=mu, theta=theta, sigma=sigma)
    val = np.mean(_log_density(s_next, log_s_next, s_prev, p))
    if not np.isfinite(val):
        return _PENALTY
    return -float(val)


def mle_fit(series) -> MLEReport:
    """Maximize the average log-likelihood of the square-root model on
    a daily spot series.

    Runs one adaptive simplex (Nelder-Mead) search in log-parameter
    space from the moment start (:func:`initial_guess_from_moments`),
    inside the box ``MLE_BOUNDS``: scipy clips every vertex into it, so
    the likelihood is only evaluated there.  The start is a vertex of
    the initial simplex and the best vertex never gets worse, so the
    result is never below the start's likelihood.

    ``at_bound`` is True when a parameter ends within 1e-6 (relative)
    of its bound: the likelihood rises towards a face of the box, and
    the series does not pin that parameter inside it.  ``converged`` is
    True when the simplex met its tolerances within ``MLE_MAX_ITER``
    iterations and the fit is not ``at_bound``.

    Raises
    ------
    ValueError
        If the series has fewer than 100 values or, naming the first
        day, one that is not finite and > 0.
    CalibrationError
        If the series is constant (see
        :func:`initial_guess_from_moments`).
    """
    series = np.asarray(series, dtype=float)
    if series.size < 100:
        raise ValueError(f"the MLE needs at least 100 daily closes, got {series.size}")
    ok = np.isfinite(series) & (series > 0)
    require(ok, ValueError, "spot close must be finite and > 0, got {}", series)
    from scipy.optimize import minimize

    init = initial_guess_from_moments(series)
    res = minimize(
        _neg_avg_loglik,
        np.log([init.mu, init.theta, init.sigma]),
        args=(series[1:], np.log(series[1:]), series[:-1]),
        method="Nelder-Mead",
        bounds=np.log(MLE_BOUNDS),
        options={"maxiter": MLE_MAX_ITER, "xatol": 1e-8, "fatol": 1e-12, "adaptive": True},
    )
    mu, theta, sigma = np.exp(res.x)
    at_bound = any(
        v / lo < 1.0 + 1e-6 or v / hi > 1.0 - 1e-6
        for v, (lo, hi) in zip((mu, theta, sigma), MLE_BOUNDS)
    )
    return MLEReport(
        params=HistoricalParams(mu=float(mu), theta=float(theta), sigma=float(sigma)),
        avg_loglik=-float(res.fun),
        iterations=int(res.nit),
        evaluations=int(res.nfev),
        converged=bool(res.success and not at_bound),
        at_bound=at_bound,
    )


def mom_loss(rn: RiskNeutralParams, observations) -> float:
    """Average squared futures-pricing error over the sample.

    loss = (1/n) sum_j (1/(2 N_j)) sum_i
           ((s_j - theta_tilde) e^(-mu_tilde T_i) + theta_tilde - f_j^i)^2

    with the curve from :func:`~vixtrack.model.futures_price`.
    ``observations`` is the (spot, ttm, price, weight) tuple of
    per-quote arrays from :meth:`PricePanel.observations`.
    """
    spots, ttms, prices, weights = observations
    return float(np.sum(weights * (futures_price(spots, ttms, rn) - prices) ** 2))


def mom_fit(observations) -> MOMReport:
    """Fit (mu_tilde, theta_tilde) by minimizing the average squared
    pricing error, by variable projection.

    For fixed mu_tilde the fitted curve (s - theta) e + theta, with
    e = e^(-mu_tilde T) and a = 1 - e, is linear in theta_tilde, so the
    loss is a convex quadratic in theta_tilde whose minimizer over the
    box (1e-6, 1e4) is sum w a (f - s e) / sum w a^2, clipped.  What is
    left is a one-dimensional search in log mu_tilde over (1e-6, 1e3) of
    the profile, :func:`mom_loss` at that theta_tilde: a coarse log grid
    brackets the best minimum, guarding against others, and a bounded
    scalar search refines it.  Deterministic given the
    observations, the per-quote arrays of :meth:`PricePanel.observations`.

    Raises
    ------
    CalibrationError
        If the loss surface cannot identify both parameters (a single
        maturity observed at a single spot level).
    """
    spots, ttms, prices, weights = observations
    if np.unique(np.round(ttms, 12)).size < 2 and np.unique(spots).size < 2:
        raise CalibrationError(
            "unidentifiable: one maturity at one spot level cannot pin down "
            "both mean-reversion parameters"
        )
    from scipy.optimize import minimize_scalar

    def theta_star(log_mu: float) -> float:
        e = np.exp(-math.exp(log_mu) * ttms)
        a = 1.0 - e
        theta = np.sum(weights * a * (prices - spots * e)) / np.sum(weights * a * a)
        return min(max(float(theta), 1e-6), 1e4)

    def profile(log_mu: float) -> float:
        return mom_loss(RiskNeutralParams(math.exp(log_mu), theta_star(log_mu)), observations)

    grid = np.linspace(math.log(1e-6), math.log(1e3), 37)
    values = [profile(z) for z in grid]
    k = int(np.argmin(values))
    res = minimize_scalar(
        profile,
        bounds=(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]),
        method="bounded",
        options={"xatol": 1e-12},
    )
    log_mu = float(res.x) if res.fun <= values[k] else float(grid[k])
    rn = RiskNeutralParams(mu_tilde=math.exp(log_mu), theta_tilde=theta_star(log_mu))
    return MOMReport(params=rn, loss=mom_loss(rn, observations))
