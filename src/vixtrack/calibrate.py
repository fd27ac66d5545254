"""Parameter estimation: spot-series MLE and futures-curve moment fit.

Under square-root (CIR) dynamics the one-step transition density of the
index has a closed form involving the modified Bessel function I_q, of
order q = 2 mu theta / sigma^2 - 1 > -1, so the historical parameters
(mu, theta, sigma) are fitted by maximizing the average log-likelihood
over the observed daily transitions, with one quasi-Newton (BFGS)
search on the likelihood and its analytic score inside a parameter box
from a moment-based start; scipy's simplex search backs it up where it
ends on the box or short of a stationary point, as on near-constant
series, and only then is scipy.optimize imported.
ln I_q(x) comes from the uniform large-order (Debye) expansion
wherever hypot(q, x) >= 200, which on daily index data is most
transitions, but not a series' lows while the search passes through
small orders, and is exact to rounding there; below that radius it is
ln of scipy's scaled ive(q, x) = I_q(x) e^-x plus x, with the
expansion where ive underflows, or below x = 1e-8 the leading term
q ln(x/2) - ln Gamma(q + 1) of the power series.  The score takes the
expansion's partial derivatives in q and x on every transition.

The risk-neutral pair (mu_tilde, theta_tilde) is fitted by matching the
closed-form futures curve (s - theta_tilde) e^(-mu_tilde T) + theta_tilde
to observed prices in least squares, averaged over days (method of
moments).  The curve is linear in theta_tilde, which therefore has a
closed form for each mu_tilde (variable projection), leaving a
one-dimensional search: a coarse grid, then the same BFGS search as the
MLE's on the profile and its slope, the partial derivative in mu_tilde
at fixed theta_tilde.  The quotes are summed by maturity once, so each
profile value costs one pass over the maturities, not the quotes.  A
curve fit on a limit of its search is flagged ``at_bound``, as the MLE's
is; it does not fail the ``calibrate`` run (see ``cli``).
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

# Parameter box (mu, theta, sigma) the historical fit searches in; a fit
# that ends on a face of it is flagged at_bound.
MLE_BOUNDS = ((1e-3, 100.0), (1e-2, 200.0), (1e-3, 50.0))
# Iteration budget of each search: the historical fit's BFGS and simplex,
# and the curve fit's BFGS.
MLE_MAX_ITER = 600
# The fit's objective where the likelihood is not finite.
_PENALTY = 1e12
# Largest score entry at which the gradient search's end point is taken as
# the maximum: 1e-6 is 14x the largest at a stop on 18 regular series
# (7.3e-8), and 1e-6 of the smallest where it stops at a corner (1.75).
_STATIONARY = 1e-6
# Forward-difference step of the gradient search's starting Hessian, in
# log-parameters, and the most halvings of one of its line searches (as
# many trial steps as scipy's L-BFGS-B allows).
_HESSIAN_STEP = 1e-4
_MAX_HALVINGS = 20


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


def _log_i_debye_partials(q: float, x: np.ndarray, r: np.ndarray):
    # d/dq and x d/dx of the expansion D = R - q asinh(q/x) - ln(2 pi R)/2
    # + ln(1 + P) of _log_i_debye, with P = sum_j a_j(q) s^(j+1) and s = 1/R:
    #   dD/dq   = -asinh(q/x) - q/(2R^2) + (P_q - P_s q/R^3)/(1 + P)
    #   x dD/dx = R - x^2/(2R^2) - P_s x^2/(R^3 (1 + P))
    # One Horner pass carries P, P_s = dP/ds and P_q = dP/dq.
    q2m = [(q * q) ** m for m in range(6)]
    dq2m = [2 * m * q ** (2 * m - 1) if m else 0.0 for m in range(6)]
    a, a_q = [0.0] * 15, [0.0] * 15
    for j, c, m in _DEBYE_S:
        a[j] += c * q2m[m]
        a_q[j] += c * dq2m[m]
    s = 1.0 / r
    p, p_s, p_q = a[-1] * s, np.full_like(s, a[-1]), a_q[-1] * s
    for a_j, a_qj in zip(reversed(a[:-1]), reversed(a_q[:-1])):
        p += a_j
        p_q += a_qj
        p_s *= s
        p_s += p
        p *= s
        p_q *= s
    r2 = r * r
    p_s /= r2 * r * (1.0 + p)
    d_q = (p_q / (1.0 + p) - q * p_s) - np.arcsinh(q / x) - q / (2.0 * r2)
    x2 = x * x
    return d_q, r - x2 / (2.0 * r2) - p_s * x2


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


def _transition(s_next, s_prev, mu: float, theta: float, sigma: float):
    # the order q, scale sig2, decayed state u and Bessel argument x of
    # cir_log_density
    q = 2.0 * mu * theta / sigma**2 - 1.0
    decay = math.exp(-mu * DT)
    sig2 = sigma**2 * (1.0 - decay) / (2.0 * mu)
    u = s_prev * decay
    return q, sig2, u, 2.0 * np.sqrt(s_next * u) / sig2


def _log_density(s_next, log_s_next, s_prev, p: HistoricalParams):
    # cir_log_density on positive arrays, given ln s_next
    q, sig2, u, x = _transition(s_next, s_prev, p.mu, p.theta, p.sigma)
    return (
        -math.log(sig2)
        - (s_next + u) / sig2
        + 0.5 * q * (log_s_next - np.log(u))
        + log_bessel_i(q, x)
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
    simplex_fallback: bool


@dataclass(frozen=True)
class MOMReport:
    """Risk-neutral curve fit: parameters, average squared pricing
    error, and whether the fit sits on a limit of its search."""

    params: RiskNeutralParams
    loss: float
    at_bound: bool


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


def _neg_avg_loglik_and_score(z: np.ndarray, s_next, log_s_next, s_prev):
    # _neg_avg_loglik, to the bit, and its gradient in z = (ln mu, ln theta,
    # ln sigma), from the Debye partials of ln I_q(x) on every entry (also
    # those whose value comes from ive).  The score is the chain rule through
    # q (dq/dz = (q + 1) (1, 1, -2)), ln sig2 (g, 0, 2), ln u (-mu dt, 0, 0)
    # and ln x (-mu dt/2 - g, 0, -2), with g = mu dt / (e^(mu dt) - 1) - 1.
    # Where the value or the score is not finite the point is a wall: the
    # penalty, with a gradient that is not zero, so it is never stationary.
    mu, theta, sigma = np.exp(z).tolist()
    q, sig2, u, x = _transition(s_next, s_prev, mu, theta, sigma)
    w = (s_next + u) / sig2
    log_ratio = log_s_next - np.log(u)
    val = np.mean(-math.log(sig2) - w + 0.5 * q * log_ratio + log_bessel_i(q, x))
    with np.errstate(all="ignore"):  # a non-finite score is caught below
        d_q, x_d_x = _log_i_debye_partials(q, x, np.hypot(q, x))
        mu_dt = mu * DT
        g = mu_dt / math.expm1(mu_dt) - 1.0
        w_bar, x_d_x_bar = np.mean(w), np.mean(x_d_x)
        by_q = (q + 1.0) * (0.5 * np.mean(log_ratio) + np.mean(d_q))
        score = np.array([
            by_q + g * (w_bar - 1.0) + mu_dt * (np.mean(u) / sig2 + 0.5 * q)
            - (0.5 * mu_dt + g) * x_d_x_bar,
            by_q,
            2.0 * (w_bar - 1.0 - x_d_x_bar - by_q),
        ])
    if not (np.isfinite(val) and np.all(np.isfinite(score))):
        return _PENALTY, np.full(3, _PENALTY)
    return -float(val), -score


def _bfgs_in_box(fun, z, bounds):
    # Minimize fun(z) -> (value, gradient) by BFGS inside the box bounds
    # (rows of (lo, hi)) from z; returns (z, value, gradient, iterations,
    # evaluations).  Both fits run it: the MLE in three log-parameters, the
    # curve fit in log mu_tilde on a profile divided by its grid minimum,
    # since the stop rules below are absolute (the gradient's, and the
    # value's where it is below 1).  The inverse Hessian starts from
    # forward differences of the gradient at z, or where those are not
    # positive definite from an identity scaled so that no entry of the
    # first step exceeds 1.  Each trial point is clipped into the box and
    # halved back to the Armijo condition.  Stops when no gradient entry
    # exceeds 1e-8, when a step moves the value by at most 1e-13 of its
    # size, when the line search cannot lower it (_MAX_HALVINGS trials, or
    # one that moves the value by at most that much), or after MLE_MAX_ITER
    # iterations.
    lo, hi = bounds.T
    tiny = lambda a, b: abs(a - b) <= 1e-13 * max(abs(a), abs(b), 1.0)
    f, g = fun(z)
    steps = z + _HESSIAN_STEP * np.eye(z.size)
    hess = (np.array([fun(z_i)[1] for z_i in steps]) - g) / _HESSIAN_STEP
    eig, vec = np.linalg.eigh(0.5 * (hess + hess.T))
    if eig.min() > 0:
        inv = (vec / eig) @ vec.T
    else:
        inv = np.eye(z.size) / max(1.0, np.max(np.abs(g)))
    iterations, evaluations = 0, 1 + z.size
    while iterations < MLE_MAX_ITER and np.max(np.abs(g)) > 1e-8:
        direction, t = -inv @ g, 1.0
        for _ in range(_MAX_HALVINGS):
            z_new = np.clip(z + t * direction, lo, hi)
            f_new, g_new = fun(z_new)
            evaluations += 1
            accept = f_new <= f + 1e-4 * min(g @ (z_new - z), 0.0)
            if accept or tiny(f, f_new):
                break
            t *= 0.5
        if not accept:
            break
        iterations += 1
        s, y, last = z_new - z, g_new - g, tiny(f, f_new)
        z, f, g = z_new, f_new, g_new
        if last:
            break
        sy = s @ y
        if sy > 0:  # the update keeps inv positive definite
            v = np.eye(z.size) - np.outer(s, y) / sy
            inv = v @ inv @ v.T + np.outer(s, s) / sy
    return z, f, g, iterations, evaluations


def mle_fit(series) -> MLEReport:
    """Maximize the average log-likelihood of the square-root model on
    a daily spot series.

    Runs one quasi-Newton search (BFGS, numpy only) in log-parameter
    space from the moment start (:func:`initial_guess_from_moments`),
    inside the box ``MLE_BOUNDS``, on the likelihood and its analytic
    score.  Its inverse Hessian starts from forward differences of the
    score at the start (three more calls; a scaled identity where they
    are not positive definite), and each trial point is clipped into
    the box and halved back to the Armijo condition.  It stops when no
    score entry exceeds 1e-8, when a step lowers the negative average
    log-likelihood by at most 1e-13 of its size, when its line search
    cannot lower it (20 halvings, or a trial that moves the value by no
    more than that: near the maximum, at the objective's rounding), or
    after ``MLE_MAX_ITER`` iterations.  Its end point is the fit when it
    lies off the box and no entry of the score there exceeds 1e-6.
    Both searches only accept points that raise the likelihood, so the
    fit is never below the start's.

    On a degenerate series (a near-constant spot, where the order q is
    1e9 or more) the likelihood's terms cancel and the score loses its
    precision: the search may stop where the score is not small, or on
    the box short of the optimum.  Then the adaptive simplex (scipy's
    Nelder-Mead, clipping every vertex into the box; the only call that
    imports scipy.optimize) runs from the moment start too, and the
    better of the two end points is kept (``simplex_fallback``).
    ``iterations`` and ``evaluations`` count both searches: the
    gradient search's steps and value-and-score calls, the start's four
    included, plus any simplex iterations and evaluations.

    ``at_bound`` is True when a parameter ends within 1e-6 (relative)
    of its bound: the likelihood rises towards a face of the box, and
    the series does not pin that parameter inside it.  ``converged`` is
    True when the kept end point passed its search's test (the score
    test above, or the simplex's tolerances within ``MLE_MAX_ITER``
    iterations) and the fit is not ``at_bound``.

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
    init = initial_guess_from_moments(series)
    z0 = np.log([init.mu, init.theta, init.sigma])
    args = (series[1:], np.log(series[1:]), series[:-1])
    bounds = np.log(MLE_BOUNDS)
    z, f, g, iterations, evaluations = _bfgs_in_box(
        lambda z: _neg_avg_loglik_and_score(z, *args), z0, bounds
    )
    converged = np.max(np.abs(g)) <= _STATIONARY and not _at_bound(z)
    fallback = not converged
    if fallback:
        from scipy.optimize import minimize

        simplex = minimize(
            _neg_avg_loglik,
            z0,
            args=args,
            method="Nelder-Mead",
            bounds=bounds,
            options={"maxiter": MLE_MAX_ITER, "xatol": 1e-8, "fatol": 1e-12, "adaptive": True},
        )
        iterations += simplex.nit
        evaluations += simplex.nfev
        if simplex.fun <= f:
            z, f, converged = simplex.x, simplex.fun, simplex.success
    mu, theta, sigma = np.exp(z)
    at_bound = _at_bound(z)
    return MLEReport(
        params=HistoricalParams(mu=float(mu), theta=float(theta), sigma=float(sigma)),
        avg_loglik=-float(f),
        iterations=int(iterations),
        evaluations=int(evaluations),
        converged=bool(converged and not at_bound),
        at_bound=at_bound,
        simplex_fallback=fallback,
    )


def _at_bound(z) -> bool:
    # a log-parameter within 1e-6 (relative) of a face of MLE_BOUNDS
    return any(
        v / lo < 1.0 + 1e-6 or v / hi > 1.0 - 1e-6
        for v, (lo, hi) in zip(np.exp(z), MLE_BOUNDS)
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
    pricing error, by variable projection on per-maturity sums.

    With e = e^(-mu_tilde T) and a = 1 - e, quote i's error is
    s_i e + theta_tilde a - f_i, so the quotes of one maturity T enter
    the loss only through their weight sum W, their weighted mean spot
    s and price f, the spread S_ss = sum w (s_i - s)^2 and, with
    b = S_sf / S_ss (0 where S_ss = 0), the residual
    R = sum w ((f_i - f) - b (s_i - s))^2:

        sum_i w (s_i e + theta_tilde a - f_i)^2
            = W gap^2 + S_ss (e - b)^2 + R,   gap = futures_price(s, T) - f,

    three terms that are never negative, so none cancels.  The quotes
    are grouped by maturity once; every later step is one pass over the
    maturities.  For fixed mu_tilde the loss is a convex quadratic in
    theta_tilde whose minimizer over the box (1e-6, 1e4) is
    sum W a (f - s e) / sum W a^2, clipped.  What is left is a
    one-dimensional search in log mu_tilde over (1e-6, 1e3) of that
    profile: a coarse log grid of 37 points brackets the best minimum,
    guarding against others, and the MLE's BFGS search refines it
    between the grid point's neighbours, from the grid point.  The
    profile's slope in log mu_tilde,
    -mu_tilde sum T e 2 (W gap (s - theta_tilde) + S_ss (e - b)), is
    the loss's partial derivative at fixed theta_tilde, since
    theta_tilde is either stationary or clipped (Golub & Pereyra,
    1973).  The search sees the profile and its slope divided by the
    grid minimum, so that its stop rules are scale-free; where that
    minimum is 0 the grid point fits exactly and is kept.  The search
    only accepts points that lower the loss, so the fit is never above
    the grid's.  The reported loss is :func:`mom_loss`, quote by quote.
    ``at_bound`` is True when theta_tilde is clipped to 1e-6 or 1e4 or
    the grid's best point is its first or last: the quotes do not pin
    down both parameters inside their ranges.
    Deterministic given the observations, the per-quote arrays of
    :meth:`PricePanel.observations`.

    Raises
    ------
    CalibrationError
        If the loss surface cannot identify both parameters (a single
        maturity observed at a single spot level).
    """
    spots, ttms, prices, weights = observations
    mats, first, group = np.unique(ttms, return_index=True, return_inverse=True)
    if np.unique(np.round(mats, 12)).size < 2 and np.unique(spots).size < 2:
        raise CalibrationError(
            "unidentifiable: one maturity at one spot level cannot pin down "
            "both mean-reversion parameters"
        )
    total = lambda x: np.bincount(group, x, mats.size)
    w_sum = total(weights)
    # each maturity's weighted means, taken about its first quote: where
    # its quotes share a spot (or a price) that is their mean exactly, and
    # S_ss = 0 (or R = 0), which a plain weighted mean misses by rounding
    mean = lambda x: x[first] + total(weights * (x - x[first][group])) / w_sum
    s_bar, f_bar = mean(spots), mean(prices)
    ds, df = spots - s_bar[group], prices - f_bar[group]
    s_ss = total(weights * ds * ds)
    b = np.divide(total(weights * ds * df), s_ss, out=np.zeros_like(s_ss), where=s_ss > 0)
    rest = np.sum(weights * (df - b[group] * ds) ** 2)

    def projected(log_mu: float):
        # the clipped best theta_tilde at mu_tilde = e^log_mu, and e by maturity
        e = np.exp(-math.exp(log_mu) * mats)
        a = 1.0 - e
        wa = w_sum * a
        theta = (wa @ (f_bar - s_bar * e)) / (wa @ a)
        return RiskNeutralParams(math.exp(log_mu), min(max(float(theta), 1e-6), 1e4)), e

    def profile(log_mu: float):
        # the loss at the projected theta_tilde and its slope in log mu_tilde
        rn, e = projected(log_mu)
        gap = futures_price(s_bar, mats, rn) - f_bar
        off = e - b
        value = w_sum @ gap**2 + s_ss @ off**2 + rest
        by_mat = w_sum * gap * (s_bar - rn.theta_tilde) + s_ss * off
        return value, -2.0 * rn.mu_tilde * ((mats * e) @ by_mat)

    def scaled_profile(z):
        value, slope = profile(z[0])
        return value / values[k], np.array([slope / values[k]])

    grid = np.linspace(math.log(1e-6), math.log(1e3), 37).tolist()
    values = [profile(z)[0] for z in grid]
    k = int(np.argmin(values))
    log_mu = grid[k]
    if values[k] > 0:  # else the grid point fits exactly
        bracket = np.array([[grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]]])
        log_mu = _bfgs_in_box(scaled_profile, np.array([log_mu]), bracket)[0][0]
    rn = projected(log_mu)[0]
    at_bound = k in (0, len(grid) - 1) or rn.theta_tilde in (1e-6, 1e4)
    return MOMReport(params=rn, loss=mom_loss(rn, observations), at_bound=at_bound)
