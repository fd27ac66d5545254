"""Independent oracles the tests check the library against.

Everything here deliberately avoids the code paths under test: the
rolled-series and two-contract strategy oracles are per-day loops over
their own rank and quote lookups, the weight and moment-fit oracles
are brute-force grid scans, the one-day tracking error has its exact
discrete-time coefficients, the constrained LS oracle is a dense bordered KKT solve, and the
special-function oracles come from mpmath at 40 significant digits.
"""

import math

import numpy as np

from vixtrack import DataError, b_coefficient, market_price_of_risk

# One trading day in years, the step of every daily grid.
DT = 1.0 / 252.0


def rank_column(panel, day, rank):
    """Column of the ``rank``-th contract with ttm > 0 on ``day``."""
    live = [i for i, ttm in enumerate(panel.ttms[day]) if ttm > 0]
    if not 1 <= rank <= len(live):
        raise DataError(f"rank {rank} not available on day {day}")
    return live[rank - 1]


def quote(panel, day, column):
    """Price of ``column`` on ``day``, or None when it has no quote."""
    px = float(panel.prices[day, column])
    return None if np.isnan(px) else px


def rolled_series_loop(panel, rank):
    """Day-by-day reference for ``build_rolled_series``.

    Walks the panel one day at a time through its own rank and quote
    lookups (``rank_column``, ``quote``), marking the held contract and
    rolling when the rank moves off it or its quotes stop before
    settlement.  The contract rolled into must be the next one by
    expiry, which is the next column of the panel.
    """
    n = panel.n_days
    values = np.empty(n)
    values[0] = 100.0
    held = rank_column(panel, 0, rank)
    units = 100.0 / quote(panel, 0, held)
    for j in range(n):
        if j > 0:
            px = quote(panel, j, held)
            if px is None:
                raise DataError(f"held contract {held} has no quote on day {j}")
            values[j] = units * px
        if j == n - 1:
            break
        current = rank_column(panel, j, rank)
        target = None
        if current != held:
            if current != held + 1:
                raise DataError(f"rank {rank} jumped to {current} on day {j}")
            target = current
        elif quote(panel, j + 1, held) is None:
            if float(panel.ttms[j, held]) > 3.0 / 252.0:
                raise DataError(f"held contract {held} stops far from settlement")
            target = held + 1
        if target is not None:
            px = None if target == panel.contracts.size else quote(panel, j, target)
            if px is None:
                raise DataError(f"roll target {target} has no quote on day {j}")
            units = values[j] / px
            held = target
    return values


def strategy_loop(panel, rule, mkt):
    """Day-by-day reference for the two-contract trackers' wealth.

    On each day ``j`` but the last, ``rule(panel, j)`` returns
    ``{column: weight}`` for the contracts held over j -> j+1, and
    wealth moves by the sequential self-financing update
    x' = x e^(r dt) + sum_i (w_i x / f_i)(f_i' - f_i) from x = 100.
    Returns the wealth series and the per-day rule outputs.
    """
    wealth = [100.0]
    held = []
    for j in range(panel.n_days - 1):
        weights = rule(panel, j)
        x = wealth[-1]
        pnl = sum(
            w * x / panel.prices[j, c] * (panel.prices[j + 1, c] - panel.prices[j, c])
            for c, w in weights.items()
        )
        wealth.append(x * math.exp(mkt.r * DT) + pnl)
        held.append(weights)
    return np.array(wealth), held


def dynamic_rule(cfg, hist, rn, g, mkt):
    """Per-day optimal tracker weights from the scalar formulas: the
    market price of risk lambda times each contract's shock loading B,
    for ranks ``cfg.i1`` (w*) and ``cfg.i2`` (1 - w*)."""

    def rule(panel, day):
        c1, c2 = rank_column(panel, day, cfg.i1), rank_column(panel, day, cfg.i2)
        spot = float(panel.spot[day])
        g_val = g(spot)
        b1 = float(b_coefficient(spot, float(panel.ttms[day, c1]), rn, g_val))
        b2 = float(b_coefficient(spot, float(panel.ttms[day, c2]), rn, g_val))
        lam = market_price_of_risk(spot, hist, rn, g)
        a0 = (
            math.expm1(mkt.r * DT)
            + DT * lam * b2
            - cfg.beta * hist.mu * DT * (hist.theta / spot - 1.0)
        )
        a1 = DT * lam * (b1 - b2)
        n0 = math.sqrt(DT) * (b2 - cfg.beta * g_val / spot)
        n1 = math.sqrt(DT) * (b1 - b2)
        w = -(a0 * a1 + n0 * n1) / (a1 ** 2 + n1 ** 2)
        return {c1: w, c2: 1.0 - w}

    return rule


def vxx_rule(panel, day, cycle_length=21, dt=DT):
    """Linear roll on a fixed cycle: the front weight is 1 minus the
    elapsed fraction of the cycle, read off the front's days to expiry."""
    c1, c2 = rank_column(panel, day, 1), rank_column(panel, day, 2)
    to_expiry = round(float(panel.ttms[day, c1]) / dt)
    w1 = 1.0 - (cycle_length - to_expiry) / cycle_length
    return {c1: w1, c2: 1.0 - w1}


def exact_one_day_coefficients(spot, t1, t2, beta, r, hist, rn, g_val):
    """Exact (A0, A1, N0, N1) of the discrete-time one-day tracking
    error A0 + A1 w + (N0 + N1 w) z, for weight w on the contract with
    ttm ``t1`` and 1 - w on the one with ttm ``t2``.

    Tomorrow's index is one Euler step S' = S + mu (theta - S) dt +
    g(S) sqrt(dt) z, and tomorrow's futures price is affine in S' with
    slope E_i = e^(-mu_tilde (T_i - dt)), so contract i returns
    f_i'/f_i - 1 = a_i + b_i z with
    a_i = (theta_tilde + (S + mu (theta - S) dt - theta_tilde) E_i - f_i) / f_i
    and b_i = g(S) sqrt(dt) E_i / f_i.  Subtracting beta times the index
    return gives A0 = expm1(r dt) + a_2 - beta mu (theta - S) dt / S,
    A1 = a_1 - a_2, N0 = b_2 - beta g(S) sqrt(dt) / S, N1 = b_1 - b_2.
    """
    drift = hist.mu * (hist.theta - spot) * DT
    a, b = [], []
    for ttm in (t1, t2):
        e = math.exp(-rn.mu_tilde * (ttm - DT))
        f = (spot - rn.theta_tilde) * math.exp(-rn.mu_tilde * ttm) + rn.theta_tilde
        a.append((rn.theta_tilde + (spot + drift - rn.theta_tilde) * e - f) / f)
        b.append(g_val * math.sqrt(DT) * e / f)
    a0 = math.expm1(r * DT) + a[1] - beta * drift / spot
    n0 = b[1] - beta * g_val * math.sqrt(DT) / spot
    return a0, a[0] - a[1], n0, b[0] - b[1]


def grid_min_weight(c, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force minimizer of (a0+a1 w)^2 + (n0+n1 w)^2 over a grid."""
    w = np.arange(lo, hi + step / 2, step)
    vals = (c.alpha0 + c.alpha1 * w) ** 2 + (c.nu0 + c.nu1 * w) ** 2
    k = int(np.argmin(vals))
    return float(w[k]), float(vals[k])


def kkt_weights(columns, target):
    """Solve min ||C w - d||^2 s.t. sum(w)=1 via the dense bordered
    (indefinite) KKT system."""
    c = np.asarray(columns, dtype=float)
    d = np.asarray(target, dtype=float)
    k = c.shape[1]
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = 2.0 * c.T @ c
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    rhs = np.concatenate([2.0 * c.T @ d, [1.0]])
    return np.linalg.solve(system, rhs)[:k]


def mp_log_i_half_integer(n_half: int, x: float) -> float:
    """ln I_{n_half + 1/2}(x) from the terminating closed forms, in
    40-digit arithmetic."""
    from mpmath import mp, mpf, sqrt, pi, sinh, cosh, log

    mp.dps = 40
    xm = mpf(repr(float(x)))
    pref = sqrt(2 / (pi * xm))
    if n_half == 0:
        val = pref * sinh(xm)
    elif n_half == 1:
        val = pref * (cosh(xm) - sinh(xm) / xm)
    elif n_half == 2:
        val = pref * ((1 + 3 / xm**2) * sinh(xm) - 3 * cosh(xm) / xm)
    else:
        raise ValueError("closed forms wired up for orders 1/2, 3/2, 5/2 only")
    return float(log(val))


def mp_log_i(order: float, x: float) -> float:
    """ln I_order(x) from mpmath's series, in 40-digit arithmetic."""
    from mpmath import mp, mpf, besseli, log

    mp.dps = 40
    return float(log(besseli(mpf(order), mpf(repr(float(x))), maxterms=10**7)))


def grid_min_mom_loss(observations, mu_grid, theta_grid):
    """Brute-force scan of the moment-fit loss over a (mu_tilde,
    theta_tilde) grid: (mu index, theta index, loss) of its minimum.

    The loss is summed day by day from the raw (spot, quotes) pairs,
    each day's squared errors weighted 1/(2 N_j n)."""
    n = len(observations)
    mu = np.asarray(mu_grid, dtype=float)[:, None, None]
    theta = np.asarray(theta_grid, dtype=float)[None, :, None]
    loss = np.zeros((mu.size, theta.size))
    for spot, quotes in observations:
        ttm, price = (np.array(v, dtype=float) for v in zip(*quotes))
        fitted = (spot - theta) * np.exp(-mu * ttm) + theta
        loss += np.sum((fitted - price) ** 2, axis=2) / (2.0 * len(quotes) * n)
    i, k = np.unravel_index(int(np.argmin(loss)), loss.shape)
    return int(i), int(k), float(loss[i, k])


# ln I_9.068(500) by 40-digit quadrature of the integral representation
#   I_q(x) = (1/pi) int_0^pi e^{x cos t} cos(q t) dt
#            - sin(q pi)/pi int_0^inf e^{-x cosh s - q s} ds
# (regen: tests/test_calibrate.py::test_log_bessel_quadrature_oracle)
LOG_I_9068_500 = 495.89169890396747417

# Extended-precision closed-form evaluations at the fitted parameter
# point (mu, theta, sigma) = (10.86, 18.81, 6.37),
# (mu_tilde, theta_tilde) = (1.39, 26.03):
FUTURES_PRICE_1M_LOW_SPOT = 19.59969725997370895  # spot 18.81, ttm 1/12
LAMBDA_AT_THETA = -0.36326049275076672053  # spot = theta
B_COEFF_21D = 1.2553900708401820453  # spot 18.81, ttm 21/252, g = 6.37*sqrt(18.81)
CRITICAL_SPOT_R005 = 25.126093998856853529  # beta 1, r 0.05, dt 1/252
FELLER_ORDER = 9.0686153944732101269  # 2*mu*theta/sigma^2 - 1

# Tracking coefficients at day 0, spot = theta, ranks (1, 2), beta = 1,
# r = 0.01 on the 21-day monthly grid:
COEFFS_DAY0 = (
    -0.0015162079748142536196,  # alpha0
    -0.00025376590340995877833,  # alpha1
    -0.024529393063679174755,  # nu0
    0.011089586977646441495,  # nu1
)
W_STAR_DAY0 = 2.2076455645492047569
