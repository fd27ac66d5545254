import numpy as np
import pytest

from vixtrack import (
    HistoricalParams,
    LocalVol,
    RiskNeutralParams,
    build_rolled_series,
)
from vixtrack.simulate import IndexPath

from oracles import euler_path_loop, futures_panel_from_path

# Fitted parameter set used throughout as a realistic operating point.
FIT_HIST = HistoricalParams(mu=10.86, theta=18.81, sigma=6.37)
FIT_RN = RiskNeutralParams(mu_tilde=1.39, theta_tilde=26.03)


@pytest.fixture
def fit_hist():
    return FIT_HIST


@pytest.fixture
def fit_rn():
    return FIT_RN


@pytest.fixture
def fit_g():
    return LocalVol.square_root(FIT_HIST.sigma)


def make_sim_panels(
    cycles=3,
    seed=11,
    s0=None,
    hist=FIT_HIST,
    rn=FIT_RN,
    r=0.01,
    sigma=None,
    extra_contracts=1,
):
    """Simulated panel of ``cycles + extra_contracts`` monthly contracts
    over whole cycles at rate ``r``, with its local volatility and index
    path."""
    g = LocalVol.square_root(hist.sigma if sigma is None else sigma)
    s0 = hist.theta if s0 is None else s0
    path = IndexPath(*euler_path_loop(hist, g, s0, cycles * 21, seed))
    return futures_panel_from_path(path.values, cycles + extra_contracts, rn, r), g, path


def grid_panel(price_fn, n_days, spacing=21, n_contracts=None, r=0.0, spot=None):
    """Hand-built panel on an expiry grid: contract k expires on day
    spacing*k and is priced by price_fn(day, contract_index)."""
    from vixtrack import PricePanel

    if n_contracts is None:
        n_contracts = n_days // spacing + 6
    expiries = np.array([spacing * k for k in range(1, n_contracts + 1)])
    days = np.arange(n_days)
    ttms = (expiries[None, :] - days[:, None]) / 252.0
    ttms[ttms < 0] = np.nan
    prices = np.array(
        [
            [price_fn(j, k) if e >= j else np.nan for k, e in enumerate(expiries)]
            for j in range(n_days)
        ]
    )
    return PricePanel(
        dates=days,
        spot=np.full(n_days, 20.0) if spot is None else np.asarray(spot, float),
        contracts=np.array([f"K{k:02d}" for k in range(1, n_contracts + 1)]),
        prices=prices,
        ttms=ttms,
        mm_value=np.exp(r * days / 252.0),
    )


def rolled(panel, *ranks):
    """Rolled series of ``ranks`` over the whole panel."""
    return [build_rolled_series(panel, rank) for rank in ranks]


def weekday_dates(start="2021-01-04", n=10):
    """n consecutive weekdays from start (start must be a weekday)."""
    out = []
    d = np.datetime64(start, "D")
    while len(out) < n:
        if np.is_busday(d):
            out.append(d)
        d += np.timedelta64(1, "D")
    return out


def write_quote_files(
    data_dir,
    n_days=120,
    seed=3,
    hist=FIT_HIST,
    rn=FIT_RN,
    rate=0.005,
    start="2021-01-04",
    drop_futures_on=(),
    drop_rank=1,
):
    """Synthetic quote files: simulated spot, model-priced futures on a
    21-trading-day expiry grid, constant overnight rate.

    Returns the list of panel dates.  ``drop_futures_on`` removes the
    close of the live contract of rank ``drop_rank`` (by default the
    front contract) on the given day indices (to exercise the
    alignment/drop logic).
    """
    data_dir.mkdir(parents=True, exist_ok=True)
    n_contracts = n_days // 21 + 9
    dates = weekday_dates(start, n_days + 21 * n_contracts)
    g = LocalVol.square_root(hist.sigma)
    spot, _ = euler_path_loop(hist, g, hist.theta, n_days - 1, seed)

    spot_lines = ["date,code,field,value"]
    for j in range(n_days):
        spot_lines.append(f"{dates[j]},VIX,close,{float(spot[j])!r}")
    (data_dir / "spot.csv").write_text("\n".join(spot_lines) + "\n")

    fut_lines = ["date,code,field,value"]
    expiry_idx = {f"F{k:02d}": 21 * k for k in range(1, n_contracts + 1)}
    for code, e in expiry_idx.items():
        fut_lines.append(f"{dates[e]},{code},expiry,")
    for j in range(n_days):
        for code, e in expiry_idx.items():
            if e < j:
                continue
            live_rank = sum(1 for e2 in expiry_idx.values() if j < e2 <= e)
            if e > j and live_rank > 8:
                continue
            if e == j or (e > j and live_rank >= 1):
                if j in drop_futures_on and live_rank == drop_rank:
                    continue
                ttm = (e - j) / 252.0
                price = (spot[j] - rn.theta_tilde) * np.exp(
                    -rn.mu_tilde * ttm
                ) + rn.theta_tilde
                fut_lines.append(f"{dates[j]},{code},close,{float(price)!r}")
    (data_dir / "futures.csv").write_text("\n".join(fut_lines) + "\n")

    rate_lines = ["date,code,field,value"]
    for j in range(n_days):
        rate_lines.append(f"{dates[j]},ON,rate,{float(rate)!r}")
    (data_dir / "rates.csv").write_text("\n".join(rate_lines) + "\n")
    return [dates[j] for j in range(n_days)]
