"""Batch command-line front end.

Subcommands: ``calibrate``, ``backtest-static``, ``simulate``,
``regress``.  Every run writes its artifacts plus a ``manifest.txt``
(subcommand, config snapshot, seed, input digests, output paths,
timings) into the output directory; the manifest is written last, so
its absence marks a failed run.  All files are plain text and written
atomically.

Exit codes: 0 success, 2 data error, 3 calibration failure,
4 degenerate optimization.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    holding_period_returns,
    intercept_curve,
    ols_regression,
    scatter_report,
    slope_table,
)
from .calibrate import mle_fit, mom_fit
from .data import load_panel
from .dynamic import TrackingConfig, dynamic_weights
from .errors import CalibrationError, DataError, DegenerateProblemError
from .model import (
    CYCLE_DAYS,
    HistoricalParams,
    LocalVol,
    MarketConfig,
    RiskNeutralParams,
)
from .simulate import (
    futures_panel_from_path,
    hold_pair,
    simulate_index_path,
    vxx_front_weights,
)
from .static import (
    build_rolled_series,
    price_tracking_portfolio,
    results_table,
    return_tracking_portfolio,
)

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CALIBRATION = 3
EXIT_DEGENERATE = 4

DEFAULT_SUBSET_POOL = (1, 2, 6, 7)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


class RunManifest:
    """Key-value record of one run; reruns with identical manifests
    (timings aside) produce byte-identical outputs."""

    def __init__(self, subcommand: str):
        self.subcommand = subcommand
        self.config: dict = {}
        self.inputs: dict = {}
        self.outputs: list = []
        self.started = time.perf_counter()

    def add_input(self, label: str, path: Path) -> None:
        self.inputs[label] = _sha256(path)

    def write(self, out_dir: Path) -> None:
        lines = [
            f"subcommand={self.subcommand}",
            f"version={__version__}",
        ]
        lines += [f"config.{k}={v}" for k, v in sorted(self.config.items())]
        lines += [f"input.{k}.sha256={v}" for k, v in sorted(self.inputs.items())]
        lines += [f"output.{i}={p}" for i, p in enumerate(self.outputs)]
        lines.append(f"elapsed_seconds={time.perf_counter() - self.started:.3f}")
        _write_atomic(out_dir / "manifest.txt", "\n".join(lines) + "\n")


def _emit(manifest: RunManifest, out_dir: Path, name: str, text: str) -> None:
    _write_atomic(out_dir / name, text)
    manifest.outputs.append(name)


def write_params_file(
    path: Path, hist: HistoricalParams, rn: RiskNeutralParams, diagnostics: dict
) -> None:
    lines = [
        f"mu={hist.mu!r}",
        f"theta={hist.theta!r}",
        f"sigma={hist.sigma!r}",
        f"mu_tilde={rn.mu_tilde!r}",
        f"theta_tilde={rn.theta_tilde!r}",
    ]
    lines += [f"{k}={v}" for k, v in diagnostics.items()]
    _write_atomic(path, "\n".join(lines) + "\n")


def _read_key_values(path: Path, kind: str) -> dict:
    """key -> (value, line number) of a key=value file; blank lines and
    lines starting with # are skipped."""
    if not path.exists():
        raise DataError(f"{kind} {path} not found")
    kv = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{kind} {path} line {n}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = (v.strip(), n)
    return kv


def _parse(parse, text: str, where: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{where}: cannot parse {text!r}: {exc}") from None


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _rank_pair(text: str) -> tuple:
    ranks = _ints(text)
    if len(ranks) != 2:
        raise ValueError(f"need two ranks I1,I2, got {len(ranks)}")
    return ranks


def _window(text: str) -> tuple:
    dates = tuple(np.datetime64(d, "D") for d in text.split(":"))
    if len(dates) != 2 or np.isnat(dates).any():
        raise ValueError("need START:END dates")
    return dates


def read_params_file(path) -> tuple:
    """Parse a calibrate-emitted parameter file into (hist, rn, extras)."""
    path = Path(path)
    kv = _read_key_values(path, "parameter file")
    values = {}
    for key in ("mu", "theta", "sigma", "mu_tilde", "theta_tilde"):
        if key not in kv:
            raise DataError(f"parameter file {path} missing key '{key}'")
        text, n = kv.pop(key)
        values[key] = _parse(float, text, f"parameter file {path} line {n}, key {key}")
    hist = HistoricalParams(values["mu"], values["theta"], values["sigma"])
    rn = RiskNeutralParams(values["mu_tilde"], values["theta_tilde"])
    return hist, rn, {k: v for k, (v, _) in kv.items()}


_SCENARIO_KEYS = {
    "beta": float,
    "cycles": int,
    "seed": int,
    "r": float,
    "contracts": _rank_pair,
    "s0_multipliers": lambda text: tuple(float(v) for v in text.split(",")),
}


def read_scenario_config(path) -> dict:
    """Plain-text key=value scenario file for the simulate subcommand.

    Every key is one of ``_SCENARIO_KEYS`` and is parsed by its rule
    (``contracts`` into a rank pair, ``s0_multipliers`` into a tuple).

    Raises
    ------
    DataError
        Naming the file, line and key of an unknown key or of a value
        that does not parse.
    """
    path = Path(path)
    cfg = {}
    for key, (text, n) in _read_key_values(path, "scenario config").items():
        where = f"scenario config {path} line {n}, key {key}"
        if key not in _SCENARIO_KEYS:
            raise DataError(f"{where}: unknown key; known keys are {', '.join(_SCENARIO_KEYS)}")
        cfg[key] = _parse(_SCENARIO_KEYS[key], text, where)
    return cfg


def _load_quotes(args, manifest: RunManifest):
    """Record the data flags and the quote files' digests, then load
    the panel."""
    window = None if args.window is None else _parse(_window, args.window, "--window")
    manifest.config.update(
        {"data_dir": args.data_dir, "window": args.window or "all", "n_ranks": args.n_ranks}
    )
    data_dir = Path(args.data_dir)
    for name in ("spot.csv", "futures.csv", "rates.csv"):
        p = data_dir / name
        if p.exists():
            manifest.add_input(name, p)
    return load_panel(data_dir, window=window, n_ranks=args.n_ranks)


def cmd_calibrate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("calibrate")
    panel = _load_quotes(args, manifest)
    mle = mle_fit(panel.spot)
    mom = mom_fit(panel.observations())
    diagnostics = {
        "mle_avg_loglik": repr(mle.avg_loglik),
        "mle_iterations": mle.iterations,
        "mle_converged": str(mle.converged).lower(),
        "mle_at_bound": str(mle.at_bound).lower(),
        "mom_loss": repr(mom.loss),
        "n_days": panel.n_days,
        "n_dropped": panel.n_dropped,
    }
    write_params_file(out_dir / "params.txt", mle.params, mom.params, diagnostics)
    manifest.outputs.append("params.txt")
    if not mle.converged:
        manifest.config["warning"] = "mle_not_converged"
    manifest.write(out_dir)
    print(
        f"calibrated: mu={mle.params.mu:.4f} theta={mle.params.theta:.4f} "
        f"sigma={mle.params.sigma:.4f} mu_tilde={mom.params.mu_tilde:.4f} "
        f"theta_tilde={mom.params.theta_tilde:.4f}"
    )
    return EXIT_CALIBRATION if mle.at_bound else EXIT_OK


def _parse_subsets(text):
    if not text:
        pool = DEFAULT_SUBSET_POOL
        subsets = []
        for r in range(1, len(pool) + 1):
            subsets.extend(itertools.combinations(pool, r))
        return subsets
    return _parse(lambda t: [_ints(part) for part in t.split(";")], text, "--subsets")


def cmd_backtest_static(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("backtest-static")
    manifest.config.update(
        {"split": args.split, "mode": args.mode, "subsets": args.subsets or "default-15"}
    )
    subsets = _parse_subsets(args.subsets)
    boundary = _parse(lambda t: np.datetime64(t, "D"), args.split, "--split")
    panel = _load_quotes(args, manifest)
    fit = (
        price_tracking_portfolio if args.mode == "price" else return_tracking_portfolio
    )
    # each rank is rolled once over the whole panel; a rank that cannot
    # be built fails every subset holding it, with the build's message
    rolled, unbuilt = {}, {}
    for rank in dict.fromkeys(r for subset in subsets for r in subset):
        try:
            rolled[rank] = build_rolled_series(panel, rank)
        except (DataError, ValueError) as exc:
            unbuilt[rank] = str(exc)
    results = {}
    n_failed = 0
    for subset in subsets:
        label = ",".join(f"{r}-m" for r in subset)
        error = next((unbuilt[r] for r in subset if r in unbuilt), None)
        if error is None:
            try:
                results[label] = fit(panel, [rolled[r] for r in subset], boundary)
            except (DegenerateProblemError, DataError, ValueError) as exc:
                error = str(exc)
        if error is not None:
            results[label] = error
            n_failed += 1
            print(f"subset {label} failed: {error}", file=sys.stderr)
    name = f"static_{args.mode}.tsv"
    _emit(manifest, out_dir, name, results_table(results))
    manifest.config["n_failed_subsets"] = n_failed
    manifest.write(out_dir)
    print(f"fitted {len(results) - n_failed}/{len(results)} subsets -> {out_dir / name}")
    return EXIT_OK


def _scenario_label(mult: float) -> str:
    return f"s0_{mult:g}x".replace(".", "p")


def cmd_simulate(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("simulate")
    cfg = {}
    if args.scenario:
        cfg = read_scenario_config(args.scenario)
        manifest.add_input("scenario", Path(args.scenario))
    hist, rn, _ = read_params_file(args.params)
    manifest.add_input("params", Path(args.params))
    beta = args.beta if args.beta is not None else cfg.get("beta", 1.0)
    cycles = args.cycles if args.cycles is not None else cfg.get("cycles", 3)
    seed = args.seed if args.seed is not None else cfg.get("seed", 1)
    r = cfg.get("r", 0.01)
    i1, i2 = (
        _parse(_rank_pair, args.contracts, "--contracts")
        if args.contracts
        else cfg.get("contracts", (1, 2))
    )
    mults = cfg.get("s0_multipliers", (1.0, 1.0 / 3.0, 3.0))
    manifest.config.update(
        {
            "beta": beta,
            "cycles": cycles,
            "seed": seed,
            "r": r,
            "contracts": f"{i1},{i2}",
            "s0_multipliers": ",".join(f"{m:g}" for m in mults),
            "params": args.params,
        }
    )

    mkt = MarketConfig(r=r)
    g = LocalVol.square_root(hist.sigma)
    tracking = TrackingConfig(beta=beta, i1=i1, i2=i2)
    n_days = cycles * CYCLE_DAYS
    # enough contracts that both ranks trade on the last day
    n_contracts = cycles + max(i1, i2, 2) - 1
    children = np.random.SeedSequence(seed).spawn(len(mults))
    for mult, child in zip(mults, children):
        s0 = mult * hist.theta
        path = simulate_index_path(hist, g, s0, n_days, child)
        panel = futures_panel_from_path(path, n_contracts, rn, mkt)
        w_dyn = dynamic_weights(panel, tracking, hist, rn, g, mkt)
        dyn = hold_pair(panel, (i1, i2), w_dyn, mkt)
        vxx = hold_pair(panel, (1, 2), vxx_front_weights(panel), mkt)
        label = _scenario_label(mult)
        index_norm = 100.0 * path.values / path.values[0]
        lines = ["day\tindex\tvxx\tdynamic"]
        columns = zip(index_norm.tolist(), vxx.wealth.tolist(), dyn.wealth.tolist())
        for j, (idx, v, d) in enumerate(columns):
            lines.append(f"{j}\t{idx!r}\t{v!r}\t{d!r}")
        _emit(manifest, out_dir, f"wealth_{label}.tsv", "\n".join(lines) + "\n")

        # the dynamic pair's weight on the front contract, 0 when it holds none
        front = dyn.weights[:, (i1, i2).index(1)] if 1 in (i1, i2) else np.zeros(n_days)
        lines = ["day\tdynamic_w1\tvxx_w1"]
        for j, (d, v) in enumerate(zip(front.tolist(), vxx.weights[:, 0].tolist())):
            lines.append(f"{j}\t{d!r}\t{v!r}")
        _emit(manifest, out_dir, f"weights_{label}.tsv", "\n".join(lines) + "\n")

        idx_ret = path.values[1:] / path.values[:-1] - 1.0
        rows = ["portfolio\tslope\tslope_se\tintercept\tintercept_se\tr2\tp_slope_eq_1\tmax_abs_weight"]
        for name, port in (("dynamic", dyn), ("vxx", vxx)):
            rep = scatter_report(port.returns, idx_ret)
            reg = rep.regression
            max_w = float(np.max(np.abs(port.weights)))
            rows.append(
                f"{name}\t{reg.slope:.6f}\t{reg.slope_se:.3e}\t{reg.intercept:.3e}"
                f"\t{reg.intercept_se:.3e}\t{reg.r2:.6f}\t{rep.slope_one_p:.3e}"
                f"\t{max_w:.4f}"
            )
        _emit(manifest, out_dir, f"scatter_{label}.tsv", "\n".join(rows) + "\n")

        pairs = ["index_return\tportfolio_return"]
        pairs += [f"{x!r}\t{y!r}" for x, y in zip(idx_ret.tolist(), dyn.returns.tolist())]
        _emit(manifest, out_dir, f"scatter_points_{label}.tsv", "\n".join(pairs) + "\n")
    manifest.write(out_dir)
    print(f"simulated {len(mults)} scenarios over {cycles} cycles -> {out_dir}")
    return EXIT_OK


def cmd_regress(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("regress")
    manifest.config.update(
        {"horizons": args.horizons, "ranks": args.ranks, "max_horizon": args.max_horizon}
    )
    ranks = _parse(_ints, args.ranks, "--ranks")
    horizons = _parse(_ints, args.horizons, "--horizons")
    panel = _load_quotes(args, manifest)

    rolled = [build_rolled_series(panel, rank) for rank in ranks]
    x = holding_period_returns(panel.spot, 1)
    daily = [holding_period_returns(series.values, 1) for series in rolled]
    fits = [ols_regression(x, y) for y in daily]
    lines = ["futures\tslope\tintercept\tslope_se\tintercept_se\tr2\trmse\tn"]
    for rank, res in zip(ranks, fits):
        lines.append(
            f"{rank}-m\t{res.slope:.4f}\t{res.intercept:.3e}\t{res.slope_se:.3e}"
            f"\t{res.intercept_se:.3e}\t{res.r2:.4f}\t{res.rmse:.4f}\t{res.n}"
        )
    _emit(manifest, out_dir, "one_day_regressions.tsv", "\n".join(lines) + "\n")

    table = slope_table(panel.spot, rolled, horizons)
    _emit(manifest, out_dir, "holding_period_table.tsv", table.to_text())

    for series in rolled[:3]:
        curve = intercept_curve(panel.spot, series, range(1, args.max_horizon + 1))
        lines = ["horizon\tintercept\tintercept_se"]
        lines += [
            f"{h}\t{a!r}\t{s!r}"
            for h, a, s in zip(
                curve.horizons, curve.intercepts.tolist(), curve.std_errors.tolist()
            )
        ]
        _emit(
            manifest, out_dir, f"intercepts_{series.maturity_rank}m.tsv",
            "\n".join(lines) + "\n",
        )

    res = fits[0]
    lines = ["spot_return\tfutures_return\tfit"]
    lines += [
        f"{xi!r}\t{yi!r}\t{res.intercept + res.slope * xi!r}"
        for xi, yi in zip(x.tolist(), daily[0].tolist())
    ]
    _emit(manifest, out_dir, f"scatter_{ranks[0]}m_1d.tsv", "\n".join(lines) + "\n")
    manifest.write(out_dir)
    print(f"regression tables -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vixtrack",
        description="Calibrate a mean-reverting volatility-index model and "
        "build/evaluate index-tracking futures portfolios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out-dir", required=True, help="run output directory")

    def add_data(p):
        p.add_argument("--data-dir", required=True, help="directory of quote files")
        p.add_argument("--window", default=None, help="START:END inclusive date range")
        p.add_argument("--n-ranks", type=int, default=7, help="front contracts required per day")

    p = sub.add_parser("calibrate", help="fit model parameters from a data panel")
    add_data(p)
    add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("backtest-static", help="constrained least-squares tracking portfolios")
    add_data(p)
    add_common(p)
    p.add_argument("--mode", choices=("price", "return"), default="price")
    p.add_argument("--split", required=True, help="first out-of-sample date")
    p.add_argument("--subsets", default=None, help="e.g. '1;1,2;2,6,7' (default: all 15 of {1,2,6,7})")
    p.set_defaults(func=cmd_backtest_static)

    p = sub.add_parser("simulate", help="simulate index paths and run tracking strategies")
    p.add_argument("--params", required=True, help="parameter file from calibrate")
    p.add_argument("--scenario", default=None, help="plain-text scenario config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--cycles", type=int, default=None)
    p.add_argument("--contracts", default=None, help="maturity ranks, e.g. 1,2")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("regress", help="return-dependency regression tables")
    add_data(p)
    add_common(p)
    p.add_argument("--horizons", default="1,5,10,15", help="holding periods in days")
    p.add_argument("--ranks", default="1,2,3,4,5,6,7", help="maturity ranks")
    p.add_argument("--max-horizon", type=int, default=30, help="intercept-curve range")
    p.set_defaults(func=cmd_regress)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateProblemError as exc:
        print(f"degenerate optimization: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
