"""Batch command-line front end.

Subcommands: ``calibrate``, ``backtest-static``, ``simulate``,
``regress``.  ``main`` creates the output directory, runs the
subcommand, and when it returns writes ``manifest.txt``: the
subcommand, ``config.`` keys (every parsed flag but ``--out-dir``,
plus ``simulate``'s scenario settings), input digests, output names,
``count.`` keys for what the run found (work done, early rolls,
clamped steps, failed subsets, an unconverged fit, a fit on a limit)
and the elapsed time.  A run that raises writes no manifest, so its absence marks a
failed run; but a run may also fail after writing its outputs and
manifest (exit 3 below).  All files are plain text and written
atomically; every file goes through ``RunManifest.emit``, and
every column written with ``repr`` through ``repr_table``.  The
formatting of every output file lives here and all the math in the
library modules.

``simulate`` builds a market (the engine's paths, one per scenario),
runs both trackers on it through ``simulate.track``, and hands the
batch to ``report``, the only writer of its tables.  ``report`` fits
every scenario in one ``ols_regression`` and writes, per scenario
label, ``wealth_<label>.tsv`` (the index rebased to 100 and both
wealths by day), ``scatter_<label>.tsv`` (each strategy's one-day
regression on the index) and ``scatter_points_<label>.tsv`` (the
regressed returns); and once, ``weights.tsv``: the day, the roll's
front weight ``vxx_w1`` (the same for every scenario) and each
scenario's ``dynamic_w1_<label>``.

Exit codes: 0 success, 2 data error, 3 calibration failure,
4 degenerate optimization.  Exit 3 has two cases:

- a fit that cannot be made (the moment fit is unidentifiable, or the
  spot is constant) raises, and the run writes no manifest;
- an MLE that ends on its parameter box writes ``params.txt``, with
  ``mle_at_bound=true``, and a manifest with ``count.mle_at_bound=1``.

A curve fit on a limit (``mom_at_bound=true`` in ``params.txt``,
``count.mom_at_bound=1`` in the manifest) does not change the exit
code: its parameters still price the quotes at the least loss the
search can reach, and only the flag marks that the quotes do not pin
down both of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import holding_period_returns, ols_regression, slope_one_p
from .calibrate import mle_fit, mom_fit
from .data import DATE_RANGE, is_date, load_panel, split_day
from .errors import CalibrationError, DataError, DegenerateProblemError, require
from .model import CYCLE_DAYS, HistoricalParams, LocalVol, RiskNeutralParams
from .simulate import SimulatedCurves, simulate_index_paths, track
from .static import build_rolled_series, static_portfolio

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CALIBRATION = 3
EXIT_DEGENERATE = 4

DEFAULT_SUBSET_POOL = (1, 2, 6, 7)


class RunManifest:
    """Key-value record of one run, written by ``main`` when the
    subcommand returns.  ``config`` is every parsed flag but
    ``--out-dir`` (plus ``simulate``'s scenario settings); what a run
    finds out is a ``count.``.  Reruns with identical ``config`` and
    inputs produce byte-identical outputs and manifests, timings
    aside."""

    def __init__(self, args: argparse.Namespace):
        self.subcommand = args.command
        self.out_dir = Path(args.out_dir)
        self.config = {
            k: v for k, v in vars(args).items() if k not in ("out_dir", "func", "command")
        }
        self.inputs: dict = {}
        self.outputs: list = []
        self.counts: dict = {}
        self.started = time.perf_counter()

    def add_input(self, label: str, path: Path) -> None:
        self.inputs[label] = hashlib.sha256(path.read_bytes()).hexdigest()

    def emit(self, name: str, lines) -> None:
        """Write the file ``name`` atomically, one entry of ``lines`` a
        line, and list it as an output."""
        tmp = self.out_dir / (name + ".tmp")
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, self.out_dir / name)
        self.outputs.append(name)

    def write(self) -> None:
        lines = [f"subcommand={self.subcommand}", f"version={__version__}"]
        lines += [f"config.{k}={v}" for k, v in sorted(self.config.items())]
        lines += [f"input.{k}.sha256={v}" for k, v in sorted(self.inputs.items())]
        lines += [f"output.{i}={p}" for i, p in enumerate(self.outputs)]
        lines += [f"count.{k}={v}" for k, v in sorted(self.counts.items())]
        lines.append(f"elapsed_seconds={time.perf_counter() - self.started:.3f}")
        self.emit("manifest.txt", lines)


def results_table(results: dict) -> list:
    """Lines of the table of fitted subsets: label, cash
    weight, futures weights, in-RMSE, out-RMSE.  ``results`` maps a
    subset label to a StaticWeights (or to an error string for failed
    subsets).  There are as many futures-weight columns as the largest
    fitted subset has futures, and at least 4."""
    fitted = [res for res in results.values() if not isinstance(res, str)]
    width = max([4] + [res.weights.size - 1 for res in fitted])
    header = ["futures", "w0"] + [f"w{i}" for i in range(1, width + 1)]
    header += ["in_rmse", "out_rmse"]
    lines = ["\t".join(header)]
    for label, res in results.items():
        if isinstance(res, str):
            lines.append("\t".join([label, "ERROR", res]))
            continue
        cells = [label] + [f"{w:.3f}" for w in res.weights]
        cells += ["-"] * (width + 1 - res.weights.size)
        cells += [f"{res.in_rmse:.3f}", f"{res.out_rmse:.3f}"]
        lines.append("\t".join(cells))
    return lines


def repr_table(header: str, *columns) -> list:
    """Lines of a table: ``header``, then tab-separated rows of the
    columns' values, each written with ``repr`` as a Python int or
    float, so a float reads back exactly."""
    cells = (map(repr, np.asarray(column).tolist()) for column in columns)
    return [header, *map("\t".join, zip(*cells))]


def _read_key_values(path: Path, kind: str) -> dict:
    """key -> (value, line number) of a key=value file; blank lines and
    lines starting with # are skipped, and a repeated key is a
    DataError naming both lines."""
    if not path.exists():
        raise DataError(f"{kind} {path} not found")
    kv = {}
    for n, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{kind} {path} line {n}: expected key=value, got {line!r}")
        k, v = (part.strip() for part in line.split("=", 1))
        if k in kv:
            raise DataError(f"{kind} {path} line {n}: duplicate key {k} (first on line {kv[k][1]})")
        kv[k] = (v, n)
    return kv


def _parse(parse, text: str, where: str):
    try:
        return parse(text)
    except ValueError as exc:
        raise DataError(f"{where}: cannot parse {text!r}: {exc}") from None


def _numbers(text: str, rule) -> tuple:
    return tuple(rule(v) for v in text.split(","))


def _checked(parse, ok, need: str):
    """The rule ``parse``, then a ValueError unless ``ok(value)``."""

    def rule(text: str):
        if not ok(value := parse(text)):
            raise ValueError(f"must be {need}, got {value}")
        return value

    return rule


def _distinct(values) -> bool:
    return len(set(values)) == len(values)


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_finite = _checked(float, np.isfinite, "finite")
_positive = _checked(float, lambda v: 0 < v < np.inf, "finite and > 0")
_date = _checked(
    lambda text: np.datetime64(text, "D"), is_date, "a date from {} to {}".format(*DATE_RANGE)
)


def _positive_ints(text: str) -> tuple:
    return _numbers(text, _positive_int)


def _distinct_ints(what: str):
    return _checked(_positive_ints, _distinct, f"distinct {what}")


_rank_pair = _checked(
    _positive_ints, lambda r: len(r) == 2 and r[0] != r[1], "two ranks I1,I2 that differ"
)


def _window(text: str) -> tuple:
    dates = tuple(map(_date, text.split(":")))
    if len(dates) != 2 or dates[0] > dates[1]:
        raise ValueError("need START:END dates, START not after END")
    return dates


def _joined(values) -> str:
    return ",".join(f"{v:g}" for v in values)


def scenario_label(multiplier: float) -> str:
    """File label of a starting level of ``multiplier`` x theta."""
    return f"s0_{multiplier:g}x".replace(".", "p")


def read_params_file(path) -> tuple:
    """Parse a calibrate-emitted parameter file into (hist, rn): one key
    per field of each type, all five values finite and > 0.  Its other
    keys (the fit diagnostics) are not read."""
    path = Path(path)
    kv = _read_key_values(path, "parameter file")

    def value(key: str) -> float:
        if key not in kv:
            raise DataError(f"parameter file {path} missing key '{key}'")
        text, n = kv[key]
        return _parse(_positive, text, f"parameter file {path} line {n}, key {key}")

    return tuple(
        cls(*(value(field.name) for field in dataclasses.fields(cls)))
        for cls in (HistoricalParams, RiskNeutralParams)
    )


# scenario key -> (parse rule, default)
_SCENARIO_KEYS = {
    "beta": (_finite, 1.0),
    "seed": (_checked(int, lambda v: v >= 0, ">= 0"), 1),
    "r": (_finite, 0.01),
    "contracts": (_rank_pair, (1, 2)),
    "s0_multipliers": (
        _checked(
            lambda text: _numbers(text, _positive),
            lambda mults: _distinct([scenario_label(m) for m in mults]),
            "multipliers of distinct file labels",
        ),
        (1.0, 1.0 / 3.0, 3.0),
    ),
}


def read_scenario_config(path) -> dict:
    """Settings of the simulate subcommand from a plain-text key=value
    scenario file: every key of ``_SCENARIO_KEYS``, parsed by its rule
    (``contracts`` into a rank pair, ``s0_multipliers`` into a tuple),
    or its default when the file does not set it or ``path`` is None.

    Raises
    ------
    DataError
        Naming the file, line and key of an unknown or repeated key or
        of a value that does not parse or that its rule rejects (say
        ``r=nan``, ``contracts=2,2`` or two multipliers of one label).
    """
    cfg = {key: default for key, (_, default) in _SCENARIO_KEYS.items()}
    if path is None:
        return cfg
    path = Path(path)
    for key, (text, n) in _read_key_values(path, "scenario config").items():
        where = f"scenario config {path} line {n}, key {key}"
        if key not in _SCENARIO_KEYS:
            raise DataError(f"{where}: unknown key; known keys are {', '.join(_SCENARIO_KEYS)}")
        cfg[key] = _parse(_SCENARIO_KEYS[key][0], text, where)
    return cfg


def _load_quotes(args, manifest: RunManifest):
    """Load the panel, then record the quote files' digests and the
    days it dropped."""
    window = None if args.window is None else _parse(_window, args.window, "--window")
    n_ranks = _parse(_positive_int, args.n_ranks, "--n-ranks")
    panel = load_panel(args.data_dir, window=window, n_ranks=n_ranks)
    for name in ("spot.csv", "futures.csv", "rates.csv"):
        manifest.add_input(name, Path(args.data_dir) / name)
    manifest.counts["days_dropped"] = panel.n_dropped
    manifest.counts["days_dropped_no_rate"] = panel.n_dropped_no_rate
    manifest.counts["days_dropped_no_front_close"] = panel.n_dropped - panel.n_dropped_no_rate
    return panel


def cmd_calibrate(args, manifest: RunManifest) -> int:
    panel = _load_quotes(args, manifest)
    try:
        mle = mle_fit(panel.spot)
    except ValueError as exc:
        raise DataError(f"--window {args.window}: {exc}" if args.window else str(exc)) from None
    mom = mom_fit(panel.observations())
    # the parameters read_params_file reads, then the fit diagnostics
    fitted = {**dataclasses.asdict(mle.params), **dataclasses.asdict(mom.params)}
    params = {
        **fitted,
        "mle_avg_loglik": mle.avg_loglik,
        "mle_iterations": mle.iterations,
        "mle_converged": str(mle.converged).lower(),
        "mle_at_bound": str(mle.at_bound).lower(),
        "mom_loss": mom.loss,
        "mom_at_bound": str(mom.at_bound).lower(),
        "n_days": panel.n_days,
        "n_dropped": panel.n_dropped,
    }
    manifest.emit("params.txt", [f"{k}={v}" for k, v in params.items()])
    manifest.counts["mle_evaluations"] = mle.evaluations
    manifest.counts["mle_not_converged"] = int(not mle.converged)
    manifest.counts["mle_at_bound"] = int(mle.at_bound)
    manifest.counts["mom_at_bound"] = int(mom.at_bound)
    print("calibrated:", *(f"{k}={v:.4f}" for k, v in fitted.items()))
    return EXIT_CALIBRATION if mle.at_bound else EXIT_OK


def _parse_subsets(text):
    if not text:
        pool = DEFAULT_SUBSET_POOL
        return [s for r in range(1, len(pool) + 1) for s in itertools.combinations(pool, r)]
    # a subset is a set of ranks: none twice, and no two subsets in another order
    rule = _checked(
        lambda t: list(map(_distinct_ints("ranks"), t.split(";"))),
        lambda subsets: _distinct(list(map(frozenset, subsets))), "distinct subsets",
    )
    return _parse(rule, text, "--subsets")


def cmd_backtest_static(args, manifest: RunManifest) -> int:
    subsets = _parse_subsets(args.subsets)
    boundary = _parse(_date, args.split, "--split")
    panel = _load_quotes(args, manifest)
    try:
        cut = split_day(panel, boundary)
    except DataError as exc:
        raise DataError(f"--split: {exc}") from None
    # a rank is rolled over the whole panel when a subset first holds it,
    # and retried only if that failed: a rank that cannot be built fails
    # every subset holding it, each with the build's same message
    rolled, results = {}, {}
    for subset in subsets:
        label = ",".join(f"{r}-m" for r in subset)
        try:
            for rank in subset:
                if rank not in rolled:
                    rolled[rank] = build_rolled_series(panel, rank)
            results[label] = static_portfolio(panel, [rolled[r] for r in subset], cut, args.mode)
        except ValueError as exc:
            results[label] = str(exc)
            print(f"subset {label} failed: {exc}", file=sys.stderr)
    manifest.counts["early_rolls"] = sum(series.early_rolls for series in rolled.values())
    name = f"static_{args.mode}.tsv"
    manifest.emit(name, results_table(results))
    n_failed = sum(isinstance(res, str) for res in results.values())
    manifest.counts["failed_subsets"] = n_failed
    print(f"fitted {len(results) - n_failed}/{len(results)} subsets -> {manifest.out_dir / name}")
    return EXIT_OK


def report(manifest: RunManifest, labels, ranks, spot, w_dyn, w_vxx, wealth) -> None:
    """Fit and write ``simulate``'s tables (see the module docstring)
    for a batch of rows, one per label: the index ``spot``, (rows,
    days), and what :func:`~vixtrack.simulate.track` returns for the
    pair ``ranks``.  A row whose dynamic wealth is not finite is a
    DegenerateProblemError naming its label and first such day, raised
    before any file is written."""
    # a path held near the Euler floor can drive w* and the wealth past float
    # range; a non-finite weight on day j leaves the wealth non-finite from j + 1
    for label, wealth_dyn in zip(labels, wealth[:, 0]):
        message = f"scenario {label}: dynamic wealth not finite"
        require(np.isfinite(wealth_dyn), DegenerateProblemError, message)
    idx_ret = holding_period_returns(spot, 1)
    returns = holding_period_returns(wealth, 1)
    reg = ols_regression(idx_ret[:, None], returns)
    p_one = slope_one_p(reg)
    # the dynamic pair's weight on the front contract, 0 when it holds none
    front = w_dyn if ranks[0] == 1 else 1.0 - w_dyn if ranks[1] == 1 else np.zeros_like(w_dyn)
    # rows: dynamic on ``ranks``, then vxx on ranks (1, 2)
    w1 = np.stack(np.broadcast_arrays(w_dyn, w_vxx), axis=1)
    max_abs = np.maximum(np.abs(w1), np.abs(1.0 - w1)).max(axis=-1)
    header = "portfolio\tslope\tslope_se\tintercept\tintercept_se\tr2\tp_slope_eq_1\tmax_abs_weight"
    days = range(spot.shape[-1])
    for k, label in enumerate(labels):
        index_norm = 100.0 * spot[k] / spot[k, 0]
        lines = repr_table("day\tindex\tvxx\tdynamic", days, index_norm, wealth[k, 1], wealth[k, 0])
        manifest.emit(f"wealth_{label}.tsv", lines)
        lines = [header] + [
            f"{name}\t{reg.slope[k, i]:.6f}\t{reg.slope_se[k, i]:.3e}\t{reg.intercept[k, i]:.3e}"
            f"\t{reg.intercept_se[k, i]:.3e}\t{reg.r2[k, i]:.6f}\t{p_one[k, i]:.3e}"
            f"\t{max_abs[k, i]:.4f}"
            for i, name in enumerate(("dynamic", "vxx"))
        ]
        manifest.emit(f"scatter_{label}.tsv", lines)
        lines = repr_table("index_return\tportfolio_return", idx_ret[k], returns[k, 0])
        manifest.emit(f"scatter_points_{label}.tsv", lines)
    header = "\t".join(["day", "vxx_w1", *(f"dynamic_w1_{label}" for label in labels)])
    manifest.emit("weights.tsv", repr_table(header, range(w_vxx.size), w_vxx, *front))
    print(f"simulated {len(labels)} scenarios over {w_vxx.size} days -> {manifest.out_dir}")


def cmd_simulate(args, manifest: RunManifest) -> int:
    cfg = read_scenario_config(args.scenario)
    if args.scenario:
        manifest.add_input("scenario", Path(args.scenario))
    hist, rn = read_params_file(args.params)
    manifest.add_input("params", Path(args.params))
    cycles = _parse(_positive_int, args.cycles, "--cycles")
    mults = cfg["s0_multipliers"]
    manifest.config.update(cfg, contracts=_joined(cfg["contracts"]), s0_multipliers=_joined(mults))

    paths = simulate_index_paths(
        hist, LocalVol.square_root(hist.sigma), [m * hist.theta for m in mults],
        cycles * CYCLE_DAYS, len(mults), cfg["seed"],
    )
    manifest.counts["clamped_steps"] = sum(path.n_clamped for path in paths)
    # every scenario is one path of a single batch through both trackers
    curves = SimulatedCurves([path.values for path in paths], rn, cfg["r"])
    tracked = track(curves, cfg["contracts"], cfg["beta"], hist, rn)
    report(manifest, [scenario_label(m) for m in mults], cfg["contracts"], curves.spot, *tracked)
    return EXIT_OK


def cmd_regress(args, manifest: RunManifest) -> int:
    ranks = _parse(_distinct_ints("ranks"), args.ranks, "--ranks")
    horizons = _parse(_distinct_ints("horizons"), args.horizons, "--horizons")
    max_horizon = _parse(_positive_int, args.max_horizon, "--max-horizon")
    panel = _load_quotes(args, manifest)
    # a fit needs 3 disjoint windows: h <= (n - 1) // 3
    for flag, h in [*(("--horizons", h) for h in horizons), ("--max-horizon", max_horizon)]:
        if (panel.n_days - 1) // h < 3:
            raise DataError(
                f"{flag}: horizon {h} leaves fewer than 3 disjoint windows "
                f"in the panel's {panel.n_days} days"
            )

    # one row per rank, so every fit below regresses all ranks at once
    built = [build_rolled_series(panel, rank) for rank in ranks]
    manifest.counts["early_rolls"] = sum(series.early_rolls for series in built)
    rolled = np.stack([series.values for series in built])
    # each distinct holding period is fitted once
    fits = {
        h: ols_regression(
            holding_period_returns(panel.spot, h), holding_period_returns(rolled, h)
        )
        for h in dict.fromkeys([1, *horizons, *range(1, max_horizon + 1)])
    }

    daily = fits[1]
    lines = ["futures\tslope\tintercept\tslope_se\tintercept_se\tr2\trmse\tn"] + [
        f"{rank}-m\t{daily.slope[i]:.4f}\t{daily.intercept[i]:.3e}\t{daily.slope_se[i]:.3e}"
        f"\t{daily.intercept_se[i]:.3e}\t{daily.r2[i]:.4f}\t{daily.rmse[i]:.4f}\t{daily.n}"
        for i, rank in enumerate(ranks)
    ]
    manifest.emit("one_day_regressions.tsv", lines)

    table = [fits[h] for h in horizons]
    lines = ["\t".join(["stat", "days"] + [f"{r}-m" for r in ranks])] + [
        "\t".join([stat, str(h)] + [f"{v:.3f}" for v in getattr(res, stat)])
        for stat in ("slope", "r2")
        for h, res in zip(horizons, table)
    ]
    manifest.emit("holding_period_table.tsv", lines)

    curves = [fits[h] for h in range(1, max_horizon + 1)]
    for i, rank in enumerate(ranks[:3]):
        columns = ([res.intercept[i] for res in curves], [res.intercept_se[i] for res in curves])
        lines = repr_table("horizon\tintercept\tintercept_se", range(1, max_horizon + 1), *columns)
        manifest.emit(f"intercepts_{rank}m.tsv", lines)

    x = holding_period_returns(panel.spot, 1)
    columns = (x, holding_period_returns(rolled[0], 1), daily.intercept[0] + daily.slope[0] * x)
    lines = repr_table("spot_return\tfutures_return\tfit", *columns)
    manifest.emit(f"scatter_{ranks[0]}m_1d.tsv", lines)
    print(f"regression tables -> {manifest.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vixtrack",
        description="Calibrate a mean-reverting volatility-index model and "
        "build/evaluate index-tracking futures portfolios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, data=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out-dir", required=True, help="run output directory")
        if data:
            p.add_argument("--data-dir", required=True, help="directory of quote files")
            p.add_argument("--window", default=None, help="START:END inclusive date range")
            p.add_argument("--n-ranks", default="7", help="front contracts required per day")
        return p

    command("calibrate", cmd_calibrate, "fit model parameters from a data panel")

    p = command(
        "backtest-static", cmd_backtest_static, "constrained least-squares tracking portfolios"
    )
    p.add_argument("--mode", choices=("price", "return"), default="price")
    p.add_argument("--split", required=True, help="first out-of-sample date")
    p.add_argument("--subsets", default=None, help="e.g. '1;1,2;2,6,7' (default: all 15 of {1,2,6,7})")

    p = command(
        "simulate", cmd_simulate, "simulate index paths and run tracking strategies", data=False
    )
    p.add_argument("--params", required=True, help="parameter file from calibrate")
    p.add_argument("--scenario", default=None, help="plain-text scenario config file")
    p.add_argument("--cycles", default="3", help="expiry cycles to simulate")

    p = command("regress", cmd_regress, "return-dependency regression tables")
    p.add_argument("--horizons", default="1,5,10,15", help="holding periods in days")
    p.add_argument("--ranks", default="1,2,3,4,5,6,7", help="maturity ranks")
    p.add_argument("--max-horizon", default="30", help="intercept-curve range")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = RunManifest(args)
    try:
        manifest.out_dir.mkdir(parents=True, exist_ok=True)
        code = args.func(args, manifest)
        manifest.write()
        return code
    except DegenerateProblemError as exc:
        print(f"degenerate optimization: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
