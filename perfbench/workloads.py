"""The four workloads, their output checks and their trace counters.

Runs inside the benchmark's child process, after ``vixtrack.cli`` is
imported.  Each workload has a ``call`` (the timed part: CLI
invocations through ``vixtrack.cli.main`` or one library call) and a
``check`` (untimed: reads what the call produced and turns it into
operations, each failed or not, plus extracted outputs and quality
figures).  An operation is one CLI invocation, one static subset, one
simulated scenario or the ``paths`` call.

Checks are of two kinds.  Invariants and independent oracles (see
``oracles.py``) hold for any seed: the MLE must reach at least the
likelihood of the generating parameters, the curve fit at most their
pricing loss, static weights
sum to one, regression slopes match a numpy refit of the emitted
scatter points, and ``paths`` terminal values match a numpy Euler
recursion.  For the seeds listed in ``reference.json`` (full size
only) the outputs are also compared with stored values at the
tolerances stored there.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import numpy as np

import vixtrack
import vixtrack.cli
import vixtrack.simulate

import inputs

STATIC_SUBSETS = 15  # all nonempty subsets of the default pool {1,2,6,7}
RANKS = tuple(range(1, 8))  # regress default ranks


class Context:
    """Everything a workload needs that does not change between reps."""

    def __init__(self, workload: str, meta: dict, size: inputs.Size):
        if workload not in inputs.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.meta = meta
        self.size = size
        self.truth = meta["truth"]
        self.reference = None


def load_reference(path, seed: int):
    """Stored outputs and tolerances for ``seed``, or None."""
    if path is None or not Path(path).exists():
        return None
    ref = json.loads(Path(path).read_text())
    entry = ref["seeds"].get(str(seed))
    return None if entry is None else {"tol": ref["tolerances"], **entry}


# --------------------------------------------------------------------------
# output parsing helpers

_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _num(text: str) -> float:
    """Float from a cell the program wrote with ``repr``, which numpy 2
    wraps, as in ``np.float64(-1.93)``."""
    inner = text[text.index("(") + 1 : text.rindex(")")] if "(" in text else text
    match = _FLOAT.fullmatch(inner.strip())
    if match is None:
        raise ValueError(f"not a number: {text!r}")
    return float(match.group(0))


def _kv(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


def _tsv(path: Path) -> list:
    lines = path.read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def _matrix(path: Path) -> np.ndarray:
    """The numeric body of a TSV whose cells are all numbers."""
    lines = path.read_text().splitlines()[1:]
    return np.array([[_num(v) for v in line.split("\t")] for line in lines])


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Ops:
    """Outcomes of the operations of one rep, in the order attempted."""

    def __init__(self):
        self.items: dict = {}

    def add(self, name: str) -> None:
        self.items.setdefault(name, None)

    def fail(self, name: str, why: str) -> None:
        if self.items.get(name) is None:
            self.items[name] = why

    @property
    def failed(self) -> list:
        return [f"{k}: {v}" for k, v in self.items.items() if v is not None]


# --------------------------------------------------------------------------
# calibrate


def call_calibrate(ctx: Context, out: Path) -> dict:
    code = vixtrack.cli.main([
        "calibrate", "--n-ranks", str(ctx.size.n_live),
        "--data-dir", ctx.meta["quotes"], "--out-dir", str(out),
    ])
    return {"calibrate": code}


def check_calibrate(ctx: Context, out: Path, raw: dict, ops: Ops) -> tuple:
    ops.add("calibrate")
    if raw["calibrate"] != 0:
        ops.fail("calibrate", f"exit code {raw['calibrate']}")
    if not (out / "manifest.txt").exists():
        ops.fail("calibrate", "no manifest.txt")
        return {}, {}
    kv = _kv(out / "params.txt")
    keys = ("mu", "theta", "sigma", "mu_tilde", "theta_tilde", "mle_avg_loglik", "mom_loss")
    got = {k: _num(kv[k]) for k in keys}
    got["mle_iterations"] = int(kv["mle_iterations"])
    got["n_days"] = int(kv["n_days"])
    if got["n_days"] != ctx.size.n_days:
        ops.fail("calibrate", f"n_days {got['n_days']} != {ctx.size.n_days}")
    if got["mle_avg_loglik"] < ctx.truth["avg_loglik"] - 1e-9:
        ops.fail("calibrate", "MLE below the likelihood of the generating parameters")
    if got["mom_loss"] > ctx.truth["mom_loss"] * (1.0 + 1e-9):
        ops.fail("calibrate", "curve fit above the loss of the generating parameters")
    ref = ctx.reference
    if ref is not None:
        want, tol = ref["calibrate"], ref["tol"]
        for k in ("mu", "theta", "sigma"):
            if not _close(got[k], want[k], tol["mle_params_rel"]):
                ops.fail("calibrate", f"{k}={got[k]!r} vs reference {want[k]!r}")
        for k in ("mu_tilde", "theta_tilde"):
            if not _close(got[k], want[k], tol["mom_params_rel"]):
                ops.fail("calibrate", f"{k}={got[k]!r} vs reference {want[k]!r}")
        if got["mle_avg_loglik"] < want["mle_avg_loglik"] - tol["loglik_abs"]:
            ops.fail("calibrate", "MLE worse than the reference optimum")
        if got["mom_loss"] > want["mom_loss"] * (1.0 + tol["mom_loss_rel"]):
            ops.fail("calibrate", "curve fit worse than the reference optimum")
    quality = {"mle_nll": -got["mle_avg_loglik"], "mom_loss": got["mom_loss"]}
    return got, quality


# --------------------------------------------------------------------------
# tables


def call_tables(ctx: Context, out: Path) -> dict:
    common = ["--n-ranks", str(ctx.size.n_live), "--data-dir", ctx.meta["quotes"]]
    regress = vixtrack.cli.main(["regress", *common, "--out-dir", str(out / "regress")])
    static = vixtrack.cli.main([
        "backtest-static", *common, "--split", ctx.meta["split"],
        "--out-dir", str(out / "static"),
    ])
    return {"regress": regress, "backtest-static": static}


def _printed_unit(text: str) -> float:
    """One unit in the last digit of a number printed as ``%.Nf`` or ``%.Ne``."""
    mantissa, _, exponent = text.lower().partition("e")
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def _same_printed(got: list, want: list) -> bool:
    """Cells equal to within one unit of their last printed digit, so a
    rounding flip from a last-bit change in the program still passes."""
    def same(a: str, b: str) -> bool:
        try:
            return a == b or abs(float(a) - float(b)) <= 1.01 * _printed_unit(b)
        except ValueError:  # "-", "ERROR" or a message
            return False

    return len(got) == len(want) and all(same(a, b) for a, b in zip(got, want))


def _check_regress(ctx: Context, out: Path, code: int, ops: Ops) -> dict:
    ops.add("regress")
    if code != 0:
        ops.fail("regress", f"exit code {code}")
    if not (out / "manifest.txt").exists():
        ops.fail("regress", "no manifest.txt")
        return {}
    rows = _tsv(out / "one_day_regressions.tsv")
    one_day = {r["futures"]: [r[c] for c in ("slope", "intercept", "r2", "rmse")] for r in rows}
    if sorted(one_day) != [f"{k}-m" for k in RANKS] or any(int(r["n"]) != ctx.size.n_days - 1 for r in rows):
        ops.fail("regress", "one-day table does not cover ranks 1-7 over every day")
        return {}
    points = _matrix(out / "scatter_1m_1d.tsv")
    refit = _ols_slope(points[:, 0], points[:, 1])
    if abs(refit - float(one_day["1-m"][0])) > 6e-5:
        ops.fail("regress", f"1-m slope {one_day['1-m'][0]} but scatter points give {refit:.6f}")
    holding = [line.split("\t") for line in
               (out / "holding_period_table.tsv").read_text().splitlines()[1:]]
    intercepts = [[_num(r["intercept"]) for r in _tsv(out / f"intercepts_{k}m.tsv")] for k in (1, 2, 3)]
    return {"one_day": one_day, "holding": holding, "intercepts": intercepts}


def _check_static(ctx: Context, out: Path, code: int, ops: Ops) -> dict:
    ops.add("backtest-static")
    if code != 0:
        ops.fail("backtest-static", f"exit code {code}")
    if not (out / "manifest.txt").exists():
        ops.fail("backtest-static", "no manifest.txt")
        for k in range(STATIC_SUBSETS):
            ops.add(f"subset {k + 1}")
            ops.fail(f"subset {k + 1}", "backtest-static wrote no table")
        return {}
    rows = (out / "static_price.tsv").read_text().splitlines()[1:]
    if len(rows) != STATIC_SUBSETS:
        ops.fail("backtest-static", f"{len(rows)} subsets in the table, expected {STATIC_SUBSETS}")
    static = {}
    for line in rows:
        cells = line.split("\t")
        name = f"subset {cells[0]}"
        ops.add(name)
        static[cells[0]] = cells[1:]
        if cells[1] == "ERROR":
            ops.fail(name, cells[2] if len(cells) > 2 else "ERROR row")
            continue
        w = [float(c) for c in cells[1:6] if c != "-"]
        in_rmse, out_rmse = float(cells[6]), float(cells[7])
        # every weight is printed to 3 decimals
        if abs(sum(w) - 1.0) > 5e-4 * len(w) + 1e-9:
            ops.fail(name, f"weights sum to {sum(w)}")
        if not (0.0 <= in_rmse < 1e3 and 0.0 <= out_rmse < 1e3):
            ops.fail(name, f"rmse out of range: {in_rmse}, {out_rmse}")
    return static


def check_tables(ctx: Context, out: Path, raw: dict, ops: Ops) -> tuple:
    got = _check_regress(ctx, out / "regress", raw["regress"], ops)
    got["static"] = _check_static(ctx, out / "static", raw["backtest-static"], ops)
    ref = ctx.reference
    if ref is not None and "one_day" in got:
        want, rel = ref["tables"], ref["tol"]["intercept_rel"]
        for label, cells in want["one_day"].items():
            if not _same_printed(got["one_day"][label], cells):
                ops.fail("regress", f"{label} one-day row {got['one_day'][label]} vs reference {cells}")
        for a_row, b_row in zip(got["holding"], want["holding"]):
            if not _same_printed(a_row, b_row):
                ops.fail("regress", f"holding-period row {a_row} vs reference {b_row}")
        for a_row, b_row in zip(got["intercepts"], want["intercepts"]):
            if not all(_close(a, b, rel) for a, b in zip(a_row, b_row)):
                ops.fail("regress", "intercept curve differs from the reference")
    if ref is not None:
        want = ref["tables"]["static"]
        for label, cells in got["static"].items():
            if label in want and not _same_printed(cells, want[label]):
                ops.fail(f"subset {label}", f"{cells} vs reference {want[label]}")
    oos = [float(c[-1]) for c in got["static"].values() if c[0] != "ERROR"]
    quality = {"oos_rmse": statistics.fmean(oos)} if oos else {}
    return got, quality


# --------------------------------------------------------------------------
# tracking


def scenario_label(mult: float) -> str:
    """File label ``vixtrack simulate`` gives a starting-level multiplier."""
    return f"s0_{mult:g}x".replace(".", "p")


def call_tracking(ctx: Context, out: Path) -> dict:
    code = vixtrack.cli.main([
        "simulate", "--params", ctx.meta["params"], "--scenario", ctx.meta["scenario"],
        "--cycles", str(ctx.size.cycles), "--out-dir", str(out),
    ])
    return {"simulate": code}


def check_tracking(ctx: Context, out: Path, raw: dict, ops: Ops) -> tuple:
    ops.add("simulate")
    if raw["simulate"] != 0:
        ops.fail("simulate", f"exit code {raw['simulate']}")
    manifest = (out / "manifest.txt").exists()
    if not manifest:
        ops.fail("simulate", "no manifest.txt")
    n_days = ctx.size.cycles * 21 + 1
    got = {}
    for mult in inputs.S0_MULTIPLIERS:
        label = scenario_label(mult)
        name = f"scenario {label}"
        ops.add(name)
        if not manifest:
            ops.fail(name, "simulate did not finish")
            continue
        rows = {r["portfolio"]: r for r in _tsv(out / f"scatter_{label}.tsv")}
        slopes = [rows[p]["slope"] for p in ("dynamic", "vxx")]
        wealth = (out / f"wealth_{label}.tsv").read_text().splitlines()
        if len(wealth) != n_days + 1:
            ops.fail(name, f"{len(wealth) - 1} wealth rows, expected {n_days}")
            continue
        terminal = [_num(v) for v in wealth[-1].split("\t")[1:]]
        points = _matrix(out / f"scatter_points_{label}.tsv")
        refit = _ols_slope(points[:, 0], points[:, 1])
        if abs(refit - float(slopes[0])) > 2e-6:
            ops.fail(name, f"dynamic slope {slopes[0]} but scatter points give {refit:.8f}")
        got[label] = {"slopes": slopes, "terminal": terminal}
    ref = ctx.reference
    if ref is not None:
        want, rel = ref["tracking"], ref["tol"]["wealth_rel"]
        for label, values in got.items():
            w = want[label]
            if not _same_printed(values["slopes"], w["slopes"]):
                ops.fail(f"scenario {label}", f"slopes {values['slopes']} vs reference {w['slopes']}")
            if not all(_close(a, b, rel) for a, b in zip(values["terminal"], w["terminal"])):
                ops.fail(f"scenario {label}", f"terminal {values['terminal']} vs reference {w['terminal']}")
    errs = [abs(float(v["slopes"][0]) - 1.0) for v in got.values()]
    quality = {"track_slope_err": statistics.median(errs)} if errs else {}
    return got, quality


# --------------------------------------------------------------------------
# paths


def call_paths(ctx: Context, out: Path) -> dict:
    g = vixtrack.LocalVol.square_root(inputs.SIGMA)
    hist = vixtrack.HistoricalParams(mu=inputs.MU, theta=inputs.THETA, sigma=inputs.SIGMA)
    paths = vixtrack.simulate.simulate_index_paths(
        hist, g, inputs.THETA, ctx.size.path_steps, ctx.size.n_paths, ctx.meta["paths_seed"]
    )
    return {"paths": paths}


def check_paths(ctx: Context, out: Path, raw: dict, ops: Ops) -> tuple:
    ops.add("paths")
    paths = raw["paths"]
    if len(paths) != ctx.size.n_paths or any(p.values.size != ctx.size.path_steps + 1 for p in paths):
        ops.fail("paths", "wrong number or length of paths")
        return {}, {}
    terminal = np.array([p.values[-1] for p in paths])
    want = np.array(ctx.truth["terminals"])
    if not np.allclose(terminal, want, rtol=1e-12, atol=0.0):
        worst = float(np.max(np.abs(terminal - want) / want))
        ops.fail("paths", f"terminal values differ from the Euler oracle (max rel {worst:.3e})")
    return {"terminal": terminal.tolist()}, {}


OPS_PER_REP = {
    "calibrate": 1,
    "tables": 2 + STATIC_SUBSETS,
    "tracking": 1 + len(inputs.S0_MULTIPLIERS),
    "paths": 1,
}
CALLS = {"calibrate": call_calibrate, "tables": call_tables, "tracking": call_tracking, "paths": call_paths}
CHECKS = {"calibrate": check_calibrate, "tables": check_tables, "tracking": check_tracking, "paths": check_paths}


# --------------------------------------------------------------------------
# trace counters


def _load_panel_hook(tracer, args, kwargs, panel):
    tracer.counts["data.days_kept"] += panel.n_days
    tracer.counts["data.days_dropped"] += panel.n_dropped
    data_dir = Path(args[0] if args else kwargs["data_dir"])
    tracer.counts["data.input_bytes"] += sum(
        p.stat().st_size for p in data_dir.glob("*.csv")
    )


def _mle_hook(tracer, args, kwargs, report):
    tracer.counts["calibrate.mle_iterations"] += report.iterations
    tracer.counts["calibrate.mle_converged"] += int(report.converged)


def _rolled_hook(tracer, args, kwargs, series):
    panel = args[0] if args else kwargs["panel"]
    tracer.counts["static.rolled_days"] += panel.n_days
    window = (str(panel.dates[0]), str(panel.dates[-1]), panel.n_days)
    tracer.keys["static.rolled"].add((window, series.maturity_rank))


def _strategy_hook(tracer, args, kwargs, port):
    tracer.counts["simulate.strategy_days"] += port.wealth.size - 1


def _path_hook(tracer, args, kwargs, path):
    tracer.counts["simulate.euler_steps"] += path.values.size - 1
    tracer.counts["simulate.clamped_steps"] += path.n_clamped


HOOKS = {
    "data.load_panel": _load_panel_hook,
    "calibrate.mle_fit": _mle_hook,
    "static.build_rolled_series": _rolled_hook,
    "simulate.run_strategy": _strategy_hook,
    "simulate.simulate_index_path": _path_hook,
}


def layer_metrics(summary: dict, tracer) -> dict:
    """Per-layer figures of one traced rep, by metric name."""

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    counts = tracer.counts
    builds = get("static.build_rolled_series", "calls")
    return {
        "data.load_panel.s": get("data.load_panel", "s"),
        "data.load_panel.calls": get("data.load_panel", "calls"),
        "data.input_bytes": counts["data.input_bytes"],
        "data.days_kept": counts["data.days_kept"],
        "data.days_dropped": counts["data.days_dropped"],
        "data.observations.s": get("data.observations", "s"),
        "calibrate.mle_fit.self_s": get("calibrate.mle_fit", "self_s"),
        "calibrate.loglik_evals": get("calibrate.cir_log_density", "calls"),
        "calibrate.log_bessel_i.s": get("calibrate.log_bessel_i", "s"),
        "calibrate.mle_iterations": counts["calibrate.mle_iterations"],
        "calibrate.mle_converged": counts["calibrate.mle_converged"],
        "calibrate.mom_fit.s": get("calibrate.mom_fit", "s"),
        "static.build_rolled_series.s": get("static.build_rolled_series", "s"),
        "static.build_rolled_series.calls": builds,
        "static.rolled_days": counts["static.rolled_days"],
        "static.rolled_unique_frac": len(tracer.keys["static.rolled"]) / builds if builds else 0.0,
        "static.build_design_matrix.self_s": get("static.build_design_matrix", "self_s"),
        "static.solve_constrained_ls.s": get("static.solve_constrained_ls", "s"),
        "static.subsets_failed": get("static.price_tracking_portfolio", "failed")
        + get("static.return_tracking_portfolio", "failed"),
        "analytics.slope_table.self_s": get("analytics.slope_table", "self_s"),
        "analytics.intercept_curve.self_s": get("analytics.intercept_curve", "self_s"),
        "analytics.ols_regression.calls": get("analytics.ols_regression", "calls"),
        "analytics.scatter_report.s": get("analytics.scatter_report", "s"),
        "simulate.run_strategy.self_s": get("simulate.run_strategy", "self_s"),
        "simulate.strategy_days": counts["simulate.strategy_days"],
        "simulate.futures_panel_from_path.s": get("simulate.futures_panel_from_path", "s"),
        "simulate.simulate_index_paths.s": get("simulate.simulate_index_paths", "s"),
        "simulate.simulate_index_path.s": get("simulate.simulate_index_path", "s"),
        "simulate.euler_steps": counts["simulate.euler_steps"],
        "simulate.clamped_steps": counts["simulate.clamped_steps"],
        "dynamic.rule.s": get("dynamic.rule", "s"),
        "dynamic.rule.calls": get("dynamic.rule", "calls"),
        "dynamic.tracking_coefficients.calls": get("dynamic.tracking_coefficients", "calls"),
        "cli.main.self_s": get("cli.main", "self_s"),
    }


def output_files(out: Path) -> tuple:
    """(files, bytes) a rep left in its output directory."""
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)
