"""Every subcommand run end to end with its default flags on generated
quote files, and the package's public names."""

import codecs
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vixtrack
from vixtrack.cli import build_parser, main, read_params_file

import oracles
from conftest import FIT_HIST, FIT_RN, write_quote_files

N_DAYS = 200
RANKS = [f"{r}-m" for r in range(1, 8)]
# first-column headers of tables whose first column is a row label
LABEL_COLUMNS = {"futures", "stat", "portfolio"}


@pytest.fixture(scope="module")
def quotes(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("quotes")
    dates = write_quote_files(data_dir, n_days=N_DAYS, seed=3)
    return data_dir, dates


@pytest.fixture(scope="module")
def calibrated(quotes, tmp_path_factory):
    out = tmp_path_factory.mktemp("calibrate")
    code = main(["calibrate", "--data-dir", str(quotes[0]), "--out-dir", str(out)])
    return code, out


def read_manifest(out):
    lines = (out / "manifest.txt").read_text().splitlines()
    return dict(line.split("=", 1) for line in lines)


def assert_manifest(out, subcommand, config, inputs, counts=()):
    kv = read_manifest(out)
    assert kv["subcommand"] == subcommand
    assert kv["version"] == vixtrack.__version__
    assert float(kv["elapsed_seconds"]) >= 0.0
    assert {k for k in kv if k.startswith("config.")} == {f"config.{k}" for k in config}
    assert {k for k in kv if k.startswith("input.")} == {
        f"input.{name}.sha256" for name in inputs
    }
    assert {k for k in kv if k.startswith("count.")} == {f"count.{k}" for k in counts}
    assert all(int(kv[f"count.{k}"]) >= 0 for k in counts)
    outputs = [v for k, v in kv.items() if k.startswith("output.")]
    assert outputs and all((out / name).is_file() for name in outputs)
    return kv


def table(path):
    lines = path.read_text().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def assert_numeric_cells(out):
    """Every value cell of every table parses as a float."""
    for path in sorted(out.glob("*.tsv")):
        header, rows = table(path)
        first = 1 if header[0] in LABEL_COLUMNS else 0
        for row in rows:
            assert len(row) == len(header), path.name
            for cell in row[first:]:
                if cell != "-":
                    float(cell)


QUOTE_FILES = ("spot.csv", "futures.csv", "rates.csv")
DROPPED = ("days_dropped", "days_dropped_no_rate", "days_dropped_no_front_close")


def test_calibrate(calibrated):
    code, out = calibrated
    assert code == 0
    kv = assert_manifest(
        out, "calibrate", ("data_dir", "window", "n_ranks"), QUOTE_FILES,
        (
            *DROPPED, "mle_evaluations", "mle_not_converged", "mle_at_bound", "mom_at_bound",
        ),
    )
    assert kv["output.0"] == "params.txt"
    params = dict(line.split("=", 1) for line in (out / "params.txt").read_text().splitlines())
    for value in params.values():
        if value not in ("true", "false"):
            float(value)
    keys = list(params)
    assert keys[keys.index("mom_loss") + 1] == "mom_at_bound"
    assert (params["mom_at_bound"], kv["count.mom_at_bound"]) == ("false", "0")
    # the gradient search evaluates its start, then at least one point
    # per iteration
    assert int(kv["count.mle_evaluations"]) > int(params["mle_iterations"])
    assert kv["count.mle_at_bound"] == {"false": "0", "true": "1"}[params["mle_at_bound"]]


# A nearly constant spot's parameters: its likelihood rises towards
# sigma's lower bound.
CORNER_HIST = vixtrack.HistoricalParams(10.86, 18.81, 1e-4)


def test_calibrate_fit_on_the_box_exits_3(tmp_path):
    # the run writes its fit but fails
    write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3, hist=CORNER_HIST)
    out = tmp_path / "out"
    assert main(["calibrate", "--data-dir", str(tmp_path / "q"), "--out-dir", str(out)]) == 3
    fit = dict(line.split("=", 1) for line in (out / "params.txt").read_text().splitlines())
    assert float(fit["sigma"]) == pytest.approx(1e-3)
    assert (fit["mle_at_bound"], fit["mle_converged"]) == ("true", "false")
    assert read_manifest(out)["count.mle_at_bound"] == "1"


def test_calibrate_curve_fit_on_a_limit_exits_0(tmp_path):
    # futures of mu_tilde = 2000 sit at theta_tilde from the front month
    # on: the curve fit ends at mu_tilde's upper limit 1e3, is flagged,
    # and the run still succeeds; simulate reads its parameters
    rn = vixtrack.RiskNeutralParams(2000.0, 26.03)
    write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3, rn=rn)
    out = tmp_path / "out"
    assert main(["calibrate", "--data-dir", str(tmp_path / "q"), "--out-dir", str(out)]) == 0
    fit = dict(line.split("=", 1) for line in (out / "params.txt").read_text().splitlines())
    assert float(fit["mu_tilde"]) == pytest.approx(1e3)
    assert (fit["mom_at_bound"], fit["mle_at_bound"]) == ("true", "false")
    assert read_manifest(out)["count.mom_at_bound"] == "1"
    assert read_params_file(out / "params.txt")[1].mu_tilde == float(fit["mu_tilde"])


def test_calibrate_constant_spot_fails_the_run(tmp_path, capsys):
    # a stale spot feed: every close is 20.0
    write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3)
    spot = tmp_path / "q" / "spot.csv"
    header, *rows = spot.read_text().splitlines()
    spot.write_text("\n".join([header] + [row.rsplit(",", 1)[0] + ",20.0" for row in rows]) + "\n")
    out = tmp_path / "out"
    assert main(["calibrate", "--data-dir", str(tmp_path / "q"), "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("calibration failed: the spot is constant"), err
    assert list(out.iterdir()) == []  # no params, no manifest


def test_calibrate_window_fits_the_window(quotes, tmp_path):
    data_dir, dates = quotes
    window = (str(dates[20]), str(dates[179]))
    argv = ["calibrate", "--data-dir", str(data_dir), "--window", ":".join(window)]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    fit = dict(line.split("=", 1) for line in (tmp_path / "params.txt").read_text().splitlines())
    panel = vixtrack.load_panel(data_dir, window=window)
    assert panel.n_days == int(fit["n_days"]) == 160
    mle, mom = vixtrack.mle_fit(panel.spot), vixtrack.mom_fit(panel.observations())
    want = {**dataclasses.asdict(mle.params), **dataclasses.asdict(mom.params)}
    assert {key: float(fit[key]) for key in want} == want
    assert read_manifest(tmp_path)["config.window"] == ":".join(window)


@pytest.mark.parametrize("first, last", [(40, 41), (0, 98)])
def test_calibrate_short_window_names_the_flag(quotes, tmp_path, capsys, first, last):
    data_dir, dates = quotes
    window = f"{dates[first]}:{dates[last]}"
    argv = ["calibrate", "--data-dir", str(data_dir), "--window", window]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    n_days = last - first + 1
    want = f"data error: --window {window}: the MLE needs at least 100 daily closes, got {n_days}\n"
    assert capsys.readouterr().err == want
    assert not (tmp_path / "manifest.txt").exists()


def test_calibrate_rejects_compact_dates(tmp_path, capsys):
    # numpy reads 20210104 as the year 20,210,104: the run must not fit it
    write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3)
    for name in QUOTE_FILES:
        path = tmp_path / "q" / name
        path.write_text(re.sub(r"(\d{4})-(\d\d)-(\d\d)", r"\1\2\3", path.read_text()))
    out = tmp_path / "out"
    assert main(["calibrate", "--data-dir", str(tmp_path / "q"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "data error: spot.csv:2: bad date '20210104'\n"
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("mode", ["price", "return"])
def test_backtest_static(quotes, tmp_path, mode):
    data_dir, dates = quotes
    split = str(dates[150])
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", split,
        "--mode", mode, "--out-dir", str(tmp_path),
    ])
    assert code == 0
    kv = assert_manifest(
        tmp_path, "backtest-static",
        ("data_dir", "window", "n_ranks", "split", "mode", "subsets"),
        QUOTE_FILES,
        (*DROPPED, "failed_subsets", "early_rolls"),
    )
    assert kv["count.failed_subsets"] == "0"
    assert kv["count.early_rolls"] == "0"  # every contract is quoted to settlement
    assert kv["config.mode"] == mode
    header, rows = table(tmp_path / f"static_{mode}.tsv")
    assert len(rows) == 15
    assert all(row[1] != "ERROR" for row in rows)
    assert_numeric_cells(tmp_path)


def test_backtest_static_unbuildable_rank_fails_its_subsets_only(quotes, tmp_path):
    data_dir, dates = quotes
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", str(dates[150]),
        "--subsets", "1;9;1,9;2", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert read_manifest(tmp_path)["count.failed_subsets"] == "2"
    _, rows = table(tmp_path / "static_price.tsv")
    status = {row[0]: row[1:3] for row in rows}
    assert status["9-m"] == status["1-m,9-m"] == ["ERROR", "rank 9 not available on day 0"]
    assert status["1-m"][0] != "ERROR" and status["2-m"][0] != "ERROR"


def test_backtest_static_rank_deficient_subsets_fail_alone(tmp_path):
    # with every futures close at 20.0 all rolled series are equal, so a
    # second rank is a dependent column of the fit
    data_dir = tmp_path / "quotes"
    dates = write_quote_files(data_dir, n_days=120, seed=3)
    path = data_dir / "futures.csv"
    lines = path.read_text().splitlines()
    path.write_text("".join(
        (line.rsplit(",", 1)[0] + ",20.0" if ",close," in line else line) + "\n" for line in lines
    ))
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", str(dates[60]),
        "--subsets", "1;1,2;2,6", "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert read_manifest(tmp_path / "out")["count.failed_subsets"] == "2"
    _, rows = table(tmp_path / "out" / "static_price.tsv")
    status = {row[0]: row[1:3] for row in rows}
    assert status["1-m"][0] != "ERROR"
    for label, dependent in [("1-m,2-m", "2-m"), ("2-m,6-m", "6-m")]:
        message = f"rank-deficient constrained system; dependent columns: ['{dependent}']"
        assert status[label] == ["ERROR", message]


def test_backtest_static_table_widens_for_large_subsets(quotes, tmp_path):
    data_dir, dates = quotes
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", str(dates[150]),
        "--subsets", "1,2,3,4,5;1", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    header, rows = table(tmp_path / "static_price.tsv")
    assert header == ["futures", "w0", "w1", "w2", "w3", "w4", "w5", "in_rmse", "out_rmse"]
    assert [row[0] for row in rows] == ["1-m,2-m,3-m,4-m,5-m", "1-m"]
    assert rows[1][3:7] == ["-"] * 4
    assert_numeric_cells(tmp_path)  # every row has as many cells as the header


@pytest.mark.parametrize("command", ["calibrate", "backtest-static", "regress"])
def test_manifest_counts_dropped_days(tmp_path, command):
    # days 30 and 77 lack the front close, day 120 the rate
    dates = write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3, drop_futures_on=(30, 77))
    rates = tmp_path / "q" / "rates.csv"
    rates.write_text(
        "".join(line for line in rates.read_text().splitlines(True)
                if not line.startswith(str(dates[120])))
    )
    argv = [command, "--data-dir", str(tmp_path / "q"), "--out-dir", str(tmp_path / "out")]
    if command == "backtest-static":
        argv += ["--split", str(dates[150])]
    assert main(argv) == 0
    kv = read_manifest(tmp_path / "out")
    assert [kv[f"count.{k}"] for k in DROPPED] == ["3", "1", "2"]


def test_simulate(calibrated, tmp_path):
    code, params = calibrated
    assert code == 0
    code = main([
        "simulate", "--params", str(params / "params.txt"), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert_manifest(
        tmp_path, "simulate",
        ("beta", "cycles", "seed", "r", "contracts", "s0_multipliers", "params", "scenario"),
        ("params",),
        ("clamped_steps",),
    )
    # per scenario its wealth, fit and fitted points; the weights of all at once
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {"weights.tsv", "manifest.txt"} | {
        f"{kind}_{label}.tsv"
        for label in ("s0_1x", "s0_0p333333x", "s0_3x")
        for kind in ("wealth", "scatter", "scatter_points")
    }
    assert_numeric_cells(tmp_path)


def test_backtest_static_split_outside_the_window_fails_the_run(quotes, tmp_path, capsys):
    data_dir, dates = quotes
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", "2030-01-01",
        "--out-dir", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--split" in err and f"[{dates[0]}, {dates[-1]}]" in err, err
    assert "failed" not in err  # no subset was fitted
    assert not (tmp_path / "manifest.txt").exists()


@pytest.mark.parametrize("mode", ["price", "return"])
@pytest.mark.parametrize("edge", ["second day", "last day"])
def test_backtest_static_one_day_window_fails_the_run(quotes, tmp_path, capsys, edge, mode):
    # a one-day window rebased to 100 is matched by any portfolio
    data_dir, dates = quotes
    split = dates[1] if edge == "second day" else dates[-1]
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", str(split),
        "--mode", mode, "--out-dir", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: --split: ") and "each window needs at least 2" in err, err
    assert "failed" not in err  # no subset was fitted
    assert not (tmp_path / "manifest.txt").exists()


# violent volatility drives Euler steps below zero
VIOLENT_PARAMS = "mu=1.0\ntheta=5.0\nsigma=60.0\nmu_tilde=1.39\ntheta_tilde=26.03\n"


def test_simulate_counts_clamped_steps(tmp_path):
    (tmp_path / "params.txt").write_text(VIOLENT_PARAMS)
    (tmp_path / "scenario.txt").write_text("seed=5\n")
    code = main([
        "simulate", "--params", str(tmp_path / "params.txt"),
        "--scenario", str(tmp_path / "scenario.txt"), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    hist = vixtrack.HistoricalParams(1.0, 5.0, 60.0)
    g = vixtrack.LocalVol.square_root(60.0)
    s0 = [m * 5.0 for m in (1.0, 1.0 / 3.0, 3.0)]  # the default multipliers
    paths = vixtrack.simulate_index_paths(hist, g, s0, 63, 3, 5)
    clamped = sum(path.n_clamped for path in paths)
    assert clamped > 0
    assert read_manifest(tmp_path / "out")["count.clamped_steps"] == str(clamped)


def test_simulate_non_finite_dynamic_wealth_fails_the_run(tmp_path, capsys):
    # over 60 cycles the paths sit at the Euler floor long enough for w*
    # to reach 1e8 and the dynamic wealth to overflow
    (tmp_path / "params.txt").write_text(VIOLENT_PARAMS)
    (tmp_path / "scenario.txt").write_text("seed=5\n")
    code = main([
        "simulate", "--params", str(tmp_path / "params.txt"), "--cycles", "60",
        "--scenario", str(tmp_path / "scenario.txt"), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 4
    err = capsys.readouterr().err
    assert err == (
        "degenerate optimization: scenario s0_1x: dynamic wealth not finite on day 224\n"
    )
    assert list((tmp_path / "out").iterdir()) == []  # no table, no manifest


def test_simulate_later_pair_holds_no_front_contract(calibrated, tmp_path):
    code, params = calibrated
    assert code == 0
    (tmp_path / "scenario.txt").write_text("contracts=2,3\n")
    code = main([
        "simulate", "--params", str(params / "params.txt"),
        "--scenario", str(tmp_path / "scenario.txt"), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    assert read_manifest(tmp_path / "out")["config.contracts"] == "2,3"
    header, rows = table(tmp_path / "out" / "weights.tsv")
    labels = ("s0_1x", "s0_0p333333x", "s0_3x")
    assert header == ["day", "vxx_w1"] + [f"dynamic_w1_{label}" for label in labels]
    assert len(rows) == 63
    assert all(row[2:] == ["0.0"] * len(labels) for row in rows)
    assert_numeric_cells(tmp_path / "out")


def test_simulate_front_contract_second_in_the_pair(calibrated, tmp_path):
    # contracts=2,1: the dynamic tracker's w1 is on rank 2, so the front
    # contract (rank 1) holds 1 - w1
    code, params = calibrated
    assert code == 0
    (tmp_path / "scenario.txt").write_text("contracts=2,1\n")
    code = main([
        "simulate", "--params", str(params / "params.txt"),
        "--scenario", str(tmp_path / "scenario.txt"), "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    hist, rn = read_params_file(params / "params.txt")
    mults = (1.0, 1.0 / 3.0, 3.0)  # the default multipliers, and seed 1
    g = vixtrack.LocalVol.square_root(hist.sigma)
    paths = vixtrack.simulate_index_paths(hist, g, [m * hist.theta for m in mults], 63, 3, 1)
    header, rows = table(tmp_path / "out" / "weights.tsv")
    for label, path in zip(("s0_1x", "s0_0p333333x", "s0_3x"), paths):
        curves = vixtrack.SimulatedCurves(path.values, rn, 0.01)
        w1, _, _ = vixtrack.track(curves, (2, 1), 1.0, hist, rn)
        column = header.index(f"dynamic_w1_{label}")
        assert [row[column] for row in rows] == [repr(w) for w in (1.0 - w1).tolist()]


FOUR_LEVELS = {"s0_1x": 1.0, "s0_0p5x": 0.5, "s0_2x": 2.0, "s0_3x": 3.0}


@pytest.mark.parametrize(
    "contracts,levels",
    [((1, 2), FOUR_LEVELS), ((2, 3), FOUR_LEVELS), ((2, 1), FOUR_LEVELS), ((1, 2), {"s0_1x": 1.0})],
    ids=["contracts0", "contracts1", "contracts2", "one_scenario"],
)
def test_simulate_files_equal_the_per_scenario_loop(calibrated, tmp_path, contracts, levels):
    """All scenarios run as one batch; each per-day table, and each
    scenario's fit, equals, byte for byte, the one-scenario-at-a-time
    loop's arrays and 1-D fits written the same way in this process (no digests: numpy's exp may differ in the last
    bit between CPUs).  One scenario is the one-row batch."""
    _, params = calibrated
    i1, i2 = contracts
    mults = tuple(levels.values())
    (tmp_path / "scenario.txt").write_text(
        f"contracts={i1},{i2}\nr=0.03\nbeta=0.7\nseed=4\n"
        f"s0_multipliers={','.join(f'{m:g}' for m in mults)}\n"
    )
    out = tmp_path / "out"
    assert main([
        "simulate", "--params", str(params / "params.txt"), "--scenario",
        str(tmp_path / "scenario.txt"), "--cycles", "4", "--out-dir", str(out),
    ]) == 0
    hist, rn = read_params_file(params / "params.txt")
    g = vixtrack.LocalVol.square_root(hist.sigma)
    paths = vixtrack.simulate_index_paths(hist, g, [m * hist.theta for m in mults], 84, len(mults), 4)
    values = np.stack([path.values for path in paths])
    w_dyn, w_vxx, wealth = oracles.simulate_loop(
        values, 3 + max(i1, i2, 2), contracts, 0.7, 0.03, hist, rn
    )
    returns = vixtrack.holding_period_returns
    # the roll's weight depends on the day only: weights.tsv writes it once
    vxx = w_vxx[0].tolist()
    fronts = []
    for k, label in enumerate(levels):
        assert w_vxx[k].tolist() == vxx
        index = (100.0 * values[k] / values[k, 0]).tolist()
        # one 1-D fit per scenario, as the batch's row-wise fit must give
        reg = vixtrack.ols_regression(returns(values[k], 1), returns(wealth[k], 1))
        p_one = vixtrack.slope_one_p(reg)
        max_abs = [np.max(np.abs([w, 1.0 - w])) for w in (w_dyn[k], w_vxx[k])]
        # the dynamic pair's weight on the front contract
        front = np.zeros(84) if 1 not in contracts else w_dyn[k] if i1 == 1 else 1.0 - w_dyn[k]
        fronts.append(front.tolist())
        want = {
            "wealth": ["day\tindex\tvxx\tdynamic"] + [
                f"{j}\t{x!r}\t{v!r}\t{d!r}"
                for j, (x, v, d) in enumerate(zip(index, *wealth[k, ::-1].tolist()))
            ],
            "scatter": [
                "portfolio\tslope\tslope_se\tintercept\tintercept_se\tr2\tp_slope_eq_1"
                "\tmax_abs_weight"
            ] + [
                f"{name}\t{reg.slope[i]:.6f}\t{reg.slope_se[i]:.3e}\t{reg.intercept[i]:.3e}"
                f"\t{reg.intercept_se[i]:.3e}\t{reg.r2[i]:.6f}\t{p_one[i]:.3e}\t{max_abs[i]:.4f}"
                for i, name in enumerate(("dynamic", "vxx"))
            ],
            "scatter_points": ["index_return\tportfolio_return"] + [
                f"{x!r}\t{y!r}"
                for x, y in zip(returns(values[k], 1).tolist(), returns(wealth[k, 0], 1).tolist())
            ],
        }
        for kind, lines in want.items():
            got = (out / f"{kind}_{label}.tsv").read_bytes()
            assert got == ("\n".join(lines) + "\n").encode(), f"{kind}_{label}.tsv"
    lines = ["\t".join(["day", "vxx_w1", *(f"dynamic_w1_{label}" for label in levels)])] + [
        "\t".join([str(j), *map(repr, w)]) for j, w in enumerate(zip(vxx, *fronts))
    ]
    assert (out / "weights.tsv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "module", ["vixtrack"] + [f"vixtrack.{m.name}" for m in pkgutil.iter_modules(vixtrack.__path__)]
)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks a star import, and any reader that
    # looks each entry up with getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= namespace.keys()


def test_package_exports_exactly_the_layer_lists():
    # each layer's __all__ is the one list of public names: the package
    # exports every listed name as the same object, and no function or
    # class that no layer lists
    listed = {}
    for info in pkgutil.iter_modules(vixtrack.__path__):
        mod = importlib.import_module(f"vixtrack.{info.name}")
        listed.update((name, getattr(mod, name)) for name in getattr(mod, "__all__", ()))
    assert {name: getattr(vixtrack, name, None) for name in listed} == listed
    exported = {
        name for name, value in vars(vixtrack).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert exported <= listed.keys()
    assert set(vixtrack.__all__) == listed.keys()


def test_regress(quotes, tmp_path):
    data_dir, _ = quotes
    code = main(["regress", "--data-dir", str(data_dir), "--out-dir", str(tmp_path)])
    assert code == 0
    kv = assert_manifest(
        tmp_path, "regress",
        ("data_dir", "window", "n_ranks", "horizons", "ranks", "max_horizon"),
        QUOTE_FILES,
        (*DROPPED, "early_rolls"),
    )
    assert kv["count.early_rolls"] == "0"
    _, rows = table(tmp_path / "one_day_regressions.tsv")
    assert [row[0] for row in rows] == RANKS
    assert all(int(row[-1]) == N_DAYS - 1 for row in rows)
    header, _ = table(tmp_path / "holding_period_table.tsv")
    assert header[2:] == RANKS
    for rank in (1, 2, 3):
        assert (tmp_path / f"intercepts_{rank}m.tsv").is_file()
    assert (tmp_path / "scatter_1m_1d.tsv").is_file()
    assert_numeric_cells(tmp_path)


@pytest.mark.parametrize(
    "flags, where",
    [
        (["--max-horizon", "67"], "--max-horizon: horizon 67 "),
        (["--horizons", "1,5,67"], "--horizons: horizon 67 "),
        (["--horizons", "1,500", "--max-horizon", "630"], "--horizons: horizon 500 "),
    ],
)
def test_regress_horizon_past_the_panel_fails_before_any_table(
    quotes, tmp_path, capsys, flags, where
):
    # 200 days leave 3 disjoint windows for h <= 66
    data_dir, _ = quotes
    argv = ["regress", "--data-dir", str(data_dir), *flags, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"data error: {where}leaves fewer than 3 disjoint windows in the panel's 200 days\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_regress_longest_horizon_with_3_windows_runs(quotes, tmp_path):
    data_dir, _ = quotes
    argv = ["regress", "--data-dir", str(data_dir), "--horizons", "66", "--max-horizon", "66"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    _, rows = table(tmp_path / "intercepts_1m.tsv")
    assert len(rows) == 66


def test_regress_early_rolls_count_the_built_ranks(tmp_path):
    # F02 settles on day 42, and its close that day is commented out:
    # rank 1 rolls out of it on day 41, rank 2 is past it by then
    dates = write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3)
    futures = tmp_path / "q" / "futures.csv"
    futures.write_text(futures.read_text().replace(f"{dates[42]},F02,close,", "#"))
    argv = ["regress", "--data-dir", str(tmp_path / "q"), "--ranks", "1,2"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert read_manifest(tmp_path / "out")["count.early_rolls"] == "1"


@pytest.mark.parametrize("seed", [0, 3])
def test_regress_slopes_follow_the_model(tmp_path, seed):
    # Futures react too slowly: on model-priced quotes a held contract's
    # one-day return is e^(-mu_tilde T) S/f times the spot return, to
    # first order, so the slope weights that factor by x^2 per day.
    # Over seeds 0-59 of this fixture the largest gap was 0.0018.
    write_quote_files(tmp_path / "q", n_days=1260, seed=seed)
    argv = ["regress", "--data-dir", str(tmp_path / "q"), "--n-ranks", "8"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    _, rows = table(tmp_path / "out" / "one_day_regressions.tsv")
    slopes = np.array([float(row[1]) for row in rows])

    panel = vixtrack.load_panel(tmp_path / "q", n_ranks=8)
    x = panel.spot[1:] / panel.spot[:-1] - 1.0
    held = vixtrack.rank_columns(panel.ttms, *range(1, 8))
    ttm = np.take_along_axis(panel.ttms[:-1], held, axis=1)
    price = np.take_along_axis(panel.prices[:-1], held, axis=1)
    sensitivity = np.exp(-FIT_RN.mu_tilde * ttm) * panel.spot[:-1, None] / price
    implied = x**2 @ sensitivity / np.sum(x**2)
    assert np.all(np.abs(slopes - implied) <= 0.0025)
    assert slopes[0] < 0.95 and slopes[-1] < 0.4
    assert np.all(np.diff(slopes) < 0)


PARAMS = "mu=10.86\ntheta=18.81\nsigma=6.37\nmu_tilde=1.39\ntheta_tilde=26.03\n"


@pytest.mark.parametrize(
    "params,scenario,argv,where",
    [
        (PARAMS + "mle_converged\n", None, [], ("params.txt", "line 6")),
        (PARAMS.replace("mu=10.86", "mu=abc"), None, [], ("params.txt", "line 1", "mu")),
        (PARAMS.replace("theta=18.81\n", ""), None, [], ("params.txt", "'theta'")),
        (PARAMS, "beta=1\ncontracts=1,2,3\n", [], ("scenario.txt", "line 2", "contracts")),
        (PARAMS, "# levels\ncycles=2.5\n", [], ("scenario.txt", "line 2", "cycles", "unknown key")),
        (PARAMS, "cycles=2\n", [], ("scenario.txt", "line 1", "cycles", "unknown key")),
        (PARAMS, "contracts=1\n", [], ("scenario.txt", "line 1", "contracts", "two ranks")),
        (PARAMS, "beta=1\ncylces=2\n", [], ("scenario.txt", "line 2", "cylces", "unknown key")),
        (PARAMS, "r=nan\n", [], ("scenario.txt", "line 1", "key r", "finite")),
        (PARAMS, "r=0.02\nbeta=inf\n", [], ("scenario.txt", "line 2", "key beta", "finite")),
        (PARAMS, "contracts=0,1\n", [], ("scenario.txt", "line 1", "key contracts", ">= 1")),
        (PARAMS, "s0_multipliers=1,0\n", [], ("scenario.txt", "line 1", "key s0_multipliers", "> 0")),
        (PARAMS, "s0_multipliers=nan\n", [], ("scenario.txt", "line 1", "key s0_multipliers", "> 0")),
        (PARAMS, "seed=-1\n", [], ("scenario.txt", "line 1", "key seed", ">= 0")),
        (PARAMS, "seed=4\n", ["--cycles", "0"], ("--cycles", ">= 1")),
        (PARAMS, None, ["--cycles", "0"], ("--cycles", ">= 1")),
        (PARAMS, None, ["--cycles", "2.5"], ("--cycles", "'2.5'")),
        (None, None, ["regress", "--ranks", "1,x"], ("--ranks", "'1,x'")),
        (None, None, ["regress", "--horizons", "1,,5"], ("--horizons", "'1,,5'")),
        (None, None, ["regress", "--horizons", "0,5"], ("--horizons", "'0,5'", ">= 1")),
        (None, None, ["regress", "--max-horizon", "0"], ("--max-horizon", ">= 1")),
        (None, None, ["regress", "--max-horizon", "-3"], ("--max-horizon", ">= 1")),
        (None, None, ["calibrate", "--n-ranks", "0"], ("--n-ranks", ">= 1")),
        (None, None, ["calibrate", "--n-ranks", "-1"], ("--n-ranks", ">= 1")),
        (None, None, ["regress", "--n-ranks", "x"], ("--n-ranks", "'x'")),
        (None, None, ["calibrate", "--window", "2021-01-04:2021-13-01"], ("--window", "2021-13-01")),
        (None, None, ["calibrate", "--window", "2021-01-04"], ("--window", "START:END")),
        (None, None, ["calibrate", "--window", "2021-06-01:2021-01-04"], ("--window", "START not after END")),
        (None, None, ["calibrate", "--window", "20210104:20210601"], ("--window", "from 1000-01-01 to 9999-12-31")),
        (None, None, ["backtest-static", "--split", "20210601"], ("--split", "'20210601'", "from 1000-01-01 to 9999-12-31")),
        (None, None, ["backtest-static", "--split", "2021-02-01", "--subsets", "1;;2"], ("--subsets", "'1;;2'")),
        (None, None, ["backtest-static", "--split", "2021-02-30"], ("--split", "2021-02-30")),
        (PARAMS + "mu=50\n", None, [], ("params.txt", "line 6", "duplicate key mu (first on line 1)")),
        (PARAMS.replace("mu=10.86", "mu=inf"), None, [], ("params.txt", "line 1", "key mu:", "> 0")),
        (PARAMS.replace("sigma=6.37", "sigma=-1"), None, [], ("params.txt", "line 3", "key sigma", "> 0")),
        (PARAMS.replace("sigma=6.37", "sigma=0"), None, [], ("params.txt", "line 3", "key sigma", "> 0")),
        (PARAMS.replace("theta_tilde=26.03", "theta_tilde=0"), None, [], ("params.txt", "line 5", "key theta_tilde", "> 0")),
        (PARAMS, "contracts=2,2\n", [], ("scenario.txt", "line 1", "contracts", "two ranks")),
        (PARAMS, "seed=3\nr=0\nseed=4\n", [], ("scenario.txt", "line 3", "duplicate key seed (first on line 1)")),
        (PARAMS, "s0_multipliers=1,1.0000001,3\n", [], ("scenario.txt", "line 1", "key s0_multipliers", "distinct file labels")),
        (None, None, ["regress", "--ranks", "1,1,2"], ("--ranks", "'1,1,2'", "distinct ranks")),
        (None, None, ["regress", "--horizons", "1,5,5"], ("--horizons", "'1,5,5'", "distinct horizons")),
        (None, None, ["backtest-static", "--split", "2021-02-01", "--subsets", "1;1;2"], ("--subsets", "'1;1;2'", "distinct subsets")),
        (None, None, ["regress", "--ranks", "0,1"], ("--ranks", "'0,1'", ">= 1")),
        (None, None, ["backtest-static", "--split", "2021-02-01", "--subsets", "0;1"], ("--subsets", "'0;1'", ">= 1")),
        (None, None, ["backtest-static", "--split", "2021-02-01", "--subsets", "1,1;2"], ("--subsets", "'1,1;2'", "distinct ranks")),
        (None, None, ["backtest-static", "--split", "2021-02-01", "--subsets", "1,2;2,1"], ("--subsets", "'1,2;2,1'", "distinct subsets")),
    ],
)
def test_malformed_key_value_files_are_named(
    quotes, tmp_path, capsys, params, scenario, argv, where
):
    """A malformed parameter or scenario file names the file, line and
    key; a malformed flag names the flag, and no manifest is written."""
    if params is None:
        argv = [*argv, "--data-dir", str(quotes[0])]
    else:
        (tmp_path / "params.txt").write_text(params)
        argv = ["simulate", "--params", str(tmp_path / "params.txt"), *argv]
    if scenario is not None:
        (tmp_path / "scenario.txt").write_text(scenario)
        argv += ["--scenario", str(tmp_path / "scenario.txt")]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert all(part in err for part in where), err
    assert not (tmp_path / "out" / "manifest.txt").exists()


@pytest.mark.parametrize("name", ["params.txt", "scenario.txt"])
def test_byte_order_mark_leaves_a_key_value_file_as_it_was(tmp_path, name):
    # spreadsheet and some editor exports start a UTF-8 file with one
    files = {"params.txt": PARAMS, "scenario.txt": "seed=4\ncontracts=1,3\n"}
    runs = {}
    for bom in (b"", codecs.BOM_UTF8):
        run = tmp_path / ("marked" if bom else "plain")
        run.mkdir()
        for file, text in files.items():
            (run / file).write_bytes((bom if file == name else b"") + text.encode())
        argv = ["simulate", "--params", str(run / "params.txt"), "--cycles", "1"]
        argv += ["--scenario", str(run / "scenario.txt"), "--out-dir", str(run / "out")]
        assert main(argv) == 0
        runs[bom] = {p.name: p.read_bytes() for p in (run / "out").iterdir()}
    plain, marked = runs.values()
    del plain["manifest.txt"], marked["manifest.txt"]
    assert plain == marked


@pytest.mark.parametrize("flag", ["--params", "--scenario"])
def test_simulate_missing_input_file_fails_the_run(calibrated, tmp_path, capsys, flag):
    files = {"--params": calibrated[1] / "params.txt", "--scenario": tmp_path / "scenario.txt"}
    files["--scenario"].write_text("seed=2\n")
    files[flag] = tmp_path / "absent.txt"
    argv = ["simulate", *(str(arg) for item in files.items() for arg in item)]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and f"{tmp_path / 'absent.txt'} not found" in err, err
    assert not (tmp_path / "out" / "manifest.txt").exists()


def default_argv(command, calibrated, quotes):
    """The flags ``command`` cannot run without, on the test fixtures."""
    data_dir, dates = quotes
    return [command] + {
        "calibrate": ["--data-dir", str(data_dir)],
        "backtest-static": ["--data-dir", str(data_dir), "--split", str(dates[150])],
        "simulate": ["--params", str(calibrated[1] / "params.txt")],
        "regress": ["--data-dir", str(data_dir)],
    }[command]


COMMANDS = ["calibrate", "backtest-static", "simulate", "regress"]
SCENARIO_SETTINGS = {"beta", "seed", "r", "contracts", "s0_multipliers"}


@pytest.mark.parametrize("command", COMMANDS)
def test_manifest_records_every_flag(calibrated, quotes, tmp_path, command):
    """The config keys of the manifest are exactly the parsed flags (and
    simulate's scenario settings), so equal manifests mean equal
    settings."""
    argv = default_argv(command, calibrated, quotes)
    if command == "simulate":
        (tmp_path / "scenario.txt").write_text("seed=2\n")
        argv += ["--scenario", str(tmp_path / "scenario.txt")]
    argv += ["--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    kv = read_manifest(tmp_path / "out")
    dests = set(vars(build_parser().parse_args(argv))) - {"out_dir", "func", "command"}
    if command == "simulate":
        dests |= SCENARIO_SETTINGS
        assert kv["config.seed"] == "2" and "input.scenario.sha256" in kv
    assert {k for k in kv if k.startswith("config.")} == {f"config.{d}" for d in dests}


@pytest.mark.parametrize("command", COMMANDS)
def test_equal_manifests_mean_identical_outputs(calibrated, quotes, tmp_path, command):
    """Run twice with the default flags: every output is byte-identical
    and the manifests differ only in the elapsed time."""
    argv = default_argv(command, calibrated, quotes)
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(argv + ["--out-dir", str(out)]) == 0
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    manifests = [read_manifest(out) for out in runs]
    assert sorted(v for k, v in manifests[0].items() if k.startswith("output.")) == [
        n for n in names if n != "manifest.txt"
    ]
    for name in names:
        if name != "manifest.txt":
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    for kv in manifests:
        del kv["elapsed_seconds"]
    assert manifests[0] == manifests[1]


def rewrite_quotes(src, dst, shuffle=False, days=0, letter="F", scale=1.0):
    """Copy the quote files of ``src`` into ``dst``: the rows of each
    file in a shuffled order, every date ``days`` later, contract codes
    starting with ``letter`` in place of F, every close times ``scale``."""
    dst.mkdir()
    rng = np.random.default_rng(0)
    for name in QUOTE_FILES:
        header, *rows = (src / name).read_text().splitlines()
        cells = [row.split(",") for row in rows]
        for row in cells:
            row[0] = str(np.datetime64(row[0]) + days)
            if name == "futures.csv":
                row[1] = letter + row[1][1:]
            if row[2] == "close":
                row[3] = repr(float(row[3]) * scale)
        if shuffle:
            rng.shuffle(cells)
        (dst / name).write_text("\n".join([header, *map(",".join, cells)]) + "\n")


# quote edits that change no trading-day count, ACT/360 gap or expiry
# order; the scales are powers of two, so every scaled close is exact
INVARIANT_EDITS = {
    "shuffled rows": {"shuffle": True},
    "dates + 7": {"days": 7},
    "dates + 364": {"days": 364},
    "codes F to Z": {"letter": "Z"},
    "closes x 0.5": {"scale": 0.5},
    "closes x 2": {"scale": 2.0},
}


@pytest.mark.parametrize("command", ["calibrate", "regress", "backtest-static"])
def test_outputs_ignore_calendar_labels_and_exact_scale(quotes, tmp_path, command):
    """The quote edits of ``INVARIANT_EDITS`` leave every output file
    and every count of the manifest byte-identical.  ``calibrate``
    skips the scaled closes: its fitted levels scale with them."""
    data_dir, dates = quotes

    def outputs(name, quote_dir, days=0):
        out = tmp_path / name / "out"
        argv = [command, "--data-dir", str(quote_dir), "--out-dir", str(out)]
        if command == "backtest-static":
            argv += ["--split", str(dates[150] + days)]
        assert main(argv) == 0
        kv = read_manifest(out)
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.txt"}
        return files, {k: v for k, v in kv.items() if k.startswith(("count.", "output."))}

    want = outputs("as written", data_dir)
    for name, edits in INVARIANT_EDITS.items():
        if command == "calibrate" and "scale" in edits:
            continue
        rewrite_quotes(data_dir, tmp_path / name, **edits)
        assert outputs(name, tmp_path / name, edits.get("days", 0)) == want, name


def simulate_tables(out, c, seed):
    """Run simulate at the paper's parameters with theta, theta_tilde
    times ``c`` and sigma times sqrt(c), on the default scenario with
    ``seed``; return each table's rows of cells and the manifest's
    counts."""
    out.mkdir()
    mu, theta, sigma = FIT_HIST.mu, FIT_HIST.theta, FIT_HIST.sigma
    mu_tilde, theta_tilde = FIT_RN.mu_tilde, FIT_RN.theta_tilde
    (out / "params.txt").write_text(
        f"mu={mu!r}\ntheta={c * theta!r}\nsigma={math.sqrt(c) * sigma!r}\n"
        f"mu_tilde={mu_tilde!r}\ntheta_tilde={c * theta_tilde!r}\n"
    )
    (out / "scenario.txt").write_text(f"seed={seed}\n")
    argv = ["--params", str(out / "params.txt"), "--scenario", str(out / "scenario.txt")]
    assert main(["simulate", *argv, "--out-dir", str(out / "run")]) == 0
    tables = {
        path.name: [line.split("\t") for line in path.read_text().splitlines()]
        for path in sorted((out / "run").glob("*.tsv"))
    }
    counts = {k: v for k, v in read_manifest(out / "run").items() if k.startswith("count.")}
    return tables, counts


def last_digit(cell):
    """One unit in the last written digit of a number cell."""
    mantissa, _, exponent = cell.partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


@settings(max_examples=20, deadline=None)
@given(c=st.floats(0.25, 4.0), seed=st.integers(0, 2**32 - 1))
def test_simulate_is_scale_equivariant(tmp_path_factory, c, seed):
    """cS is CIR(mu, c theta, sqrt(c) sigma), and with theta_tilde times
    c its futures are c times S's: every written return, weight, wealth
    and fit stays as it is.  The values are compared numerically, since
    a rounded cell can flip in its last digit at some c.  Over 16,000
    runs (seeds 0-399, each at 20 log-spaced and 20 uniform values of c
    in [0.25, 4]) the largest difference of a full-precision cell was
    1.1e-14 of max(1, |value|) (a weight; wealth 6.7e-15, returns
    5.3e-15), and no rounded cell differed; the bound is about twice
    that, plus one unit in the last written digit."""
    tmp = tmp_path_factory.mktemp("scale")
    want_tables, want_counts = simulate_tables(tmp / "c1", 1.0, seed)
    tables, counts = simulate_tables(tmp / "c", c, seed)
    assert counts == want_counts
    assert tables.keys() == want_tables.keys()
    for name, rows in tables.items():
        assert rows[0] == want_tables[name][0], name  # the header
        assert [len(row) for row in rows] == [len(row) for row in want_tables[name]], name
        for row, want_row in zip(rows[1:], want_tables[name][1:]):
            for cell, want in zip(row, want_row):
                if cell != want:
                    bound = 2e-14 * max(1.0, abs(float(want))) + last_digit(want)
                    assert abs(float(cell) - float(want)) <= bound, (name, cell, want)


@pytest.mark.parametrize(
    "case",
    ["import", "regress", "backtest-static", "paths", "simulate", "calibrate", "calibrate-corner"],
)
def test_scipy_is_imported_only_where_it_is_called(calibrated, quotes, tmp_path, case):
    """In a fresh interpreter, importing the CLI, the engine and the
    regress and backtest-static runs load no scipy module; simulate's
    Student-t p-values load scipy.special, and not the optimizers or
    scipy.linalg.  A calibrate run loads no optimizer either, also where
    its MLE ends on the box (exit 3): its two searches are the
    library's own."""
    if case == "import":
        code = "import vixtrack.cli"
    elif case == "paths":
        code = (
            "import vixtrack as v; h = v.HistoricalParams(5.0, 20.0, 0.8)\n"
            "v.simulate_index_paths(h, v.LocalVol.square_root(h.sigma), [20.0, 30.0], 100, 2, 0)"
        )
    elif case == "calibrate-corner":
        write_quote_files(tmp_path / "q", n_days=N_DAYS, seed=3, hist=CORNER_HIST)
        argv = ["calibrate", "--data-dir", str(tmp_path / "q"), "--out-dir", str(tmp_path / "out")]
        code = f"from vixtrack.cli import main\nassert main({argv!r}) == 3"
    else:
        argv = default_argv(case, calibrated, quotes) + ["--out-dir", str(tmp_path)]
        code = f"from vixtrack.cli import main\nassert main({argv!r}) == 0"
    code += "\nimport sys; print('scipy:', *(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(run.stdout.splitlines()[-1].split()[1:])
    if case == "simulate":
        assert "scipy.special" in loaded, loaded
        assert not loaded & {"scipy.optimize", "scipy.linalg"}, loaded
    elif case.startswith("calibrate"):
        assert "scipy.optimize" not in loaded, loaded
    else:
        assert loaded == set()
