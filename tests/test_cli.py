"""Every subcommand run end to end with its default flags on generated
quote files, and the package's public names."""

import importlib
import pkgutil

import pytest

import vixtrack
from vixtrack.cli import build_parser, main

from conftest import write_quote_files

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


def assert_manifest(out, subcommand, config, inputs):
    kv = read_manifest(out)
    assert kv["subcommand"] == subcommand
    assert kv["version"] == vixtrack.__version__
    assert float(kv["elapsed_seconds"]) >= 0.0
    assert {k for k in kv if k.startswith("config.")} == {f"config.{k}" for k in config}
    assert {k for k in kv if k.startswith("input.")} == {
        f"input.{name}.sha256" for name in inputs
    }
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


def test_calibrate(calibrated):
    code, out = calibrated
    assert code == 0
    kv = assert_manifest(out, "calibrate", ("data_dir", "window", "n_ranks"), QUOTE_FILES)
    assert kv["output.0"] == "params.txt"
    for line in (out / "params.txt").read_text().splitlines():
        key, value = line.split("=", 1)
        if value not in ("true", "false"):
            float(value)


def test_backtest_static(quotes, tmp_path):
    data_dir, dates = quotes
    split = str(dates[150])
    code = main([
        "backtest-static", "--data-dir", str(data_dir), "--split", split,
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    kv = assert_manifest(
        tmp_path, "backtest-static",
        ("data_dir", "window", "n_ranks", "split", "mode", "subsets", "n_failed_subsets"),
        QUOTE_FILES,
    )
    assert kv["config.n_failed_subsets"] == "0"
    header, rows = table(tmp_path / "static_price.tsv")
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
    assert read_manifest(tmp_path)["config.n_failed_subsets"] == "2"
    _, rows = table(tmp_path / "static_price.tsv")
    status = {row[0]: row[1:3] for row in rows}
    assert status["9-m"] == status["1-m,9-m"] == ["ERROR", "rank 9 not available on day 0"]
    assert status["1-m"][0] != "ERROR" and status["2-m"][0] != "ERROR"


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


def test_simulate(calibrated, tmp_path):
    code, params = calibrated
    assert code == 0
    code = main([
        "simulate", "--params", str(params / "params.txt"), "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert_manifest(
        tmp_path, "simulate",
        ("beta", "cycles", "seed", "r", "contracts", "s0_multipliers", "params"),
        ("params",),
    )
    for label in ("s0_1x", "s0_0p333333x", "s0_3x"):
        for kind in ("wealth", "weights", "scatter", "scatter_points"):
            assert (tmp_path / f"{kind}_{label}.tsv").is_file()
    assert_numeric_cells(tmp_path)


def test_simulate_later_pair_holds_no_front_contract(calibrated, tmp_path):
    code, params = calibrated
    assert code == 0
    code = main([
        "simulate", "--params", str(params / "params.txt"), "--contracts", "2,3",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    assert read_manifest(tmp_path)["config.contracts"] == "2,3"
    for label in ("s0_1x", "s0_0p333333x", "s0_3x"):
        header, rows = table(tmp_path / f"weights_{label}.tsv")
        assert header == ["day", "dynamic_w1", "vxx_w1"]
        assert len(rows) == 63
        assert all(row[1] == "0.0" for row in rows)
    assert_numeric_cells(tmp_path)


@pytest.mark.parametrize(
    "module", ["vixtrack"] + [f"vixtrack.{m.name}" for m in pkgutil.iter_modules(vixtrack.__path__)]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_regress(quotes, tmp_path):
    data_dir, _ = quotes
    code = main(["regress", "--data-dir", str(data_dir), "--out-dir", str(tmp_path)])
    assert code == 0
    assert_manifest(
        tmp_path, "regress",
        ("data_dir", "window", "n_ranks", "horizons", "ranks", "max_horizon"),
        QUOTE_FILES,
    )
    _, rows = table(tmp_path / "one_day_regressions.tsv")
    assert [row[0] for row in rows] == RANKS
    assert all(int(row[-1]) == N_DAYS - 1 for row in rows)
    header, _ = table(tmp_path / "holding_period_table.tsv")
    assert header[2:] == RANKS
    for rank in (1, 2, 3):
        assert (tmp_path / f"intercepts_{rank}m.tsv").is_file()
    assert (tmp_path / "scatter_1m_1d.tsv").is_file()
    assert_numeric_cells(tmp_path)


PARAMS = "mu=10.86\ntheta=18.81\nsigma=6.37\nmu_tilde=1.39\ntheta_tilde=26.03\n"


@pytest.mark.parametrize(
    "params,scenario,argv,where",
    [
        (PARAMS + "mle_converged\n", None, [], ("params.txt", "line 6")),
        (PARAMS.replace("mu=10.86", "mu=abc"), None, [], ("params.txt", "line 1", "mu")),
        (PARAMS.replace("theta=18.81\n", ""), None, [], ("params.txt", "'theta'")),
        (PARAMS, "beta=1\ncontracts=1,2,3\n", [], ("scenario.txt", "line 2", "contracts")),
        (PARAMS, "# levels\ncycles=2.5\n", [], ("scenario.txt", "line 2", "cycles")),
        (PARAMS, None, ["--contracts", "1"], ("--contracts",)),
        (PARAMS, "beta=1\ncylces=2\n", [], ("scenario.txt", "line 2", "cylces", "unknown key")),
        (None, None, ["regress", "--ranks", "1,x"], ("--ranks", "'1,x'")),
        (None, None, ["regress", "--horizons", "1,,5"], ("--horizons", "'1,,5'")),
        (None, None, ["calibrate", "--window", "2021-01-04:2021-13-01"], ("--window", "2021-13-01")),
        (None, None, ["calibrate", "--window", "2021-01-04"], ("--window", "START:END")),
        (None, None, ["backtest-static", "--split", "2021-02-01", "--subsets", "1;;2"], ("--subsets", "'1;;2'")),
        (None, None, ["backtest-static", "--split", "2021-02-30"], ("--split", "2021-02-30")),
    ],
)
def test_malformed_key_value_files_are_named(
    quotes, tmp_path, capsys, params, scenario, argv, where
):
    """A malformed parameter or scenario file names the file, line and
    key; a malformed flag names the flag."""
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


@pytest.mark.parametrize("command", ["calibrate", "backtest-static", "simulate", "regress"])
def test_manifest_records_every_flag(calibrated, quotes, tmp_path, command):
    """Every parsed flag is a config key of the manifest (the scenario
    file is an input digest), so equal manifests mean equal settings."""
    data_dir, dates = quotes
    argv = {
        "calibrate": ["--data-dir", str(data_dir)],
        "backtest-static": ["--data-dir", str(data_dir), "--split", str(dates[150])],
        "simulate": [
            "--params", str(calibrated[1] / "params.txt"),
            "--scenario", str(tmp_path / "scenario.txt"),
        ],
        "regress": ["--data-dir", str(data_dir)],
    }[command]
    (tmp_path / "scenario.txt").write_text("cycles=2\n")
    argv = [command, *argv, "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    kv = read_manifest(tmp_path / "out")
    dests = set(vars(build_parser().parse_args(argv))) - {"out_dir", "func", "command"}
    if command == "simulate":
        dests.remove("scenario")
        assert "input.scenario.sha256" in kv
    assert {f"config.{d}" for d in dests} <= set(kv)
