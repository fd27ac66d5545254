"""Tests of the benchmark itself: inputs, tracing, counters, checks and
a small-size run of every workload.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run
import spans

BENCH = Path(run.__file__).resolve().parent
COUNTS = (
    "data.load_panel.calls",
    "calibrate.loglik_evals",
    "calibrate.mle_iterations",
    "static.build_rolled_series.calls",
    "static.rolled_unique_frac",
    "analytics.ols_regression.calls",
    "simulate.euler_steps",
    "simulate.strategy_days",
    "dynamic.rule.calls",
    "dynamic.tracking_coefficients.calls",
    "trace.spans",
)


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_inputs(tmp_path):
    meta_a = inputs.write_inputs(tmp_path / "a", 7, inputs.SMALL)
    meta_b = inputs.write_inputs(tmp_path / "b", 7, inputs.SMALL)
    inputs.write_inputs(tmp_path / "c", 8, inputs.SMALL)
    a, b, c = (_files(tmp_path / k) for k in "abc")
    assert a == b
    assert a[Path("quotes/futures.csv")] != c[Path("quotes/futures.csv")]
    assert a[Path("scenario.txt")] != c[Path("scenario.txt")]
    assert meta_a["split"] == meta_b["split"]


def test_quote_set_has_live_ranks_and_settling_contract(tmp_path):
    meta = inputs.write_inputs(tmp_path, 0, inputs.SMALL)
    rows = [r.split(",") for r in (Path(meta["quotes"]) / "futures.csv").read_text().splitlines()[1:]]
    expiry_days = {d for d, _, field, _ in rows if field == "expiry"}
    per_day = {}
    for d, code, field, _ in rows:
        if field == "close":
            per_day.setdefault(d, []).append(code)
    assert len(per_day) == inputs.SMALL.n_days
    for d, codes in per_day.items():
        assert len(codes) == inputs.SMALL.n_live + (d in expiry_days)


def _span(name, start, end, parent):
    s = spans.Span(name, start, parent)
    s.end = end
    return s


def test_self_time_on_nested_spans():
    tree = [
        _span("outer", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("leaf", 1.5, 2.5, 1),  # covered by "a", not subtracted from "outer" again
        _span("b", 2.0, 4.0, 0),  # overlaps "a": the union [1, 4] counts once
        _span("a", 5.0, 6.0, 0),
    ]
    got = spans.summarize(tree)
    assert got["outer"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got["outer"]["s"] == pytest.approx(10.0)
    assert got["a"]["calls"] == 2
    assert got["a"]["s"] == pytest.approx(3.0)
    assert got["a"]["self_s"] == pytest.approx(2.0 - 1.0 + 1.0)
    assert got["leaf"]["self_s"] == pytest.approx(1.0)
    assert got["b"]["self_s"] == pytest.approx(2.0)


def _bindings():
    import vixtrack.cli  # noqa: F401  (loads every layer)

    mods = {k: dict(vars(m)) for k, m in sys.modules.items() if k.split(".")[0] == "vixtrack"}
    return mods, vixtrack.data.PricePanel.__dict__["observations"]


def test_wrappers_cover_every_binding_and_are_removed(tmp_path):
    import vixtrack
    import vixtrack.analytics
    import vixtrack.cli
    import vixtrack.static

    before = _bindings()
    original = vixtrack.static.build_rolled_series
    tracer = spans.Tracer()
    with tracer:
        wrapped = vixtrack.static.build_rolled_series
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert vixtrack.analytics.build_rolled_series is wrapped
        assert vixtrack.build_rolled_series is wrapped
        assert vixtrack.cli.load_panel is vixtrack.data.load_panel is vixtrack.load_panel
        meta = inputs.write_inputs(tmp_path, 0, inputs.SMALL)
        panel = vixtrack.cli.load_panel(meta["quotes"], n_ranks=8)
        panel.observations()
        vixtrack.analytics.slope_table(panel, (1, 5), (1, 2))
    names = spans.summarize(tracer.spans)
    assert names["data.load_panel"]["calls"] == 1
    assert names["data.observations"]["calls"] == 1
    assert names["static.build_rolled_series"]["calls"] == 4
    assert all(s.parent >= 0 for s in tracer.spans if s.name == "static.build_rolled_series")
    assert _bindings() == before
    assert vixtrack.static.build_rolled_series is original


def _measure(tmp_path, workload, trace, name):
    result = run.measure(workload, 3, 0, trace, "small", tmp_path / name, probes=1)
    return run.summarize(result, trace)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(tmp_path, workload):
    first = _measure(tmp_path, workload, True, "one")
    second = _measure(tmp_path, workload, True, "two")
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0
        assert out["metrics"]["ops.fail_frac"]["value"] == 0.0
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}
    if workload == "tables":
        assert first["metrics"]["static.build_rolled_series.calls"]["value"] == 190
    if workload == "paths":
        steps = inputs.SMALL.path_steps * inputs.SMALL.n_paths
        assert first["metrics"]["simulate.euler_steps"]["value"] == steps


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_small_run_passes(tmp_path, workload):
    out = _measure(tmp_path, workload, False, "run")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {"wall_rel", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wall_rel_is_median_of_rep_over_reference_kernel():
    reps = [
        {"traced": False, "wall_s": w, "ref_s": r, "attempted": 1, "failed": []}
        for w, r in ((2.0, 0.1), (3.0, 0.2), (1.2, 0.1), (4.0, 0.1))
    ]
    reps[3]["traced"] = True  # traced reps never enter end-to-end figures
    out = run.summarize({"reps": reps, "setup_s": [1.0, 3.0, 2.0], "peak_rss_mb": 50.0}, False)
    assert out["metrics"]["wall_rel"] == {"value": 15.0, "unit": "ref"}
    assert out["metrics"]["setup_s"]["value"] == 2.0
    assert out["attempted"] == 4 and out["failed"] == 0 and out["correct"]


def test_error_rows_count_as_failed_subsets(tmp_path):
    import workloads

    (tmp_path / "manifest.txt").write_text("subcommand=backtest-static\n")
    rows = ["futures\tw0\tw1\tw2\tw3\tw4\tin_rmse\tout_rmse"]
    rows += [f"{k}-m\t0.500\t0.500\t-\t-\t-\t1.000\t2.000" for k in range(1, 15)]
    rows.append("1,2-m\tERROR\trank-deficient")
    (tmp_path / "static_price.tsv").write_text("\n".join(rows) + "\n")
    ctx = workloads.Context("tables", {"truth": {}}, inputs.FULL)
    ops = workloads.Ops()
    workloads._check_static(ctx, tmp_path, 0, ops)
    assert len(ops.items) == 16
    assert ops.failed == ["subset 1,2-m: rank-deficient"]


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paths", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
