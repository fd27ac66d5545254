"""Byte-identity check of every CLI output against another commit.

    python3 bench/ab.py REF

exports commit REF of this repository with ``git archive`` into a
temporary directory, then runs each case below twice: with REF's
``src`` and with the working tree's, each in a fresh interpreter that
writes no bytecode.  Every output file must be byte-identical; a
manifest may differ only in ``elapsed_seconds`` and, as may stdout and
stderr, in the output directory's path.  The exit codes must match.
Prints one line per case and exits 1 on any difference.  A differing
``key=value`` file (``params.txt``, ``manifest.txt``) is reported key
by key, with both values and their relative gap.

The inputs are written once, by the working tree, and both trees read
the same files:

* ``bench``: ``perfbench/inputs.py::write_inputs(dir, 0)``, the
  benchmark's quotes, params and scenario;
* ``gap``: the same quotes without F04's 2015-05-01 close;
* ``small``: ``tests/conftest.py::write_quote_files(dir, n_days=300,
  seed=3)``.  Besides ``calibrate`` and ``regress`` it runs
  ``backtest-static --subsets "1;9;1,9;2"``: rank 9 cannot be built, so
  the ERROR rows and the ``subset ... failed`` stderr lines are compared
  too.  The case fails unless the working tree's manifest counts two
  failed subsets, since it would then test no unbuilt rank;
* ``violent``: ``tests/test_cli.py::VIOLENT_PARAMS`` and ``seed=5``,
  whose ``simulate`` clamps Euler steps to the floor.  The case fails
  if the working tree's manifest counts no clamped step, since it
  would then test no clamp;
* ``corner``: ``write_quote_files(dir, n_days=N_DAYS, seed=3,
  hist=CORNER_HIST)`` of ``tests/test_cli.py``, a nearly constant spot
  whose ``calibrate`` fit ends on the MLE's box.  The case fails unless
  the working tree's run exits 3, since it would then test no such fit.

The script only reads ``perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# the working tree's modules are imported here; neither tree gets a __pycache__
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[1]
GAP_ROW = "2015-05-01,F04,close,"
CLAMPING = "violent/simulate"
ON_THE_BOX = "corner/calibrate"
UNBUILT = "small/backtest-static-unbuilt"


def load_inputs():
    """``perfbench/inputs.py``, by path: ``perfbench/`` and ``tests/``
    each have an ``oracles.py``, so neither goes on ``sys.path``."""
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_input_sets(work: Path) -> dict:
    """Write the input sets under ``work``; return the cases, as name ->
    argv without ``--out-dir``."""
    inputs = load_inputs()
    bench = inputs.write_inputs(work / "bench", 0)

    gap = work / "gap"
    shutil.copytree(bench["quotes"], gap)
    lines = (gap / "futures.csv").read_text().splitlines(True)
    kept = [line for line in lines if not line.startswith(GAP_ROW)]
    if len(kept) != len(lines) - 1:
        found = len(lines) - len(kept)
        raise SystemExit(f"expected one {GAP_ROW!r} row in the bench quotes, found {found}")
    (gap / "futures.csv").write_text("".join(kept))

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from conftest import write_quote_files
    from test_cli import CORNER_HIST, N_DAYS, VIOLENT_PARAMS

    small = work / "small"
    small_dates = write_quote_files(small, n_days=300, seed=3)
    violent = work / "violent"
    violent.mkdir()
    (violent / "params.txt").write_text(VIOLENT_PARAMS)
    (violent / "scenario.txt").write_text("seed=5\n")
    corner = work / "corner"
    write_quote_files(corner, n_days=N_DAYS, seed=3, hist=CORNER_HIST)

    cases = {
        "bench/calibrate": ["calibrate", "--data-dir", bench["quotes"], "--n-ranks", "8"],
        "bench/simulate": [
            "simulate", "--params", bench["params"], "--scenario", bench["scenario"],
            "--cycles", str(inputs.FULL.cycles),
        ],
    }
    for name, quotes in (("bench", bench["quotes"]), ("gap", gap)):
        data = ["--data-dir", str(quotes), "--n-ranks", "8"]
        cases[f"{name}/regress"] = ["regress", *data]
        for mode in ("price", "return"):
            cases[f"{name}/backtest-static-{mode}"] = [
                "backtest-static", *data, "--split", bench["split"], "--mode", mode
            ]
    for command in ("calibrate", "regress"):
        cases[f"small/{command}"] = [command, "--data-dir", str(small)]
    cases[UNBUILT] = [
        "backtest-static", "--data-dir", str(small), "--split", str(small_dates[200]),
        "--subsets", "1;9;1,9;2",
    ]
    cases[CLAMPING] = [
        "simulate", "--params", str(violent / "params.txt"),
        "--scenario", str(violent / "scenario.txt"),
    ]
    cases[ON_THE_BOX] = ["calibrate", "--data-dir", str(corner)]
    return cases


def run(tree: Path, argv: list, out: Path) -> tuple:
    """Run ``vixtrack`` from ``tree``'s ``src``; return its exit code,
    stdout and stderr with ``out`` replaced by ``<out>``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "vixtrack.cli", *argv, "--out-dir", str(out)],
        env=env, capture_output=True, text=True,
    )
    texts = (done.stdout, done.stderr)
    return done.returncode, *(text.replace(str(out), "<out>") for text in texts)


def contents(out: Path) -> dict:
    """File name -> bytes of a run's outputs; the manifest without its
    ``elapsed_seconds`` line and with ``out`` replaced by ``<out>``."""
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    if "manifest.txt" in files:
        lines = files["manifest.txt"].decode().replace(str(out), "<out>").splitlines(True)
        files["manifest.txt"] = "".join(
            line for line in lines if not line.startswith("elapsed_seconds=")
        ).encode()
    return files


def key_values(data: bytes):
    """A file's ``key=value`` lines as a dict, or None if it has another
    line."""
    pairs = [line.split("=", 1) for line in data.decode().splitlines()]
    return dict(pairs) if all(len(pair) == 2 for pair in pairs) else None


def manifest_count(files: dict, name: str) -> int:
    """The ``count.<name>`` of a run's manifest, 0 without one."""
    return int((key_values(files.get("manifest.txt", b"")) or {}).get(f"count.{name}", 0))


def what_differs(name: str, file: str, ref: bytes, work: bytes) -> list:
    """One line per key whose value moved if both sides of a differing
    file are ``key=value`` lines, else (also where only the order or a
    repeat of the lines differs) one line naming the file."""
    pairs = key_values(ref), key_values(work)
    keys = sorted(pairs[0].keys() | pairs[1].keys()) if None not in pairs else []
    found = []
    for key in keys:
        a, b = (pair.get(key, "<absent>") for pair in pairs)
        if a != b:
            found.append(f"{name}: {file} {key}: {a} -> {b}{relative_gap(a, b)}")
    return found or [f"{name}: {file} differs"]


def relative_gap(a: str, b: str) -> str:
    """``, relative gap G`` for two numbers, |a - b| / max(|a|, |b|);
    empty for anything else."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return ""
    gap = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
    return f", relative gap {gap:.2e}"


def compare(ref: Path, work: Path, cases: dict) -> list:
    """Run every case on both trees; return the differences found."""
    differences = []
    for name, argv in cases.items():
        outs = [work / "out" / side / name for side in ("ref", "work")]
        runs = [run(tree, argv, out) for tree, out in zip((ref, ROOT), outs)]
        found = [
            f"{name}: {what} differs"
            for what, a, b in zip(("exit code", "stdout", "stderr"), *runs)
            if a != b
        ]
        files = [contents(out) if out.exists() else {} for out in outs]
        if files[0].keys() != files[1].keys():
            found.append(f"{name}: files {sorted(files[0])} against {sorted(files[1])}")
        for file in sorted(files[0].keys() & files[1].keys()):
            if files[0][file] != files[1][file]:
                found += what_differs(name, file, files[0][file], files[1][file])
        if name == CLAMPING and not manifest_count(files[1], "clamped_steps"):
            found.append(f"{name}: no Euler step clamped, so the case tests no clamp")
        if name == ON_THE_BOX and runs[1][0] != 3:
            found.append(f"{name}: exit {runs[1][0]}, not 3, so the case fits off the box")
        if name == UNBUILT and manifest_count(files[1], "failed_subsets") != 2:
            found.append(f"{name}: not 2 failed subsets, so the case tests no unbuilt rank")
        verdict = "DIFFERENT" if found else "identical"
        print(f"{name}: exit {runs[1][0]}, {len(files[1])} files, {verdict}", flush=True)
        differences += found
    return differences


def export(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` of this repository into a new
    directory ``dest``, with ``git archive``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True)
    if archive.returncode:
        raise SystemExit(archive.stderr.decode().strip())
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare the working tree against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="vixtrack-ab-") as tmp:
        tmp = Path(tmp)
        export(args.ref, tmp / "ref")
        differences = compare(tmp / "ref", tmp, write_input_sets(tmp / "inputs"))
    for line in differences:
        print(line)
    print(f"{len(differences)} differences against {args.ref}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
