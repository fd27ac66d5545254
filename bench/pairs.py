"""Alternated timing pairs of the benchmark against another commit.

    python3 bench/pairs.py REF OUT.json

exports commit REF of this repository and the working tree, each with
``git archive`` (as ``bench/ab.py`` does), into one temporary directory
(two checkouts in different places can measure differently).  The
working tree is exported as the commit ``git stash create`` makes of
its tracked files, or as HEAD when it has no change; an untracked file
under ``src/`` or ``perfbench/`` would be measured on neither side, so
it stops the script.  Both trees' bytecode is compiled, so that neither
side pays compilation at import.  Then, for each workload of
``BENCHMARK.json``, it runs ``PAIRS`` pairs of

    python3 perfbench/run.py --workload W --seed 0 --seconds 18 --trace 0

one from each tree, with the side that runs first alternating from
pair to pair.  It prints, per workload and
side, the median and quartiles of each end-to-end metric, and in how
many pairs the working tree's value is lower (every one of them is
better lower).  The quartiles of REF's runs are the spread of the
benchmark on this machine with no code change.  Beside them it prints
the change of the working tree's median from REF's, REF's spread
(interquartile range over median), and ``OVER BOUND`` where that
change exceeds the metric's ``bound`` in ``BENCHMARK.json``, the
relative worsening at which the benchmark's check refuses a change.

``OUT.json`` gets every run of both sides, both commits, the hash of
the tree exported as the working tree (``work_tree``; HEAD's tree when
there is no change) and the machine (CPU count, Python, numpy and scipy
versions).  A run that
fails stops the script.  The script only reads ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from ab import ROOT, export

PAIRS = 10
SEED = 0
SECONDS = 18
SIDES = ("ref", "work")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def work_commit() -> str:
    """The commit to export as the working tree: the one ``git stash
    create`` makes of its tracked files, or HEAD when it has no change.
    Stops on an untracked file under ``src/`` or ``perfbench/``, which
    neither side would run."""
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src", "perfbench")
    if untracked:
        raise SystemExit(f"untracked files would not be measured; add or remove them:\n{untracked}")
    return git("stash", "create") or git("rev-parse", "HEAD")


def bench_run(tree: Path, workload: str) -> dict:
    """One untraced ``perfbench/run.py`` run from ``tree``: its summary
    with each metric as a plain value."""
    argv = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    summary = json.loads(done.stdout.splitlines()[-1])
    summary["metrics"] = {name: m["value"] for name, m in summary["metrics"].items()}
    return summary


def quartiles(values: list) -> list:
    """First quartile, median and third quartile."""
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare the working tree against, e.g. HEAD~1")
    parser.add_argument("out", type=Path, help="JSON file to write every run to")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    work = work_commit()
    result = {
        "commits": {
            "ref": git("rev-parse", f"{args.ref}^{{commit}}"),
            "work": git("rev-parse", "HEAD"),
            "work_tree": git("rev-parse", f"{work}^{{tree}}"),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "settings": {"pairs": PAIRS, "seed": SEED, "seconds": SECONDS},
        "runs": [],
        "summary": {},
    }
    with tempfile.TemporaryDirectory(prefix="vixtrack-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export(args.ref, trees["ref"])
        export(work, trees["work"])
        for tree in trees.values():
            dirs = [str(tree / "src"), str(tree / "perfbench")]
            subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs], check=True)
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = bench_run(trees[side], workload)
                    runs[side].append(run["metrics"])
                    result["runs"].append(
                        {"workload": workload, "pair": pair, "side": side,
                         "first": side == order[0], **run}
                    )
                walls = (f"{side} {runs[side][-1]['wall_rel']:.4f}" for side in SIDES)
                print(f"{workload} pair {pair + 1}/{PAIRS}: {', '.join(walls)}", flush=True)
            table = result["summary"][workload] = {}
            for name, bound in bounds.items():
                values = {side: [run[name] for run in runs[side]] for side in SIDES}
                wins = sum(w < r for r, w in zip(values["ref"], values["work"]))
                spread = {side: quartiles(values[side]) for side in SIDES}
                ref_q = spread["ref"]
                change = spread["work"][1] / ref_q[1] - 1.0
                ref_spread = (ref_q[2] - ref_q[0]) / ref_q[1]
                over = change > bound
                table[name] = {
                    **spread, "work_lower_in": wins, "change": change,
                    "ref_spread": ref_spread, "over_bound": over,
                }
                cells = (
                    f"{side} median {q[1]:.4f} [{q[0]:.4f}, {q[2]:.4f}]"
                    for side, q in spread.items()
                )
                print(
                    f"  {name}: {'; '.join(cells)}; work lower in {wins}/{PAIRS}; "
                    f"change {change:+.1%} (bound {bound:.0%}, ref spread {ref_spread:.1%})"
                    + ("  OVER BOUND" if over else ""),
                    flush=True,
                )
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
