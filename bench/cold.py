"""Fresh-process cost of each subcommand against another commit.

    python3 bench/cold.py REF

exports commit REF and the working tree (as ``bench/pairs.py`` does)
and compiles both trees' bytecode, as an installed package has it.
Then, for each ``bench/`` case of ``bench/ab.py`` (one or two per
subcommand, on the benchmark's quotes), it runs ``RUNS`` pairs of

    python3 -c "from vixtrack.cli import main; main(ARGV)"

one from each tree, each in a fresh interpreter, with the side that
runs first alternating from pair to pair.  So each run pays for what a
real invocation pays for: the interpreter, every import (lazy ones
included) and the work.  It prints, per case and side, the median and
quartiles of the process's wall time, of its peak resident set
(``VmHWM``, see ``CHILD``) and of the number of modules it loaded
(``len(sys.modules)``), and in how many pairs the working tree's wall
time is lower.  A run whose exit code differs between the two sides
stops the script.  The script only reads ``perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab import export, write_input_sets
from pairs import SIDES, work_commit

RUNS = 12
# The child's last stdout line: exit code, peak RSS in kB and loaded
# modules.  The peak is VmHWM, that of the process's own memory since its
# exec: ru_maxrss would also count the pages of this larger parent at the
# fork.  From a shell, the two are the same.
CHILD = (
    "import sys\n"
    "from vixtrack.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as status:\n"
    "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "print(code, peak, len(sys.modules))\n"
)


def cold_run(tree: Path, argv: list, out: Path) -> tuple:
    """One fresh interpreter running ``argv`` from ``tree``'s ``src``;
    returns its exit code, wall seconds, peak RSS in MB and module
    count."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-c", CHILD, *argv, "--out-dir", str(out)]
    start = time.perf_counter()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    shutil.rmtree(out, ignore_errors=True)
    if done.returncode:
        raise SystemExit(f"{argv} from {tree} exited {done.returncode}:\n{done.stderr}")
    code, rss_kb, modules = map(int, done.stdout.splitlines()[-1].split())
    return code, wall, rss_kb / 1024.0, modules


def spread(values: list) -> str:
    """Median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare the working tree against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    work = work_commit()
    with tempfile.TemporaryDirectory(prefix="vixtrack-cold-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        export(args.ref, trees["ref"])
        export(work, trees["work"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
        cases = write_input_sets(tmp / "inputs")
        for name, case in cases.items():
            if not name.startswith("bench/"):
                continue
            runs = {side: [] for side in SIDES}
            for pair in range(RUNS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(cold_run(trees[side], case, tmp / "out"))
                codes = {runs[side][-1][0] for side in SIDES}
                if len(codes) > 1:
                    raise SystemExit(f"{name}: exit codes differ between the sides: {codes}")
            wins = sum(w[1] < r[1] for r, w in zip(runs["ref"], runs["work"]))
            print(f"{name} (exit {runs['work'][0][0]}, {RUNS} pairs):")
            for side in SIDES:
                walls, rss, modules = zip(*(run[1:] for run in runs[side]))
                print(
                    f"  {side}: wall {spread(walls)} s; peak RSS {spread(rss)} MB;"
                    f" modules {spread(modules)}"
                )
            print(f"  work wall lower in {wins}/{RUNS}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
