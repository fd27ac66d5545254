"""Regenerate ``reference.json``: the outputs of the calibrate, tables
and tracking workloads at full size for a range of seeds, which
``workloads.check_*`` compares later runs with.  ``paths`` needs no
stored values: its oracle recomputes them exactly.

Usage, from the repository root:

    python3 perfbench/make_reference.py FIRST_SEED LAST_SEED

Regenerate only when a change to the program is meant to change these
outputs, and say why where the change is recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

# How far a later run may stray from the stored outputs.  Cells the
# program prints rounded (slopes, weights, RMSEs) may differ by one unit
# in their last printed digit.
TOLERANCES = {
    "mle_params_rel": 1e-4,  # the likelihood is flat near its maximum
    "mom_params_rel": 1e-6,
    "loglik_abs": 1e-9,  # the MLE may improve on the reference, not worsen
    "mom_loss_rel": 1e-8,
    "intercept_rel": 1e-9,
    "wealth_rel": 1e-9,
}
STORED = ("calibrate", "tables", "tracking")


def main(first: int, last: int) -> int:
    seeds = {}
    for seed in range(first, last + 1):
        entry = {}
        for workload in STORED:
            work = run.ROOT / ".perfbench_work" / f"reference-{workload}-{seed}"
            try:
                result = run.measure(workload, seed, 0, False, "full", work, probes=0, reference=None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            failed = [why for rep in result["reps"] for why in rep["failed"]]
            if failed:
                print(f"seed {seed} {workload}: {failed}", file=sys.stderr)
                return 1
            entry[workload] = result["outputs"]
        seeds[str(seed)] = entry
        print(f"seed {seed} done", flush=True)
    out = {"size": "full", "tolerances": TOLERANCES, "seeds": seeds}
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
