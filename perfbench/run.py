"""Benchmark of the ``vixtrack`` pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then starts one child
process (one workload, one thread, BLAS/OpenMP pinned to one thread)
that imports ``vixtrack.cli`` from ``src/`` and repeats the workload in
a closed loop for ``--seconds``, timing the fixed reference kernel of
``refkernel.py`` right before and after every rep.  Every rep's outputs
are checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1`` (reps then alternate untraced and traced, and end-to-end
numbers must not be taken from such a run).

Workloads: calibrate, tables, tracking, paths (see README.md).
Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 4  # timed import-only children per run, besides the worker
RUN_TIMEOUT = 110.0  # beyond --seconds; a run must end within 180 s
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(config_path: Path, deadline: float) -> float:
    """Run one child to completion; return seconds from its start to its
    ``ready`` line (interpreter start plus ``import vixtrack.cli``)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path)]
    started = time.time()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != b"ready":
        raise BenchError(f"child {config_path.name} failed (exit code {proc.returncode})")
    return float(words[1]) - started


def measure(
    workload: str, seed: int, seconds: int, trace: bool, size: str, work: Path,
    probes: int = SETUP_PROBES, reference: Path | None = HERE / "reference.json",
) -> dict:
    """Generate inputs, time set-up, run the worker child; return its
    result with the set-up samples added.  Outputs are compared with
    ``reference`` where it holds the seed (full size only)."""
    deadline = time.monotonic() + RUN_TIMEOUT
    meta = inputs.write_inputs(work / "inputs", seed, inputs.SIZES[size])
    meta["truth"] = oracles.truth(workload, meta, inputs.SIZES[size])
    base = {"src": str(ROOT / "src")}
    setup = []
    if not trace:
        probe = work / "probe.json"
        probe.write_text(json.dumps({**base, "mode": "probe"}))
        setup = [spawn(probe, deadline) for _ in range(probes)]
    config = {
        **base, "mode": "run", "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size, "meta": meta, "work": str(work),
        "reference": None if reference is None or size != "full" else str(reference),
        "result": str(work / "result.json"),
        "spans": str(work.parent / f"spans_{workload}.tsv"),
    }
    worker = work / "worker.json"
    worker.write_text(json.dumps(config))
    setup.append(spawn(worker, deadline + seconds))
    result = json.loads((work / "result.json").read_text())
    result["setup_s"] = setup
    return result


def summarize(result: dict, trace: bool) -> dict:
    """The final JSON object of one run."""
    reps = result["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    untraced = [r for r in reps if not r["traced"]]
    plain = [r["wall_s"] for r in untraced]
    if not trace:
        values = {
            # each rep against the host's speed at that moment: the shared
            # host's speed moves by up to a factor of two between phases of
            # seconds to minutes, and the ratio cancels it (README.md, Machine)
            "wall_rel": statistics.median(r["wall_s"] / r["ref_s"] for r in untraced),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        kind = "end_to_end"
    else:
        traced = [r for r in reps if r["traced"]]
        values = {
            k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]
        }
        first = reps[0]
        values.update({
            "e2e.wall_s": statistics.median(plain),
            "host.ref_s": statistics.median(r["ref_s"] for r in untraced),
            "cli.bytes_out": first["bytes_out"],
            "cli.files_out": first["files_out"],
            "ops.fail_frac": failed / attempted,
            "trace.overhead_s": statistics.fmean(r["wall_s"] for r in traced)
            - statistics.fmean(plain),
            "trace.spans": traced[0]["spans"],
        })
        for q in ("mle_nll", "mom_loss", "oos_rmse", "track_slope_err"):
            values[f"quality.{q}"] = first["quality"].get(q, 0.0)
        kind = "per_layer"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (ROOT / "src" / "vixtrack" / "cli.py").is_file():
        print(f"no vixtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full", work)
        summary = summarize(result, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reps = result["reps"]
    for r in reps:
        for why in r["failed"]:
            print(f"failed: {why}", file=sys.stderr)
    walls = ", ".join(f"{r['wall_s']:.4f}/{r['ref_s']:.4f}{'*' if r['traced'] else ''}" for r in reps)
    print(f"# {args.workload} seed={args.seed}: {len(reps)} reps, wall_s/ref_s [{walls}]"
          f" (* traced), setup_s {[round(s, 4) for s in result['setup_s']]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
