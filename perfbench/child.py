"""Child process of the benchmark: imports ``vixtrack.cli``, prints
``ready <wall clock>`` on stdout, then (unless it is a set-up probe)
repeats one workload in a closed loop until its time is up and writes
every rep's timing, operations and checks to a JSON result file.  The
reference kernel (``refkernel.py``) is timed right before and right
after every rep; ``ref_s`` is the mean of the two.

Usage: python3 perfbench/child.py CONFIG.json  (written by run.py)
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    import vixtrack.cli

    # the package must come from the checkout being measured
    src = Path(config["src"]).resolve()
    if Path(vixtrack.cli.__file__).resolve().parent.parent != src:
        print(f"vixtrack imported from {vixtrack.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    print(f"ready {time.time()!r}", flush=True)
    if config["mode"] == "probe":
        return 0
    result = run_loop(config)
    Path(config["result"]).write_text(json.dumps(result))
    return 0


def run_loop(config: dict) -> dict:
    import contextlib
    import io
    import resource
    import shutil

    import inputs
    import refkernel
    import spans
    import workloads

    name, trace = config["workload"], config["trace"]
    ctx = workloads.Context(name, config["meta"], inputs.SIZES[config["size"]])
    ctx.reference = workloads.load_reference(config["reference"], config["seed"])
    call, check = workloads.CALLS[name], workloads.CHECKS[name]
    out = Path(config["work"]) / "out"
    reps = []
    first_outputs = None
    refkernel.timed()  # warm-up
    deadline = time.perf_counter() + config["seconds"]
    while True:
        traced = trace and len(reps) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        tracer = spans.Tracer(workloads.HOOKS) if traced else None
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ref_before = refkernel.timed()
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                raw, error = call(ctx, out), None
            except Exception as exc:  # a crash is a failed rep, not a lost one
                raw, error = None, f"{name} raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.remove()
            ref_after = refkernel.timed()
        outputs, quality = {}, {}
        if error is None:
            ops = workloads.Ops()
            try:
                outputs, quality = check(ctx, out, raw, ops)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                error = f"output check raised {type(exc).__name__}: {exc}"
        if error is None and first_outputs is not None and outputs != first_outputs:
            error = "outputs differ from the first rep's"
        if error is None:
            attempted, failed = len(ops.items), ops.failed
        else:  # every operation of the rep counts as failed
            attempted = workloads.OPS_PER_REP[name]
            failed = [error] * attempted
        if first_outputs is None:
            first_outputs = outputs
        files, nbytes = workloads.output_files(out)
        rep = {
            "traced": traced, "wall_s": wall, "ref_s": 0.5 * (ref_before + ref_after),
            "attempted": attempted, "failed": failed,
            "quality": quality, "files_out": files, "bytes_out": nbytes,
        }
        if tracer is not None:
            rep["layers"] = workloads.layer_metrics(spans.summarize(tracer.spans), tracer)
            rep["spans"] = len(tracer.spans)
            tracer.write(config["spans"])
        reps.append(rep)
        if time.perf_counter() >= deadline and (not trace or len(reps) >= 2):
            break
    shutil.rmtree(out, ignore_errors=True)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"reps": reps, "outputs": first_outputs, "peak_rss_mb": peak_kb / 1024.0}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
