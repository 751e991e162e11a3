"""One measuring process: set a workload up, then run closed-loop passes.

run.py starts this script; it is not meant to be run by hand:

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --workdir DIR --result FILE [--setup-only]

It prints READY on stdout as soon as set-up is done (run.py times process
start to that line as set-up), then runs passes over the workload's job
list, one job at a time on one thread, and writes what it measured to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def hash_seed(seed: int, number: int) -> int:
    """PYTHONHASHSEED for the CLI children of pass `number`: another one on
    every pass, and within [0, 2**32 - 1], or the child does not start."""
    return (seed * 1000 + 1 + number) % 2 ** 32


def run_job(job, ctx) -> dict:
    """Run one job and check it; an error or a miss is recorded, not raised."""
    ctx["job"] = job.name
    if ctx.get("tracer") is not None:
        ctx["tracer"].job = job.name
    start = time.perf_counter()
    try:
        result = job.run(ctx)
    except Exception as exc:    # a failing job must not abort the run
        seconds = time.perf_counter() - start
        return {"job": job.name, "seconds": seconds, "counts": {},
                "problems": [f"raised {type(exc).__name__}: {exc}"],
                "traceback": traceback.format_exc(limit=4)}
    seconds = time.perf_counter() - start
    try:
        problems = job.check(result, ctx)
        counts = job.counts(result)
    except Exception as exc:
        problems, counts = [f"check raised {type(exc).__name__}: {exc}"], {}
    return {"job": job.name, "seconds": seconds, "counts": counts,
            "problems": problems}


def run_pass(wl, number: int, base_ctx: dict, tracer=None) -> dict:
    ctx = dict(base_ctx, tracer=tracer, hashseed=hash_seed(base_ctx["seed"], number))
    if tracer is not None:
        tracer.reset()
    start = time.perf_counter()
    jobs = [run_job(job, ctx) for job in wl.jobs]
    wall = time.perf_counter() - start
    out = {"pass": number, "traced": tracer is not None, "wall": wall, "jobs": jobs}
    if tracer is not None:
        out["layer"] = layer_metrics(tracer.spans, tracer.counters)
        out["spans"] = [s.to_json() for s in tracer.spans]
    return out


def measure(wl, args, base_ctx) -> list[dict]:
    """Passes until the next one would end past --seconds (at least the
    workload's minimum).  A traced run starts with two untraced passes: the
    first pays for first-touch memory, the second is the reference for the
    tracing overhead."""
    passes = []
    start = time.perf_counter()
    if args.trace:
        passes += [run_pass(wl, 0, base_ctx), run_pass(wl, 1, base_ctx)]
    tracer = Tracer() if args.trace else None
    # CLI children install their own wrappers through the launcher
    installation = install(tracer) if args.trace and wl.name != "cli-small" else None
    try:
        measured = []
        while True:
            p = run_pass(wl, len(passes), base_ctx, tracer)
            passes.append(p)
            measured.append(p["wall"])
            elapsed = time.perf_counter() - start
            mean = sum(measured) / len(measured)
            if len(measured) >= wl.min_passes and elapsed + mean > args.seconds:
                break
    finally:
        if installation is not None:
            installation.uninstall()
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import braidforge
    if not Path(braidforge.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"braidforge imported from {braidforge.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    import workloads
    wl = workloads.setup(args.workload, args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import numpy
    base_ctx = {"env": dict(os.environ), "workdir": args.workdir,
                "seed": args.seed}
    passes = measure(wl, args, base_ctx)
    known = []
    if wl.known_defects and not args.trace:
        ctx = dict(base_ctx, tracer=None, hashseed=hash_seed(args.seed, 0))
        known = [run_job(job, ctx) for job in wl.known_defects]
    result = {
        "passes": passes,
        "known_defects": known,
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
