"""braidforge benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the braidforge under that
checkout's src/.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
lines before it are the same numbers for people, plus the environment, the
reference checks, the known-defect jobs and the counts.  The full report,
spans included, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170          # the whole run, set-ups and passes included
SETUP_PROBES = 6          # set-up-only processes, half before and half after
                          # the measuring one, which is a seventh sample
INTERP_PROBES = 5
IMPORT_PROBES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLI_SUBCOMMANDS = ("subdivide", "cells", "present", "minimal", "h1", "oracle",
                   "physical", "stabilize", "rep-verify", "rep-solve",
                   "locally-abelian")


def pinned_env() -> dict:
    """One solver worker, one BLAS thread, hash seed fixed, and this
    checkout's src/ as the only PYTHONPATH entry."""
    env = dict(os.environ)
    env.pop("BRAIDFORGE_THREADS", None)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def deadline_left(t0: float) -> float:
    left = DEADLINE_S - (time.monotonic() - t0)
    if left <= 0:
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")
    return left


def start_worker(args, env, workdir: Path, t0: float, result: Path | None):
    """Start a worker and wait for READY; returns the process and the
    seconds from its start to READY."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--result", str(result)] if result else ["--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not set up (exit {proc.returncode})")
    return proc, ready


def finish(proc, t0: float):
    try:
        proc.communicate(timeout=deadline_left(t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")


def setup_probe(args, env, workdir: Path, t0: float) -> float:
    proc, ready = start_worker(args, env, workdir, t0, None)
    finish(proc, t0)
    return ready


def timed_cmd(cmd, env, t0) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=deadline_left(t0))
    return time.perf_counter() - start, proc


def importtime_s(stderr: str, module: str) -> float:
    """Cumulative seconds of `module` in `-X importtime` output."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    raise ValueError(f"{module} not in -X importtime output")


IMPORT_PROBE = ("import time; t = time.perf_counter(); import braidforge.cli; "
                "print(time.perf_counter() - t)")


def interpreter_metrics(env, t0) -> dict:
    """Interpreter start, then the import of braidforge.cli (timed around the
    import statement) and the part of it spent importing numpy."""
    interp = [timed_cmd([sys.executable, "-c", "pass"], env, t0)[0]
              for _ in range(INTERP_PROBES)]
    imports = []
    for _ in range(IMPORT_PROBES):
        _, proc = timed_cmd([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                            env, t0)
        imports.append((float(proc.stdout), importtime_s(proc.stderr, "numpy")))
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(i for i, _ in imports),
            "cli.import_numpy_s": statistics.median(n for _, n in imports)}


def per_layer(result: dict, interp: dict) -> dict:
    """Times are medians over the traced passes and counts come from the
    first one (count_drift checks that they repeat).  Added from outside:
    interpreter and import probes, and CLI call times from the untraced
    reference pass (the second pass; the first pays for first-touch memory)."""
    passes = result["passes"]
    reference = passes[1]
    traced = [p for p in passes if p["traced"]]
    out = {name: statistics.median(p["layer"][name] for p in traced)
           if name.endswith("_s") else value
           for name, value in traced[0]["layer"].items()}
    out.update(interp)
    calls = {}
    for job in reference["jobs"]:
        if job["job"].startswith("cli:"):
            sub = job["job"].split(":")[1]    # cli:<subcommand>[:<case>]
            calls.setdefault(sub, []).append(job["seconds"])
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.call_s.{sub}"] = statistics.median(calls.get(sub, [0.0]))
    out["cli.artifact_bytes"] = sum(j["counts"].get("artifact_bytes", 0)
                                    for j in reference["jobs"])
    out["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - reference["wall"])
    return out


def end_to_end(result: dict, setups: list[float], workload: str) -> dict:
    passes = result["passes"]
    rss_kb = (result["maxrss_children_kb"] if workload == "cli-small"
              else result["maxrss_self_kb"])
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall"] for p in passes),
            "peak_rss_mb": rss_kb / 1024}


def cli_latency_line(latencies: list[float]) -> str:
    """p50, and p90 only while at least ten samples lie beyond it."""
    line = f"  CLI latency p50 {statistics.median(latencies):.4f} s"
    if len(latencies) >= 100:
        line += f", p90 {statistics.quantiles(latencies, n=10)[-1]:.4f} s"
    return line + f" over {len(latencies)} invocations, interpreter start included"


def pass_counts(p: dict) -> dict:
    """One pass's counts, flattened to `job/count` keys."""
    counts = {f"{job['job']}/{k}": v for job in p["jobs"] for k, v in job["counts"].items()}
    if p["traced"]:
        counts.update({f"layer/{k}": v for k, v in counts_only(p["layer"]).items()})
    return counts


def differences(a: dict, b: dict) -> list[str]:
    return [f"{key}: {a.get(key)} then {b.get(key)}"
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def count_drift(result: dict) -> list[str]:
    """Counts must repeat exactly from pass to pass (traced passes among
    themselves, since only they carry the layer counts)."""
    drift = []
    first = {}
    for p in result["passes"]:
        ref = first.setdefault(p["traced"], pass_counts(p))
        drift += [f"pass {p['pass']} {line}" for line in differences(ref, pass_counts(p))]
    return drift


def counts_only(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if not k.endswith("_s")
            and k != "reps.residual_max"}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidforge").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_with_last_run(args, counts: dict) -> list[str]:
    """Flag any count that differs from the last run of the same source."""
    path = OUT / f"counts-{args.workload}-trace{args.trace}.json"
    current = {"source": source_digest(), "counts": counts}
    flags = []
    if path.exists():
        last = json.loads(path.read_text())
        if last["source"] == current["source"]:
            flags = [f"last run vs this run {line}"
                     for line in differences(last["counts"], counts)]
    path.write_text(json.dumps(current, sort_keys=True))
    return flags


def main(argv=None) -> int:
    t0 = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "braidforge" / "__init__.py").is_file():
        print(f"no braidforge sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_file = workdir / "result.json"
    try:
        setups = [setup_probe(args, env, workdir, t0) for _ in range(SETUP_PROBES // 2)]
        proc, ready = start_worker(args, env, workdir, t0, result_file)
        setups.append(ready)
        finish(proc, t0)
        setups += [setup_probe(args, env, workdir, t0) for _ in range(SETUP_PROBES // 2)]
        result = json.loads(result_file.read_text())
        interp = interpreter_metrics(env, t0) if args.trace else {}
    except (RuntimeError, TimeoutError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [j for p in result["passes"] for j in p["jobs"]]
    failures = [j for j in jobs if j["problems"]]
    drift = count_drift(result)
    counts = pass_counts(result["passes"][-1])
    drift += compare_with_last_run(args, counts)
    if args.trace:
        values = per_layer(result, interp)
    else:
        values = end_to_end(result, setups, args.workload)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(values):
        raise SystemExit(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": result["python"], "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "BRAIDFORGE_THREADS": env.get("BRAIDFORGE_THREADS", "unset"),
            **{var: env[var] for var in BLAS_VARS}},
        "setup_samples_s": setups,
        "metrics": metrics,
        "failures": failures,
        "known_defects": result["known_defects"],
        "count_drift": drift,
        "counts": counts,
        "passes": result["passes"],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report))

    env_line = ", ".join(f"{k} {v}" for k, v in report["environment"].items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  jobs {len(jobs)}")
    print(f"environment: {env_line}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  (setup_s: median of {len(setups)} set-ups; wall_s: median of "
              f"{len(result['passes'])} passes, closed loop, 1 client)")
        if args.workload == "cli-small":
            print(cli_latency_line([j["seconds"] for j in jobs]))
    print(f"failed_frac {len(failures)}/{len(jobs)}")
    for job in failures:
        print(f"  FAILED {job['job']}: {'; '.join(job['problems'])}")
    if result["known_defects"]:
        kd = result["known_defects"]
        still = [j for j in kd if j["problems"]]
        print(f"known-defect jobs: {len(still)} of {len(kd)} still fail; "
              f"failed_frac counting them {len(failures) + len(still)}/{len(jobs) + len(kd)}")
        for job in kd:
            status = "FAILS" if job["problems"] else "fixed"
            print(f"  {status} {job['job']}: {'; '.join(job['problems']) or 'as expected'}")
    for line in drift:
        print(f"COUNT DRIFT {line}")
    print(f"report: {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
