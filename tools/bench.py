"""Write BENCH_<pr>.json from one perfbench run per workload and trace mode,
or compare two BENCH files.

    python3 tools/bench.py --pr 19 [--root DIR]
    python3 tools/bench.py --compare [BENCH_19.json]

The first form runs `perfbench/run.py` of the checkout at --root (default:
the checkout holding this script) for every workload in its BENCHMARK.json,
once with --trace 0 and once with --trace 1, at seed 0 for 10 seconds each.
It writes the last-line metrics of each run, the environment perfbench
reports, the machine and the commit to BENCH_<pr>.json at the root of the
checkout holding this script, so a parent tree can be measured into it.  A
run that fails is recorded with its exit code and stops nothing.

The second form prints new / old for every metric both files have and not
both read 0, where new is the named file (default: the BENCH file with the
highest number) and old the BENCH file with the next lower number.  Each
file holds one run per workload and mode, so single ratios carry the
machine's run-to-run spread.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 0
SECONDS = 10


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True).stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_one(root: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    last = json.loads(lines[-1])
    report = root / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    environment = json.loads(report.read_text())["environment"]
    return {"exit": 0, **last, "environment": environment}


def write(args) -> int:
    root = Path(args.root).resolve()
    workloads = [w["name"] for w in
                 json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    runs = {}
    for workload in workloads:
        for trace in (0, 1):
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            runs[f"{workload} trace{trace}"] = run_one(root, workload, trace)
    bench = {
        "pr": args.pr,
        "commit": git(root, "rev-parse", "HEAD"),
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "seed": SEED,
        "seconds": SECONDS,
        "machine": {"platform": platform.platform(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "runs": runs,
    }
    out = HERE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    failed = [name for name, run in runs.items()
              if run["exit"] != 0 or run.get("correct") is not True]
    print(f"wrote {out}" + (f"; not correct or failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def bench_files(directory: Path) -> dict[int, Path]:
    found = {}
    for path in directory.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found[int(match.group(1))] = path
    return found


def compare(args) -> int:
    files = bench_files(HERE)
    new_path = Path(args.compare) if args.compare is not True else \
        files[max(files)] if files else None
    if new_path is None:
        print("no BENCH_*.json files", file=sys.stderr)
        return 2
    new = json.loads(new_path.read_text())
    earlier = [n for n in files if n < new["pr"]]
    if not earlier:
        print(f"no BENCH file older than {new_path.name}", file=sys.stderr)
        return 2
    old_path = files[max(earlier)]
    old = json.loads(old_path.read_text())
    print(f"{new_path.name} ({new['commit'][:10]}) / {old_path.name} ({old['commit'][:10]}), "
          f"seed {new['seed']}, --seconds {new['seconds']}; one run per side")
    for name, run in new["runs"].items():
        before = old["runs"].get(name, {})
        print(f"{name}: correct {before.get('correct')} -> {run.get('correct')}")
        for metric, m in run.get("metrics", {}).items():
            b = before.get("metrics", {}).get(metric)
            if b is None or b["value"] == m["value"] == 0:
                continue
            ratio = f"{m['value'] / b['value']:8.3f}" if b["value"] else "       -"
            print(f"  {metric:28s} {b['value']:12.6g} -> {m['value']:12.6g} "
                  f"{m['unit']:6s} {ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, help="write BENCH_<pr>.json")
    ap.add_argument("--root", default=str(HERE), help="checkout to measure")
    ap.add_argument("--compare", nargs="?", const=True,
                    help="print new / old ratios against the next older BENCH file")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.pr is None:
        ap.error("give --pr N or --compare")
    return write(args)


if __name__ == "__main__":
    sys.exit(main())
