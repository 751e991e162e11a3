"""Write BENCH_<pr>.json from one perfbench run per workload and trace mode
and one run per rung, or compare two BENCH files.

    python3 tools/bench.py --pr 19 [--root DIR]
    python3 tools/bench.py --compare [BENCH_19.json]

The first form runs `perfbench/run.py` of the checkout at --root (default:
the checkout holding this script) for every workload in its BENCHMARK.json,
once with --trace 0 and once with --trace 1, at seed 0 for 10 seconds each.
Then it runs each rung of RUNGS, a size perfbench does not reach, against
that checkout's src/ and tests/: `check_subdivision` on theta subdivided for
n = 400, with that `subdivide_for` call as `subdivide_s`, and on the
1,100-vertex cycle at n = 1,100; cold
`morse_presentation` on K5 n = 5 and 6; `skeleton_presentation` +
`homology_h1` on K5 n = 4, beside the Morse H1; `solve_physical_presentation`
on the test helper's loop system for K4 n = 5 and K5 n = 4; `tietze_minimize`
on the oracle presentations of theta n = 5, K5 n = 3 and K4 n = 4.  A rung
records the timed call's `wall_s`, its peak RSS and the sizes that explain
them.  It runs in a fresh interpreter, so that peak is its own and no memory
or cache of another rung is left in it.  Runs, rungs, the machine and the
commit go to BENCH_<pr>.json at the root of the checkout holding this
script, so a parent tree can be measured into it.  A run or rung that fails
is recorded with its exit code and stops nothing.

The second form prints new / old for every metric, rung metrics included,
that both files have and not both read 0.  New is the named file (default:
the highest-numbered BENCH file here), old the next lower one beside it.
Each file holds one run per workload, mode and rung, so single ratios carry
the machine's run-to-run spread.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import resource
import subprocess
import sys
import time
import warnings
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
    print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
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


def _graph(name):
    from helpers import complete_graph, graph
    return graph(name) if name == "theta" else complete_graph(int(name[1:]))


def _complex(bf, name, n):
    return bf.CubeComplex(bf.ordered(bf.subdivide_for(_graph(name), n)), n)


def _timed(fn, *args):
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def check_rung(bf, name, n):
    subdivided = {}
    if name == "cycle":   # n vertices, so its one cycle is short for n
        g = bf.parse_graph({"vertices": list(range(1, n + 1)),
                            "edges": [[v, v % n + 1] for v in range(1, n + 1)],
                            "tree_edges": [[v, v + 1] for v in range(1, n)], "root": 1})
    else:
        g, subdivided["subdivide_s"] = _timed(bf.subdivide_for, _graph(name), n)
    report, wall = _timed(bf.check_subdivision, g, n)
    return {"wall_s": wall, **subdivided, "vertices": len(g.vertices),
            "short_cycles": len(report.cycle_violations)}


def morse_rung(bf, name, n):
    cx = _complex(bf, name, n)
    mp, wall = _timed(bf.morse_presentation, cx)
    return {"wall_s": wall, "generators": len(mp.generators), "relators": len(mp.relators),
            "flow_cache": len(cx.flow_cache)}


def oracle_rung(bf, name, n):
    cx = _complex(bf, name, n)
    group, wall = _timed(lambda: bf.skeleton_presentation(cx).group)
    h1, wall_h1 = _timed(bf.homology_h1, group)
    return {"wall_s": wall + wall_h1, "generators": len(group.generators),
            "relators": len(group.relators), "oracle_h1": str(h1),
            "morse_h1": str(bf.homology_h1(bf.from_morse(bf.morse_presentation(cx))))}


def physical_rung(bf, name, n):
    from test_loops import _auto_loop_system
    validate, spent = bf.loops._validate_consequences, []
    bf.loops._validate_consequences = lambda *args: spent.append(_timed(validate, *args)[1])
    cx = _complex(bf, name, n)
    mp = bf.morse_presentation(cx)
    mini, _ = bf.minimize_morse(cx.og, mp)
    pp, wall = _timed(bf.solve_physical_presentation, cx, mini, _auto_loop_system(cx, mp), mp)
    return {"wall_s": wall, "validate_s": sum(spent), "loops": len(pp.loops),
            "relators": len(pp.relators)}


def tietze_rung(bf, name, n):
    group = bf.skeleton_presentation(_complex(bf, name, n)).group
    res, wall = _timed(bf.tietze_minimize, group)
    return {"wall_s": wall, "generators_before": len(group.generators),
            "generators": len(res.group.generators), "relators_before": len(group.relators),
            "relators": len(res.group.relators)}


RUNGS = {f"{fn.__name__[:-5]} {name} n={n}": (fn, name, n) for fn, name, n in (
    (check_rung, "theta", 400), (check_rung, "cycle", 1100),
    (morse_rung, "K5", 5), (morse_rung, "K5", 6), (oracle_rung, "K5", 4),
    (physical_rung, "K4", 5), (physical_rung, "K5", 4),
    (tietze_rung, "theta", 5), (tietze_rung, "K5", 3), (tietze_rung, "K4", 4))}


def rung_here(root: str, rung: str) -> dict:
    """Run one rung in this interpreter against the checkout at `root`."""
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "tests")]
    warnings.simplefilter("ignore")
    import braidforge as bf
    fn, name, n = RUNGS[rung]
    return {"exit": 0, **fn(bf, name, n),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_rung(root: Path, rung: str) -> dict:
    """Run one rung in a fresh interpreter, which loads this file by path."""
    print(f"rung {rung} ...", file=sys.stderr, flush=True)
    child = ("import json, runpy, sys; "
             "print(json.dumps(runpy.run_path(sys.argv[1])['rung_here'](*sys.argv[2:])))")
    proc = subprocess.run([sys.executable, "-c", child, __file__, str(root), rung],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write(args) -> int:
    root = Path(args.root).resolve()
    workloads = [w["name"] for w in
                 json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    runs = {f"{w} trace{t}": run_one(root, w, t) for w in workloads for t in (0, 1)}
    rungs = {rung: run_rung(root, rung) for rung in RUNGS}
    bench = {
        "pr": args.pr,
        "commit": git(root, "rev-parse", "HEAD"),
        "dirty": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "seed": SEED,
        "seconds": SECONDS,
        "machine": {"platform": platform.platform(), "cpu": cpu_model(),
                    "python": platform.python_version()},
        "runs": runs,
        "rungs": rungs,
    }
    out = HERE / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    failed = [name for name, run in runs.items()
              if run["exit"] != 0 or run.get("correct") is not True]
    failed += [f"rung {name}" for name, rung in rungs.items() if rung["exit"] != 0]
    print(f"wrote {out}" + (f"; not correct or failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def bench_files(directory: Path) -> dict[int, Path]:
    return {int(match.group(1)): path for path in directory.glob("BENCH_*.json")
            if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))}


def print_ratios(old: dict, new: dict) -> None:
    """old -> new and new / old per metric of both name -> (value, unit) maps."""
    for metric, (value, unit) in new.items():
        before = old.get(metric, (None,))[0]
        if before is None or before == value == 0:
            continue
        ratio = f"{value / before:8.3f}" if before else "       -"
        print(f"  {metric:28s} {before:12.6g} -> {value:12.6g} {unit:6s} {ratio}")


def numbers(record: dict) -> dict:
    """name -> (value, unit) of a run's metrics, or of a rung's numbers."""
    if "metrics" in record:
        return {name: (m["value"], m["unit"]) for name, m in record["metrics"].items()}
    return {name: (v, "") for name, v in record.items()
            if name != "exit" and isinstance(v, (int, float))}


def compare(args) -> int:
    named = args.compare is not True
    files = bench_files(Path(args.compare).parent if named else HERE)
    new_path = Path(args.compare) if named else files[max(files)] if files else None
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
        print_ratios(numbers(before), numbers(run))
    for name, rung in new.get("rungs", {}).items():
        if name in old.get("rungs", {}):      # a rung new to this file has no ratio
            print(f"rung {name}:")
            print_ratios(numbers(old["rungs"][name]), numbers(rung))
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
