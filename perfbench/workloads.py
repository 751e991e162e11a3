"""The four workloads: their inputs, fixed job lists and reference checks.

A job is a callable over a per-pass context.  Its `check` returns the list
of ways the result misses its reference (empty when it matches) and its
`counts` reads sizes off the return value, so they cost nothing extra in an
untraced pass.  `setup` imports braidforge lazily: importing this module
must stay cheap, because the runner imports it only for the workload names.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

NAMES = ("presentation-ladder", "oracle-crosscheck", "rep-solve", "cli-small")

LAUNCHER = Path(__file__).resolve().parent / "trace_launch.py"

RESIDUAL_TOL = 1e-8
SOLVER_RESTARTS = 20
# Fixed, not the benchmark seed: one restart's cost is heavy-tailed (a few
# restarts run to the iteration cap), so the cost of 20 restarts varies by
# tens of percent from one solver seed to the next.
SOLVER_SEED = 0

# Pinned from the code at the commit that introduced the benchmark.  The
# digest covers the Morse generators and relators letter for letter.
LADDER_REFERENCE = {
    "K5-n4": {"generators": 67, "relators": 232, "minimized": 7,
              "h1": "Z^6 (+) Z_2",
              "digest": "62b06afd6c448242f1dfe1fe31d706f1e60fc50bb1d6a32b2f85f305ad4cf2bc"},
    "K4-n5": {"generators": 24, "relators": 54, "minimized": 4, "h1": "Z^4",
              "digest": "55b2467e47de90b847a04a851f0c8a3c3b12cb3c70bb636cd8f1bb8925072ad7"},
    "K33-n3": {"generators": 13, "relators": 19, "minimized": 5,
               "h1": "Z^4 (+) Z_2",
               "digest": "1159e516398255375cf5b21036d32d7366faf9feeefdd653750d5b8eeaa0cd9b"},
    "y-n6": {"generators": 15, "relators": 0, "minimized": 15, "h1": "Z^15",
             "digest": "f9363e7e75858e7a2e76096ce2405c1ccb3870e4cbbe3a2f1e35c4f27ef710bc"},
}
# (n, generators, relators, new relators, lifting ok, minimized, H1)
STABILITY_REFERENCE = [
    [2, 6, 2, None, None, 4, "Z^4"],
    [3, 11, 10, 8, True, 4, "Z^4"],
    [4, 15, 24, 14, True, 4, "Z^4"],
]
ORACLE_REFERENCE = {"theta-n3": "Z^3", "theta-n4": "Z^3", "K4-n3": "Z^4"}


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], list[str]]
    counts: Callable[[object], dict] = lambda result: {}


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    min_passes: int = 1
    known_defects: list[Job] = field(default_factory=list)
    state: dict = field(default_factory=dict)   # survives from pass to pass


# ---------------------------------------------------------------------------
# graphs (the same builders as the test suite's helpers)


def complete_graph(bf, n: int):
    """K_n with a spanning path tree and ascending rotations."""
    vs = list(range(1, n + 1))
    return bf.parse_graph({
        "vertices": vs,
        "edges": [[a, b] for a in vs for b in vs if a < b],
        "tree_edges": [[i, i + 1] for i in vs[:-1]],
        "root": 1,
        "rotation": {str(v): [w for w in vs if w != v] for v in vs}})


def complete_bipartite_33(bf):
    """K_{3,3} on parts {1,3,5} and {2,4,6} with a spanning path tree."""
    return bf.parse_graph({
        "vertices": [1, 2, 3, 4, 5, 6],
        "edges": sorted([a, b] for a in (1, 3, 5) for b in (2, 4, 6)),
        "tree_edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6]],
        "root": 1,
        "rotation": {str(v): ([2, 4, 6] if v % 2 else [1, 3, 5])
                     for v in range(1, 7)}})


def presentation_digest(mp) -> str:
    blob = json.dumps([[str(c) for c in mp.generators],
                       [list(w) for w, _ in mp.relators]], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _shape_counts(groups) -> dict:
    shapes = [[len(g.relators), len(g.generators)] for g in groups]
    return {"matrix_shapes": shapes,
            "snf_entries": sum(r * c for r, c in shapes)}


# ---------------------------------------------------------------------------
# presentation-ladder


def _ladder_job(bf, key: str, graph, n: int) -> Job:
    def run(ctx):
        og = bf.ordered(bf.subdivide_for(graph, n))
        mp = bf.morse_presentation(bf.CubeComplex(og, n))
        minimized, h1 = bf.minimize_morse(og, mp)
        return mp, minimized, h1, bf.homology_h1(minimized.group)

    def check(result, ctx):
        mp, minimized, h1, h1_min = result
        return ladder_problems(LADDER_REFERENCE[key], mp, minimized, h1, h1_min)

    def counts(result):
        mp, minimized, _, _ = result
        lengths = [len(w) for w, _ in mp.relators]
        return {"generators": len(mp.generators), "relators": len(mp.relators),
                "relator_len_max": max(lengths, default=0),
                "relator_len_sum": sum(lengths),
                "minimized_generators": len(minimized.group.generators),
                **_shape_counts([bf.from_morse(mp), minimized.group])}

    return Job(f"ladder:{key}", run, check, counts)


def ladder_problems(ref: dict, mp, minimized, h1, h1_min) -> list[str]:
    """Ways a ladder result misses its pinned reference."""
    got = {"generators": len(mp.generators), "relators": len(mp.relators),
           "minimized": len(minimized.group.generators), "h1": str(h1),
           "digest": presentation_digest(mp)}
    problems = [f"{k}: expected {ref[k]!r}, got {got[k]!r}"
                for k in ref if got[k] != ref[k]]
    if str(h1_min) != str(h1):
        problems.append(f"minimized H1 {h1_min} differs from Morse H1 {h1}")
    return problems


def _stability_job(bf) -> Job:
    graph = complete_graph(bf, 4)

    def run(ctx):
        og = bf.ordered(bf.subdivide_for(graph, 4))
        return bf.stability_report(og, 2, 4)

    def rows(report):
        return [[r.n, r.generators, r.relators, r.new_relators, r.lifting_ok,
                 r.minimized_generators, r.h1] for r in report.rows]

    def check(report, ctx):
        got = rows(report)
        return [] if got == STABILITY_REFERENCE else [f"stability rows {got}"]

    return Job("ladder:stability-K4-n2to4", run, check,
               lambda report: {"rows": rows(report)})


def _ladder(bf, seed: int) -> Workload:
    y = bf.parse_graph(bf.fixtures.load_fixture("y"))
    jobs = [_ladder_job(bf, "K5-n4", complete_graph(bf, 5), 4),
            _ladder_job(bf, "K4-n5", complete_graph(bf, 4), 5),
            _ladder_job(bf, "K33-n3", complete_bipartite_33(bf), 3),
            _ladder_job(bf, "y-n6", y, 6),
            _stability_job(bf)]
    random.Random(seed).shuffle(jobs)
    return Workload("presentation-ladder", jobs, min_passes=2)


# ---------------------------------------------------------------------------
# oracle-crosscheck


def _oracle(bf, seed: int) -> Workload:
    theta = bf.parse_graph(bf.fixtures.load_fixture("theta"))
    cases = {"theta-n3": (theta, 3), "theta-n4": (theta, 4),
             "K4-n3": (complete_graph(bf, 4), 3)}
    morse_h1 = {}
    for key, (graph, n) in cases.items():
        og = bf.ordered(bf.subdivide_for(graph, n))
        mp = bf.morse_presentation(bf.CubeComplex(og, n))
        morse_h1[key] = str(bf.homology_h1(bf.from_morse(mp)))

    def job(key, graph, n):
        def run(ctx):
            og = bf.ordered(bf.subdivide_for(graph, n))
            sp = bf.skeleton_presentation(bf.CubeComplex(og, n))
            return sp, bf.homology_h1(sp.group)

        def check(result, ctx):
            got = str(result[1])
            problems = []
            if got != morse_h1[key]:
                problems.append(f"oracle H1 {got} != Morse H1 {morse_h1[key]}")
            if got != ORACLE_REFERENCE[key]:
                problems.append(f"oracle H1 {got} != pinned {ORACLE_REFERENCE[key]}")
            return problems

        def counts(result):
            group = result[0].group
            return {"generators": len(group.generators),
                    "relators": len(group.relators), **_shape_counts([group])}

        return Job(f"oracle:{key}", run, check, counts)

    jobs = [job(key, *case) for key, case in cases.items()]
    random.Random(seed).shuffle(jobs)
    return Workload("oracle-crosscheck", jobs)


# ---------------------------------------------------------------------------
# rep-solve


def _rep_solve(bf, seed: int) -> Workload:
    theta = bf.parse_graph(bf.fixtures.load_fixture("theta"))
    og = bf.ordered(theta)
    minimized, _ = bf.minimize_morse(og, bf.morse_presentation(bf.CubeComplex(og, 4)))
    group = minimized.group
    wl = Workload("rep-solve", [])

    def solve(k):
        def run(ctx):
            opts = bf.reps.SolveOptions(restarts=SOLVER_RESTARTS)
            outcome = bf.solve_representation(group, k, seed=SOLVER_SEED, opts=opts)
            report = bf.verify_representation(group, outcome.assignment, RESIDUAL_TOL)
            label = bf.classify_theta_component(group, outcome.assignment)
            return outcome, report, label

        def check(result, ctx):
            outcome, report, label = result
            problems = [] if report.passed else [f"residual {report.max_deviation:.3e}"]
            answer = (outcome.restart, str(label),
                      {g: m.tobytes() for g, m in outcome.assignment.matrices.items()})
            if wl.state.setdefault(k, answer) != answer:
                problems.append("restart index, matrices or component differ "
                                "from the first pass")
            return problems

        def counts(result):
            outcome, report, label = result
            return {"restart": outcome.restart, "restarts": len(outcome.restart_seeds),
                    "residual": report.max_deviation, "component": str(label)}

        return Job(f"rep:solve-verify-classify-k{k}", run, check, counts)

    wl.jobs = [solve(2), solve(3)]
    random.Random(seed).shuffle(wl.jobs)
    return wl


# ---------------------------------------------------------------------------
# cli-small


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes


def run_cli(ctx, argv, stdout_path=None) -> CliResult:
    """One `python -m braidforge.cli` invocation.  In a traced pass the child
    goes through the benchmark's launcher, which installs the wrappers and
    hands its spans back through a file."""
    env = dict(ctx["env"], PYTHONHASHSEED=str(ctx["hashseed"]))
    spans_file = None
    if ctx.get("tracer") is not None:
        spans_file = Path(ctx["workdir"]) / f"spans-{os.getpid()}.json"
        cmd = [sys.executable, str(LAUNCHER), str(spans_file), *argv]
    else:
        cmd = [sys.executable, "-m", "braidforge.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
    if spans_file is not None and spans_file.exists():
        data = json.loads(spans_file.read_text())
        spans_file.unlink()
        for row in data["spans"]:
            row[4] = ctx["job"]
        ctx["tracer"].merge(data["spans"], data["counters"])
    if stdout_path is not None:
        Path(stdout_path).write_bytes(proc.stdout)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _cli_job(wl: Workload, name: str, argv: list[str], expect) -> Job:
    """`expect(stdout)` returns None when the output is right."""
    is_json = "--json" in argv

    def run(ctx):
        return run_cli(ctx, argv)

    def check(res: CliResult, ctx):
        if res.code != 0:
            tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit {res.code}: {' '.join(tail)}"]
        out = res.stdout.decode()
        try:
            problem = expect(json.loads(out) if is_json else out.strip())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        problems = [problem] if problem else []
        if is_json and wl.state.setdefault(("artifact", name), res.stdout) != res.stdout:
            problems.append("JSON artifact differs from the first pass "
                            "(which ran under another PYTHONHASHSEED)")
        return problems

    def counts(res: CliResult):
        return {"artifact_bytes": len(res.stdout) if is_json else 0}

    return Job(f"cli:{name}", run, check, counts)


def _expect_equal(label, got, want):
    return None if got == want else f"{label}: expected {want!r}, got {got!r}"


def _known_defect(name: str, steps, expect_code: int, expect_stdout=None) -> Job:
    """A documented defect: the job passes only once the defect is fixed."""
    def run(ctx):
        res = None
        for argv, out_path in steps:
            res = run_cli(ctx, argv, out_path)
        return res

    def check(res: CliResult, ctx):
        out = res.stdout.decode().strip()
        if res.code == expect_code and (expect_stdout is None or out == expect_stdout):
            return []
        tail = res.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"expected exit {expect_code}"
                + (f" and {expect_stdout!r}" if expect_stdout else "")
                + f"; got exit {res.code}: {' '.join(tail) or out[:80]}"]

    return Job(f"known-defect:{name}", run, check)


def _cli(bf, seed: int, workdir: Path) -> Workload:
    theta = str(bf.fixtures.fixture_path("theta"))
    U = [1, 2, 3, 4, 5, 6, 7, 8]
    D = [5, 6, 7, 8, 1, 11, 10, 9]
    y_loop = {"type": "Y", "k": 4, "m": 6, "n": 9}
    loops2 = {"loops": [dict(y_loop, spectators=[]),
                        {"type": "O", "cycle": D, "spectators": [2]},
                        {"type": "O", "cycle": U, "spectators": [9]}]}
    loops4 = {"loops": [dict(y_loop, spectators=[1, 2]),
                        dict(y_loop, spectators=[1, 10]),
                        dict(y_loop, spectators=[10, 11]),
                        {"type": "O", "cycle": U, "spectators": [9, 10, 11]},
                        {"type": "O", "cycle": D, "spectators": [2, 3, 4]}]}
    og = bf.ordered(bf.parse_graph(bf.fixtures.load_fixture("theta")))
    minimized, _ = bf.minimize_morse(og, bf.morse_presentation(bf.CubeComplex(og, 2)))
    group = minimized.group
    pres = {"generators": list(group.generators),
            "relators": [[[abs(x) - 1, 1 if x > 0 else -1] for x in w]
                         for w in group.relators]}
    import numpy as np
    assignment = bf.UnitaryAssignment(2, {g: np.eye(2) for g in group.generators})
    multigraph = {"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3], [1, 2]],
                  "tree_edges": [[1, 2], [1, 3]]}
    files = {"loops2.json": loops2, "loops4.json": loops4, "min2.json": pres,
             "assign2.json": assignment.to_json_dict(),
             "nogen.json": {"relators": pres["relators"]},
             "nok.json": {"loops": [{"type": "Y", "m": 6, "n": 9, "spectators": [1]}]},
             "multigraph.json": multigraph}
    for fname, data in files.items():
        (workdir / fname).write_text(json.dumps(data))
    w = {k: str(workdir / k) for k in files}

    wl = Workload("cli-small", [], min_passes=2)
    jobs = [
        _cli_job(wl, "subdivide", ["subdivide", str(bf.fixtures.fixture_path("lasso")),
                                   "-n", "3", "--json"],
                 lambda d: None if d["changed"] and d["graph"]["vertices"]
                 else "subdivide returned no graph"),
        _cli_job(wl, "present", ["present", theta, "-n", "3", "--json"],
                 lambda d: _expect_equal("generator 3", d["generators"][2],
                                         "{e(5,9),1,6}")),
        _cli_job(wl, "minimal", ["minimal", theta, "-n", "4", "--json"],
                 lambda d: _expect_equal("h1, generators",
                                         (d["h1"], len(d["generators"])), ("Z^3", 3))),
        _cli_job(wl, "h1", ["h1", theta, "-n", "4"],
                 lambda out: _expect_equal("h1", out, "Z^3")),
        _cli_job(wl, "oracle", ["oracle", theta, "-n", "2", "--json"],
                 lambda d: _expect_equal("h1", d["h1"], "Z^3")),
        _cli_job(wl, "cells", ["cells", theta, "-n", "2", "--kind", "critical", "--json"],
                 lambda d: _expect_equal("critical cells", len(d["cells"]), 4)),
        _cli_job(wl, "physical:n2", ["physical", theta, "-n", "2", "--loops",
                                     w["loops2.json"], "--json"],
                 lambda d: _expect_equal("h1", d["h1"], "Z^3")),
        _cli_job(wl, "physical:n4", ["physical", theta, "-n", "4", "--loops",
                                     w["loops4.json"], "--json"],
                 lambda d: _expect_equal(
                     "generators, relators, dictionary",
                     (len(d["generators"]), len(d["relators"]), len(d["dictionary"])),
                     (5, 3, 5))),
        _cli_job(wl, "locally-abelian:n2", ["locally-abelian", theta, "-n", "2",
                                            "--loops", w["loops2.json"], "--json"],
                 lambda d: _expect_equal("residual relators", d["residual_relators"], [])),
        _cli_job(wl, "locally-abelian:n4", ["locally-abelian", theta, "-n", "4",
                                            "--loops", w["loops4.json"], "--json"],
                 lambda d: _expect_equal("constraints", d["constraints"],
                                         [[1, -1, 0], [0, 1, -1]])),
        _cli_job(wl, "stabilize", ["stabilize", theta, "--from", "2", "--to", "4",
                                   "--json"],
                 lambda d: _expect_equal(
                     "rows", [(r["n"], r["minimized_generators"]) for r in d["rows"]],
                     [(2, 3), (3, 3), (4, 3)])),
        _cli_job(wl, "rep-verify", ["rep-verify", w["min2.json"], w["assign2.json"],
                                    "--json"],
                 lambda d: _expect_equal("passed", d["passed"], True)),
        _cli_job(wl, "rep-solve", ["rep-solve", w["min2.json"], "-k", "2",
                                   "--seed", "0", "--json"],
                 lambda d: None if d["max_deviation"] <= RESIDUAL_TOL
                 else f"residual {d['max_deviation']:.3e}"),
    ]
    random.Random(seed).shuffle(jobs)
    wl.jobs = jobs
    sub = str(workdir / "multigraph-sub.json")
    wl.known_defects = [
        _known_defect("present-n0", [(["present", theta, "-n", "0"], None)], 2),
        _known_defect("rep-solve-without-generators",
                      [(["rep-solve", w["nogen.json"], "-k", "2"], None)], 2),
        _known_defect("loop-without-k",
                      [(["physical", theta, "-n", "2", "--loops", w["nok.json"]], None)], 2),
        _known_defect("subdivide-then-h1-multigraph",
                      [(["subdivide", w["multigraph.json"], "-n", "3"], sub),
                       (["h1", sub, "-n", "3"], None)], 0, "Z^3"),
    ]
    return wl


# ---------------------------------------------------------------------------


def setup(name: str, seed: int, workdir: Path) -> Workload:
    """Build the workload's inputs; this is the part of set-up after import."""
    import braidforge as bf
    import braidforge.fixtures  # noqa: F401  (bf.fixtures)
    if name == "presentation-ladder":
        return _ladder(bf, seed)
    if name == "oracle-crosscheck":
        return _oracle(bf, seed)
    if name == "rep-solve":
        return _rep_solve(bf, seed)
    if name == "cli-small":
        return _cli(bf, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
