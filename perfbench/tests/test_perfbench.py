"""Tests of the benchmark's own machinery: span arithmetic, wrapper removal,
reference checks and metric names.  Run: python3 -m pytest perfbench/tests"""

import json
import re
from pathlib import Path

import pytest

import run
import tracer
import workloads
from tracer import Span, Tracer

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_a_synthetic_nested_trace():
    # present [0, 10] holds critical [1, 4] (which holds enumerate [1, 3])
    # and two rewrites [5, 6] and [6, 8]
    spans = [Span("morse.present", 0, 10, None, "j"),
             Span("cells.critical", 1, 4, 0, "j", {"n": 2, "dim": 2}),
             Span("cells.enumerate", 1, 3, 1, "j", {"n": 50, "dim": 2}),
             Span("morse.rewrite", 5, 6, 0, "j", {"steps": 7}),
             Span("morse.rewrite", 6, 8, 0, "j", {"steps": 5})]
    assert tracer.self_times(spans) == [10 - 3 - 1 - 2, 3 - 2, 2, 1, 2]
    m = tracer.layer_metrics(spans, {"reps.retractions": 9})
    assert m["morse.present_s"] == 4
    assert m["cells.critical_s"] == 1
    assert m["cells.enumerate_s"] == 2
    assert m["morse.rewrite_s"] == 3
    assert (m["morse.rewrite_calls"], m["morse.rewrite_steps"]) == (2, 12)
    assert m["cells.critical_yield"] == 2 / 50
    assert m["reps.retractions"] == 9
    assert m["reps.solve_s"] == 0


def test_covered_merges_overlapping_intervals():
    assert tracer.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert tracer.covered([]) == 0


def _bindings():
    import braidforge.cli  # noqa: F401  (every namespace the tracer patches)
    import sys
    return {(name, key): value
            for name, mod in sys.modules.items()
            if name == "braidforge" or name.startswith("braidforge.")
            for key, value in vars(mod).items() if callable(value)}


def test_uninstall_restores_the_original_objects():
    from braidforge.cells import CubeComplex
    before = _bindings()
    methods = {m: CubeComplex.__dict__[m]
               for m in ("cells", "critical_cells", "path_to_base")}
    t = Tracer()
    inst = tracer.install(t)
    patched = {k for k, v in _bindings().items() if v is not before[k]}
    assert ("braidforge.cli", "morse_presentation") in patched
    assert ("braidforge.stability", "rewrite_word") in patched
    assert all(CubeComplex.__dict__[m] is not f for m, f in methods.items())
    inst.uninstall()
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert all(CubeComplex.__dict__[m] is f for m, f in methods.items())


def test_installed_wrappers_record_spans_and_counts():
    import braidforge as bf
    from braidforge.fixtures import load_fixture
    t = Tracer()
    inst = tracer.install(t)
    try:
        og = bf.ordered(bf.parse_graph(load_fixture("theta")))
        bf.morse_presentation(bf.CubeComplex(og, 3))
    finally:
        inst.uninstall()
    m = tracer.layer_metrics(t.spans, t.counters)
    assert (m["morse.generators"], m["morse.relators"]) == (5, 2)
    assert m["morse.rewrite_calls"] == m["morse.relators"] > 0
    assert m["cells.critical"] > 0 and m["cells.enumerated"] > m["cells.critical"]


def test_counters_survive_a_reset_between_passes():
    import numpy as np
    from braidforge import reps
    t = Tracer()
    inst = tracer.install(t)
    try:
        reps.polar_retract(np.eye(2))
        t.reset()
        assert t.counters["reps.retractions"] == 0 and t.spans == []
        reps.polar_retract(np.eye(2))
    finally:
        inst.uninstall()
    assert t.counters["reps.retractions"] == 1


@pytest.fixture(scope="module")
def k33():
    import braidforge as bf
    og = bf.ordered(bf.subdivide_for(workloads.complete_bipartite_33(bf), 3))
    mp = bf.morse_presentation(bf.CubeComplex(og, 3))
    minimized, h1 = bf.minimize_morse(og, mp)
    return mp, minimized, h1


def test_reference_check_passes_on_the_pinned_result(k33):
    mp, minimized, h1 = k33
    ref = workloads.LADDER_REFERENCE["K33-n3"]
    assert workloads.ladder_problems(ref, mp, minimized, h1, h1) == []


def test_reference_check_flags_a_corrupted_relator(k33):
    mp, minimized, h1 = k33
    ref = workloads.LADDER_REFERENCE["K33-n3"]
    word, tau = mp.relators[0]
    corrupted = type(mp)(mp.generators, [(word[:-1] + (-word[-1],), tau)] + mp.relators[1:])
    problems = workloads.ladder_problems(ref, corrupted, minimized, h1, h1)
    assert len(problems) == 1 and problems[0].startswith("digest")


def test_metric_and_workload_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_per_layer_metrics_cover_the_declared_list():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    computed = set(tracer.layer_metrics([], {}))
    computed |= {"cli.interp_s", "cli.import_s", "cli.import_numpy_s",
                 "cli.artifact_bytes", "trace.overhead_s"}
    computed |= {f"cli.call_s.{sub}" for sub in run.CLI_SUBCOMMANDS}
    assert computed == {m["name"] for m in spec["per_layer"]}


def test_hash_seed_stays_valid_for_any_benchmark_seed():
    import worker
    for seed in (0, -1, 1786325449, 2 ** 40):
        seeds = [worker.hash_seed(seed, number) for number in range(3)]
        assert all(0 <= h < 2 ** 32 for h in seeds)
        assert len(set(seeds)) == 3
