"""tools/bench.py: the rung runner and --compare on BENCH files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _bench_file(path, pr, wall_s, rungs):
    path.write_text(json.dumps({
        "pr": pr, "commit": f"{pr:040d}", "seed": 0, "seconds": 1,
        "runs": {"cli-small trace0": {"exit": 0, "correct": True, "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"}}}},
        "rungs": rungs}))


def test_compare_prints_ratios_of_rungs_both_files_have(tmp_path, capsys):
    _bench_file(tmp_path / "BENCH_3.json", 3, 2.0,
                {"morse K5 n=5": {"exit": 0, "wall_s": 0.5, "generators": 126,
                                  "oracle_h1": "Z^6 (+) Z_2"}})
    _bench_file(tmp_path / "BENCH_7.json", 7, 1.0,
                {"morse K5 n=5": {"exit": 0, "wall_s": 0.25, "generators": 126,
                                  "oracle_h1": "Z^6 (+) Z_2"},
                 "tietze K4 n=4": {"exit": 0, "wall_s": 0.8}})
    assert bench.main(["--compare", str(tmp_path / "BENCH_7.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("BENCH_7.json (0000000000) / BENCH_3.json (0000000000)")
    assert "cli-small trace0: correct True -> True" in out
    lines = [line.split() for line in out.splitlines()]
    assert ["wall_s", "2", "->", "1", "s", "0.500"] in lines
    assert ["rung", "morse", "K5", "n=5:"] in lines
    assert ["wall_s", "0.5", "->", "0.25", "0.500"] in lines
    assert ["generators", "126", "->", "126", "1.000"] in lines
    # a string is no metric, and a rung only the newer file has is skipped
    assert "oracle_h1" not in out and "tietze" not in out


def test_cheapest_rung_in_a_fresh_interpreter():
    record = bench.run_rung(ROOT, "physical K4 n=5")
    assert record["exit"] == 0, record.get("stderr")
    assert (record["loops"], record["relators"]) == (20, 50)
    assert 0 < record["validate_s"] <= record["wall_s"]
    assert record["peak_rss_mb"] > 0


def test_rung_table():
    # the names key the rungs in BENCH files, and --compare pairs them by name
    assert list(bench.RUNGS) == [
        "check theta n=400", "check cycle n=1100", "morse K5 n=5", "morse K5 n=6",
        "oracle K5 n=4", "physical K4 n=5", "physical K5 n=4", "tietze theta n=5",
        "tietze K5 n=3", "tietze K4 n=4"]


def test_check_rung_times_its_subdivision():
    import braidforge as bf
    record = bench.check_rung(bf, "theta", 400)
    assert (record["vertices"], record["short_cycles"]) == (1196, 0)
    assert record["subdivide_s"] > 0
