import argparse
import contextlib
import copy
import hashlib
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidforge as bf
from braidforge.cli import _load_fp, main
from braidforge.fixtures import fixture_path

from helpers import inject_flow_cycle

THETA = str(fixture_path("theta"))
PATHG = str(fixture_path("path"))
LASSO = str(fixture_path("lasso"))


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "braidforge.cli", *argv],
                          capture_output=True, text=True)


def test_present_theta_n2_text():
    out = run_cli("present", THETA, "-n", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == \
        "⟨{e(1,8),2}, {e(1,11),2}, {e(5,9),6} | ⟩"


def test_present_path_trivial():
    out = run_cli("present", PATHG, "-n", "2")
    assert out.returncode == 0
    assert out.stdout.strip() == "⟨ | ⟩"


def test_h1_theta_n4():
    out = run_cli("h1", THETA, "-n", "4")
    assert out.returncode == 0
    assert out.stdout.strip() == "Z^3"


def test_json_outputs_are_byte_identical(tmp_path):
    a = run_cli("present", THETA, "-n", "3", "--json")
    b = run_cli("present", THETA, "-n", "3", "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["manifest"]["command"] == "present"
    assert payload["manifest"]["version"]
    assert list(payload["manifest"]["inputs"]) == ["graph"]
    assert payload["manifest"]["parameters"]["particles"] == 3
    assert payload["generators"][2] == "{e(5,9),1,6}"
    assert payload["tree_conditions"]["t3"] == "unverified"


def test_json_file_plus_text(tmp_path):
    out_file = tmp_path / "pres.json"
    r = run_cli("present", THETA, "-n", "2", "--json", str(out_file))
    assert r.returncode == 0
    assert r.stdout.strip().startswith("⟨")
    data = json.loads(out_file.read_text())
    assert data["relators"] == []


def test_exit_codes():
    assert run_cli("nonsense").returncode == 1                 # usage
    assert run_cli("present", THETA).returncode == 1           # missing -n
    assert run_cli("present", "missing.json", "-n", "2").returncode == 2
    assert run_cli("present", THETA, "-n", "6").returncode == 2   # subdivision
    r = run_cli("present", THETA, "-n", "3", "--max-steps", "1")
    assert r.returncode == 3                                   # rewrite bound


def test_subdivide_roundtrip(tmp_path):
    raw = tmp_path / "raw_theta.json"
    raw.write_text(json.dumps({"vertices": [1, 2],
                               "edges": [[1, 2], [1, 2], [1, 2]],
                               "tree_edges": [[1, 2]], "root": 1}))
    out_file = tmp_path / "sub.json"
    r = run_cli("subdivide", str(raw), "-n", "5", "--json", str(out_file))
    assert r.returncode == 0
    data = json.loads(out_file.read_text())["graph"]
    assert len(data["vertices"]) == 11
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(data))
    r2 = run_cli("present", str(graph_file), "-n", "5")
    assert r2.returncode == 0
    assert r2.stdout.count("e(") >= 10


def test_subdivide_then_h1_multigraph(tmp_path, capsys):
    # a parallel edge at the root: the written graph must read back, with the
    # root still a leaf of the tree
    raw = tmp_path / "multigraph.json"
    raw.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3], [1, 2]],
                               "tree_edges": [[1, 2], [1, 3]]}))
    with pytest.warns(UserWarning, match="no rotation"):
        assert main(["subdivide", str(raw), "-n", "3"]) == 0
    sub = tmp_path / "sub.json"
    sub.write_text(capsys.readouterr().out)
    assert main(["h1", str(sub), "-n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Z^3"


def test_subdivide_triangle_for_1100_particles(tmp_path, capsys):
    # the triangle opens into one cycle of 1,101 edges; the cycle search walks
    # it on its own stack, so the recursion limit does not bound n
    raw = tmp_path / "triangle.json"
    raw.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3], [1, 3]],
                               "tree_edges": [[1, 2], [2, 3]], "root": 1}))
    with pytest.warns(UserWarning, match="no rotation"):
        assert main(["subdivide", str(raw), "-n", "1100"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (len(data["vertices"]), len(data["edges"])) == (1101, 1101)


@pytest.mark.parametrize("command, warning, stdout", [
    # a triangle with no rotation
    (["h1", "{triangle}", "-n", "1"],
     "no rotation given; defaulting to ascending neighbor ids (results depend on the embedding)",
     "Z\n"),
    # the lasso has a cut vertex
    (["stabilize", LASSO, "--from", "1", "--to", "2"],
     "graph is not 2-connected; generator counts need not stabilize",
     "  N  #gen  #rel  #new  lift  #min  H1\n"
     "  1     1     0     -     -     1  Z\n"
     "  2     2     0     0    ok     2  Z^2\n"),
], ids=[  # the ids pytest once gave by position; pytest escapes the newlines
    "command0-no rotation given; defaulting to ascending neighbor ids "
    "(results depend on the embedding)-Z\n",
    "command1-graph is not 2-connected; generator counts need not stabilize-"
    "  N  #gen  #rel  #new  lift  #min  H1\n  1     1     0     -     -     1  Z\n"
    "  2     2     0     0    ok     2  Z^2\n"])
def test_warning_prints_as_one_line(tmp_path, command, warning, stdout):
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3], [1, 3]],
                                    "tree_edges": [[1, 2], [2, 3]], "root": 1}))
    argv = [arg.format(triangle=triangle) for arg in command]
    r = run_cli(*argv)
    assert (r.returncode, r.stdout) == (0, stdout)
    assert r.stderr == f"braidforge: warning: {warning}\n"
    # in process the format is set for the call only, and the warning is an
    # ordinary one
    format_warning = warnings.formatwarning
    with pytest.warns(UserWarning, match=re.escape(warning)):
        assert main(argv) == 0
    assert warnings.formatwarning is format_warning


def test_cells_listing():
    r = run_cli("cells", THETA, "-n", "2", "--dim", "1", "--kind", "critical")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("{e(1,8),2}")
    assert "critical" in lines[0]


def test_minimal_and_oracle():
    r = run_cli("minimal", THETA, "-n", "4", "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["generators"]) == 3
    assert data["h1"] == "Z^3"
    assert data["target_reached"] is True

    o = run_cli("oracle", THETA, "-n", "2", "--json")
    assert o.returncode == 0
    odata = json.loads(o.stdout)
    assert odata["h1"] == "Z^3"


def test_stabilize_output():
    r = run_cli("stabilize", THETA, "--from", "2", "--to", "4", "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert [row["n"] for row in data["rows"]] == [2, 3, 4]
    assert data["rows"][2]["lifting_ok"] is True
    assert data["rows"][2]["minimized_generators"] == 3


def test_physical_and_locally_abelian(tmp_path):
    loops = tmp_path / "loops.json"
    loops.write_text(json.dumps({"loops": [
        {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [1, 2]},
        {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [1, 10]},
        {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [10, 11]},
        {"type": "O", "cycle": [1, 2, 3, 4, 5, 6, 7, 8], "spectators": [9, 10, 11]},
        {"type": "O", "cycle": [5, 6, 7, 8, 1, 11, 10, 9], "spectators": [2, 3, 4]},
    ]}))
    r = run_cli("physical", THETA, "-n", "4", "--loops", str(loops), "--json")
    assert r.returncode == 0
    data = json.loads(r.stdout)
    assert len(data["generators"]) == 5
    assert len(data["relators"]) == 3
    assert len(data["dictionary"]) == 5

    la = run_cli("locally-abelian", THETA, "-n", "4", "--loops", str(loops), "--json")
    assert la.returncode == 0
    ldata = json.loads(la.stdout)
    assert ldata["constraints"] == [[1, -1, 0], [0, 1, -1]]
    assert ldata["residual_relators"] == []

    # unsolvable loop set exits with computation failure
    few = tmp_path / "few.json"
    few.write_text(json.dumps({"loops": [
        {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [1, 2]}]}))
    bad = run_cli("physical", THETA, "-n", "4", "--loops", str(few))
    assert bad.returncode == 3
    assert "unsolved" in bad.stderr


def test_rep_solve_and_verify(tmp_path):
    pres = tmp_path / "minimal.json"
    r = run_cli("minimal", THETA, "-n", "4", "--json", str(pres))
    assert r.returncode == 0

    solved = tmp_path / "assignment.json"
    r2 = run_cli("rep-solve", str(pres), "-k", "2", "--seed", "0",
                 "--json", str(solved))
    assert r2.returncode == 0
    blob = json.loads(solved.read_text())
    assert blob["max_deviation"] < 1e-8

    assignment = tmp_path / "a.json"
    assignment.write_text(json.dumps(blob["assignment"]))
    r3 = run_cli("rep-verify", str(pres), str(assignment), "--tol", "1e-8")
    assert r3.returncode == 0
    assert "PASS" in r3.stdout

    # and an assignment that fails: non-monomial conjugator next to a
    # nondegenerate diagonal exchange matrix
    s = 0.7071067811865476
    bad = {"k": 2, "matrices": {
        "{e(5,9),1,2,6}": [[1, 0], [0, 0], [0, 0], [0, 1]],   # diag(1, i)
        "{e(1,8),2,3,4}": [[s, 0], [s, 0], [s, 0], [-s, 0]],  # Hadamard
        "{e(1,11),2,3,4}": [[1, 0], [0, 0], [0, 0], [1, 0]],  # identity
    }}
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    r4 = run_cli("rep-verify", str(pres), str(bad_file), "--tol", "1e-8")
    assert r4.returncode == 3
    assert "FAIL" in r4.stdout


def test_rep_solve_deterministic(tmp_path):
    pres = tmp_path / "minimal.json"
    run_cli("minimal", THETA, "-n", "4", "--json", str(pres))
    a, b = (run_cli("rep-solve", str(pres), "-k", "2", "--seed", "3",
                    "--restarts", "4", "--json") for _ in range(2))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_particles_below_one_exit_2():
    r = run_cli("present", THETA, "-n", "0")
    assert r.returncode == 2
    assert "-n/--particles" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["present", THETA, "-n", "2", "--max-steps", "-1"],
    ["present", THETA, "-n", "3", "--max-steps", "-1"],
    ["h1", THETA, "-n", "3", "--max-steps", "-5"],
], ids=[  # fixed, as in test_solver_options_exit_2: the ids pytest once gave by position
    "argv0", "argv1", "argv2"])
def test_negative_max_steps_exit_2(tmp_path, capsys, argv):
    # refused before any rewrite, also at n = 2 where no relator would be
    # rewritten and the value would otherwise land in the manifest
    out = tmp_path / "out.json"
    assert main(argv + ["--json", str(out)]) == 2
    assert "--max-steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, culprit", [
    (["rep-solve", "PRES", "-k", "2", "--seed", "-1"], "--seed"),
    (["rep-solve", "PRES", "-k", "2", "--restarts", "0"], "--restarts"),
    (["rep-solve", "PRES", "-k", "2", "--restarts", "-3"], "--restarts"),
    (["rep-solve", "PRES", "-k", "2", "--tol", "-1"], "--tol"),
    (["rep-solve", "PRES", "-k", "2", "--tol", "nan"], "--tol"),
    (["rep-solve", "PRES", "-k", "2", "--tol", "inf"], "--tol"),
    (["rep-verify", "PRES", "PRES", "--tol", "0"], "--tol"),
    (["stabilize", THETA, "--from", "3", "--to", "2"], "--from 3 --to 2"),
    (["stabilize", THETA, "--from", "0", "--to", "2"], "--from 0 --to 2"),
    (["rep-solve", "PRES", "-k", "0"], "-k/--dimension must be at least 1, got 0"),
    (["rep-solve", "PRES", "-k", "-2"], "-k/--dimension must be at least 1, got -2"),
], ids=[  # fixed, so deleting a case renames no other; these are the ids pytest
    # once gave by position, kept because earlier test runs name them
    "argv0---seed", "argv1---restarts", "argv2---restarts", "argv3---tol", "argv4---tol",
    "argv5---tol", "argv6---tol", "argv7---from 3 --to 2", "argv8---from 0 --to 2",
    "argv9--k/--dimension must be at least 1, got 0",
    "argv10--k/--dimension must be at least 1, got -2"])
def test_solver_options_exit_2(tmp_path, capsys, argv, culprit):
    # rejected before any restart is drawn or any graph is read
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": ["a"], "relators": [[[0, 1], [0, 1]]]}))
    assert main([str(pres) if a == "PRES" else a for a in argv]) == 2
    assert culprit in capsys.readouterr().err


def test_malformed_presentation_exit_2(tmp_path):
    cases = {
        "nogen.json": ({"relators": []}, "'generators'"),
        "norel.json": ({"generators": ["a"]}, "'relators'"),
        "range.json": ({"generators": ["a"], "relators": [[[4, 1]]]},
                       "relator 0 has letter [4, 1]"),
        "flat.json": ({"generators": ["a"], "relators": [[[0, 1]], 5]},
                      "relator 1 has letter 5"),
    }
    for name, (data, culprit) in cases.items():
        pres = tmp_path / name
        pres.write_text(json.dumps(data))
        r = run_cli("rep-solve", str(pres), "-k", "2")
        assert r.returncode == 2, name
        assert culprit in r.stderr, name
        assert "Traceback" not in r.stderr, name


def test_loop_without_required_key_exit_2(tmp_path):
    loops = tmp_path / "nok.json"
    loops.write_text(json.dumps({"loops": [
        {"type": "O", "cycle": [1, 2, 3, 4, 5, 6, 7, 8], "spectators": [9]},
        {"type": "Y", "m": 6, "n": 9, "spectators": [1]}]}))
    r = run_cli("physical", THETA, "-n", "2", "--loops", str(loops))
    assert r.returncode == 2
    assert "loop 1 (Y) has no 'k'" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("n, cycle, spectator", [
    (1, [1, 2, 3, 4, 5, 6, 7, 8], 9),
    (2, [5, 6, 7, 8, 1, 11, 10, 9], 2),
], ids=["n1", "n2"])
def test_unknown_loop_key_exit_2(tmp_path, capsys, n, cycle, spectator):
    # a misspelt key is refused by name, not dropped: dropped, the loop would
    # lack its spectator at n = 2 and be read without it at n = 1
    loops = tmp_path / "loops.json"
    loops.write_text(json.dumps({"loops": [
        {"type": "O", "cycle": cycle, "spectator": [spectator]}]}))
    assert main(["physical", THETA, "-n", str(n), "--loops", str(loops)]) == 2
    assert ("loop 0 (O) has unknown key 'spectator'; its fields are 'cycle', 'spectators'"
            in capsys.readouterr().err)


THETA_GRAPH = json.loads(Path(THETA).read_text())
LOOPS4 = {"loops": [
    {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [1, 2]},
    {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [1, 10]},
    {"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [10, 11]},
    {"type": "O", "cycle": [1, 2, 3, 4, 5, 6, 7, 8], "spectators": [9, 10, 11]},
    {"type": "O", "cycle": [5, 6, 7, 8, 1, 11, 10, 9], "spectators": [2, 3, 4]}]}


@pytest.mark.parametrize("command, data, culprit", [
    ("physical", [1], "not an object with a 'loops' list"),
    ("physical", {"loops": [1]}, "loop 0 is not an object"),
    ("physical", {"loops": 5}, "not an object with a 'loops' list"),
    ("physical", {"loops": [{"type": "Y", "k": "x", "m": 6, "n": 9}]},
     "loop 0 (Y) has 'k' = 'x'"),
    ("physical", {"loops": [{"type": "Y", "k": 4, "m": 6, "n": 9,
                             "spectators": ["a"]}]}, "loop 0 (Y) has 'spectators'"),
    ("physical", {"loops": [{"type": "O", "cycle": [1, "b"]}]},
     "loop 0 (O) has 'cycle'"),
    ("h1", dict(THETA_GRAPH, root="x"), "root 'x'"),
    ("h1", dict(THETA_GRAPH, rotation=dict(THETA_GRAPH["rotation"], **{"1": 5})),
     "rotation entry '1'"),
    ("rep-verify", {"matrices": {}}, "assignment 'k'"),
    ("rep-verify", {"k": 2, "matrices": {"a": [1, 2, 3, 4]}}, "matrix for a"),
    # ids and k are integers: no truncation of 4.9, no bool as 1
    ("physical", {"loops": [{"type": "Y", "k": 4.9, "m": 6, "n": 9}]},
     "loop 0 (Y) has 'k' = 4.9"),
    ("physical", {"loops": [{"type": "O", "cycle": [1, 2, 3, 4, 5, 6, 7, 8],
                             "spectators": [True]}]}, "loop 0 (O) has 'spectators'"),
    ("h1", dict(THETA_GRAPH, root=1.9), "root 1.9"),
    ("h1", dict(THETA_GRAPH, vertices=THETA_GRAPH["vertices"][:-1] + [11.5]),
     "'vertices'"),
    ("h1", dict(THETA_GRAPH, tree_edges=THETA_GRAPH["tree_edges"][:-1] + [[True, 2]]),
     "'tree_edges'"),
    ("h1", dict(THETA_GRAPH, rotation=dict(THETA_GRAPH["rotation"], **{"1": [2, 8.5]})),
     "rotation entry '1'"),
    ("rep-verify", {"k": 2.7, "matrices": {}}, "assignment 'k' is 2.7"),
    # inputs that no subdivision serves, or that are not subdivided enough
    ("subdivide", {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3], [1, 1]],
                   "tree_edges": [[1, 2], [2, 3]], "root": 1},
     "loop (1, 1) at the root 1"),
    ("stabilize", {"vertices": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4], [1, 3]],
                   "tree_edges": [[1, 2], [2, 3], [2, 4]], "root": 3},
     "root arc (3, 2) with 1 edges (needs 2)"),
    # generator names are distinct non-empty strings
    ("rep-solve", {"generators": [""], "relators": []}, "generator 0 is ''"),
    ("rep-solve", {"generators": [["a"]], "relators": []}, "generator 0 is ['a']"),
    ("rep-solve", {"generators": ["a", "a"], "relators": []}, "generator 1 is 'a'"),
    # spectator counts and ids are checked against n = 2 and named by loop
    ("physical", {"loops": [{"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": [1, 2, 3]}]},
     "Y(4,6,9;1,2,3): a Y loop for 2 particles takes 0 spectators, got 3"),
    ("physical", {"loops": [{"type": "O", "cycle": [1, 2, 3, 4, 5, 6, 7, 8],
                             "spectators": [99]}]},
     "O(1-2-3-4-5-6-7-8;99): spectators [99] are not vertices"),
    # loop words that do not fit the graph name their loop
    ("physical", {"loops": [{"type": "Y", "k": 4, "m": 6, "n": 9},
                            {"type": "Y", "k": 4, "m": 6, "n": 10}]},
     "Y(4,6,10;): 6 and 10 are not tree siblings; no junction"),
    ("physical", {"loops": [{"type": "O", "cycle": [1, 2, 7], "spectators": [9]}]},
     "O(1-2-7;9): cycle step 2->7 is not an edge"),
    # a missing top-level key is named as missing; a subdivide --json
    # artifact is recognised by its "graph" key
    ("h1", {"manifest": {}, "graph": THETA_GRAPH},
     "missing key 'vertices'; this looks like a `subdivide --json` artifact, "
     'whose graph sits under "graph"'),
    ("h1", {k: v for k, v in THETA_GRAPH.items() if k != "tree_edges"},
     "malformed graph file: missing key 'tree_edges'"),
    # a loop type that is not a string, a tree edge of three ids, a letter
    # whose index is a bool, and a non-finite matrix entry
    ("physical", {"loops": [{"type": ["Y"], "k": 4, "m": 6, "n": 9}]},
     "unknown loop type ['Y']"),
    ("h1", dict(THETA_GRAPH, tree_edges=THETA_GRAPH["tree_edges"][:-1] + [[1, 2, 3]]),
     "'tree_edges': [1, 2, 3] is not a pair of vertex ids"),
    ("rep-solve", {"generators": ["a"], "relators": [[[True, 1]]]},
     "relator 0 has letter [True, 1]"),
    ("rep-verify", {"k": 2, "matrices": {"a": [[math.nan, 0], [0, 0], [0, 0], [1, 0]]}},
     "matrix for a is not unitary (defect nan)"),
    # ids, k and letters are JSON numbers, not strings that parse as ones;
    # rotation keys, which JSON makes strings, are decimal ids as written
    ("h1", dict(THETA_GRAPH, vertices=[str(v) for v in THETA_GRAPH["vertices"]]),
     "'vertices': '1' is not an integer"),
    ("h1", dict(THETA_GRAPH, edges=THETA_GRAPH["edges"][:-1] + [["1", 11]]), "'edges'"),
    ("h1", dict(THETA_GRAPH, root="1"), "root '1'"),
    ("h1", dict(THETA_GRAPH, rotation=dict(THETA_GRAPH["rotation"], **{"1": ["2", 8, 11]})),
     "rotation entry '1'"),
    ("h1", dict(THETA_GRAPH, rotation={(f" {v} " if v == "1" else v): nbrs
                                       for v, nbrs in THETA_GRAPH["rotation"].items()}),
     "rotation entry ' 1 '"),
    ("rep-solve", {"generators": ["a", "b"], "relators": [[["1", " 1 "]]]},
     "relator 0 has letter ['1', ' 1 ']"),
    ("rep-verify", {"k": "2", "matrices": {}}, "assignment 'k' is '2'"),
    ("physical", {"loops": [{"type": "Y", "k": "4", "m": 6, "n": 9}]},
     "loop 0 (Y) has 'k' = '4'"),
    # a top level that is not an object is named as such
    ("h1", [1, 2], "expected a JSON object with 'vertices', 'edges' and 'tree_edges', got list"),
    ("h1", "x", "expected a JSON object with 'vertices', 'edges' and 'tree_edges', got str"),
    ("h1", None, "expected a JSON object with 'vertices', 'edges' and 'tree_edges', got NoneType"),
    # a loop's optional fields are read before its required ones
    ("physical", {"loops": [{"type": "Y", "k": "x", "m": 6, "n": 9, "spectators": "y"}]},
     "loop 0 (Y) has 'spectators' = 'y'"),
    # an unknown loop type names its entry
    ("physical", {"loops": [{"type": "Y", "k": 4, "m": 6, "n": 9}, {"type": "X"}]},
     "loop 1: unknown loop type 'X'"),
], ids=[  # fixed, as in test_solver_options_exit_2: the ids pytest once gave by position
    "physical-data0-not an object with a 'loops' list",
    "physical-data1-loop 0 is not an object",
    "physical-data2-not an object with a 'loops' list",
    "physical-data3-loop 0 (Y) has 'k' = 'x'", "physical-data4-loop 0 (Y) has 'spectators'",
    "physical-data5-loop 0 (O) has 'cycle'", "h1-data6-root 'x'",
    "h1-data7-rotation entry '1'", "rep-verify-data8-assignment 'k'",
    "rep-verify-data9-matrix for a", "physical-data10-loop 0 (Y) has 'k' = 4.9",
    "physical-data11-loop 0 (O) has 'spectators'", "h1-data12-root 1.9",
    "h1-data13-'vertices'", "h1-data14-'tree_edges'", "h1-data15-rotation entry '1'",
    "rep-verify-data16-assignment 'k' is 2.7", "subdivide-data17-loop (1, 1) at the root 1",
    "stabilize-data18-root arc (3, 2) with 1 edges (needs 2)",
    "rep-solve-data19-generator 0 is ''", "rep-solve-data20-generator 0 is ['a']",
    "rep-solve-data21-generator 1 is 'a'",
    "physical-data22-Y(4,6,9;1,2,3): a Y loop for 2 particles takes 0 spectators, got 3",
    "physical-data23-O(1-2-3-4-5-6-7-8;99): spectators [99] are not vertices",
    "physical-data24-Y(4,6,10;): 6 and 10 are not tree siblings; no junction",
    "physical-data25-O(1-2-7;9): cycle step 2->7 is not an edge",
    ("h1-data26-missing key 'vertices'; this looks like a `subdivide --json` artifact, "
     'whose graph sits under "graph"'),
    "h1-data27-malformed graph file: missing key 'tree_edges'",
    "physical-data28-unknown loop type ['Y']",
    "h1-data29-'tree_edges': [1, 2, 3] is not a pair of vertex ids",
    "rep-solve-data30-relator 0 has letter [True, 1]",
    "rep-verify-data31-matrix for a is not unitary (defect nan)",
    "h1-data32-'vertices': '1' is not an integer", "h1-data33-'edges'",
    "h1-data34-root '1'", "h1-data35-rotation entry '1'", "h1-data36-rotation entry ' 1 '",
    "rep-solve-data37-relator 0 has letter ['1', ' 1 ']",
    "rep-verify-data38-assignment 'k' is '2'", "physical-data39-loop 0 (Y) has 'k' = '4'",
    "h1-data40-expected a JSON object with 'vertices', 'edges' and 'tree_edges', got list",
    "h1-x-expected a JSON object with 'vertices', 'edges' and 'tree_edges', got str",
    "h1-None-expected a JSON object with 'vertices', 'edges' and 'tree_edges', got NoneType",
    "physical-spectators-before-k", "physical-unknown-type-names-its-entry"])
def test_malformed_input_file_exit_2(tmp_path, capsys, command, data, culprit):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps({"generators": ["a"], "relators": []}))
    argv = {"physical": ["physical", THETA, "-n", "2", "--loops", str(bad)],
            "h1": ["h1", str(bad), "-n", "2"],
            "rep-verify": ["rep-verify", str(pres), str(bad)],
            "rep-solve": ["rep-solve", str(bad), "-k", "2"],
            "subdivide": ["subdivide", str(bad), "-n", "3"],
            "stabilize": ["stabilize", str(bad), "--from", "2", "--to", "3"]}[command]
    # the stabilize case's graph has no rotation, and ordering it says so
    with (pytest.warns(UserWarning, match="no rotation given") if command == "stabilize"
          else contextlib.nullcontext()):
        assert main(argv) == 2
    assert culprit in capsys.readouterr().err


def test_rep_verify_names_a_missing_matrix_before_allocating(tmp_path, capsys, monkeypatch):
    # k = 100000 with no matrices: exit 2 naming the first generator, without
    # building a 100000 x 100000 identity first
    real_eye = bf.reps.np.eye

    def small_eye(k, *args, **kwargs):
        assert k <= 2, f"np.eye({k}) built"
        return real_eye(k, *args, **kwargs)
    monkeypatch.setattr(bf.reps.np, "eye", small_eye)
    pres, assign = tmp_path / "pres.json", tmp_path / "assign.json"
    pres.write_text(json.dumps(MIN2))
    assign.write_text(json.dumps({"k": 100000, "matrices": {}}))
    assert main(["rep-verify", str(pres), str(assign)]) == 2
    assert "no matrix assigned to generator {e(1,8),2}" in capsys.readouterr().err


def test_rep_verify_overflowing_entry_stderr_is_the_error_alone(tmp_path):
    # an entry of 1e200 overflows the unitarity check to a NaN defect, which
    # fails; numpy's overflow warnings stay off stderr
    pres, assign = tmp_path / "pres.json", tmp_path / "assign.json"
    pres.write_text(json.dumps(MIN2))
    huge = {"{e(1,8),2}": [[1e200, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    assign.write_text(json.dumps({"k": 2, "matrices": huge}))
    r = run_cli("rep-verify", str(pres), str(assign))
    assert r.returncode == 2
    assert r.stderr == ("braidforge: validation error: matrix for {e(1,8),2} "
                        "is not unitary (defect nan)\n")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("target, argv, named", [
    ("braidforge.reps.haar_unitary", ["rep-solve", "PRES", "-k", "100000"],
     "out of memory in rep-solve -k 100000"),
    ("braidforge.cli.morse_presentation", ["present", THETA, "-n", "3"],
     "out of memory in present -n 3"),
], ids=["braidforge.reps.haar_unitary-argv0-out of memory in rep-solve -k 100000",
        "braidforge.cli.morse_presentation-argv1-out of memory in present -n 3"])
def test_out_of_memory_exits_3_naming_the_command(tmp_path, capsys, monkeypatch,
                                                  target, argv, named):
    # the patched call raises at once, so nothing large is allocated
    monkeypatch.setattr(target, _out_of_memory)
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(MIN2))
    assert main([str(pres) if a == "PRES" else a for a in argv]) == 3
    assert capsys.readouterr().err == f"braidforge: computation failed: {named}\n"


def test_float_letters_read_as_integers(tmp_path):
    # letters follow the integer rule of every other input file: 1.0 is 1
    exact, floats = tmp_path / "exact.json", tmp_path / "floats.json"
    exact.write_text(json.dumps({"generators": ["a", "b"], "relators": [[[1, 1], [1, 1]]]}))
    floats.write_text(json.dumps({"generators": ["a", "b"],
                                  "relators": [[[1.0, 1], [1, 1.0]]]}))
    assert (_load_fp(argparse.Namespace(presentation=str(floats), inputs={}))
            == _load_fp(argparse.Namespace(presentation=str(exact), inputs={})))
    assert main(["rep-solve", str(floats), "-k", "1", "--restarts", "1"]) == 0


# valid inputs of the kind perfbench's cli-small workload writes: the theta
# graph, a two-particle loop system, the minimized theta n = 2 presentation
# and the identity assignment at k = 2
LOOPS2 = {"loops": [{"type": "Y", "k": 4, "m": 6, "n": 9, "spectators": []},
                    {"type": "O", "cycle": [5, 6, 7, 8, 1, 11, 10, 9], "spectators": [2]},
                    {"type": "O", "cycle": [1, 2, 3, 4, 5, 6, 7, 8], "spectators": [9]}]}
MIN2 = {"generators": ["{e(1,8),2}", "{e(1,11),2}", "{e(5,9),6}"], "relators": []}
ASSIGN2 = {"k": 2, "matrices": {g: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
                                for g in MIN2["generators"]}}
VALID_INPUTS = {"graph": THETA_GRAPH, "loops": LOOPS2, "presentation": MIN2,
                "assignment": ASSIGN2}
ARGV_READING = {"GRAPH": ["h1", "GRAPH", "-n", "2"],
                "LOOPS": ["physical", THETA, "-n", "2", "--loops", "LOOPS"],
                "PRES": ["rep-verify", "PRES", "ASSIGN"],
                "ASSIGN": ["rep-verify", "PRES", "ASSIGN"],
                "OUT": ["rep-verify", "PRES", "ASSIGN", "--json", "OUT"]}


@pytest.mark.parametrize("bad, kind", [
    *((bad, kind) for bad in ("GRAPH", "LOOPS", "PRES", "ASSIGN")
      for kind in ("directory", "not UTF-8", "missing")),
    ("OUT", "directory"),
    ("OUT", "missing"),
])
def test_unreadable_file_exit_2(tmp_path, capsys, bad, kind):
    # every input file is read in one place, and --json PATH written in one
    # place, whose failures exit 2 and name the file
    files = {name: tmp_path / f"{name.lower()}.json" for name in ARGV_READING}
    files["PRES"].write_text(json.dumps(MIN2))
    files["ASSIGN"].write_text(json.dumps(ASSIGN2))
    if kind == "directory":
        files[bad].unlink(missing_ok=True)
        files[bad].mkdir()
    elif kind == "not UTF-8":
        files[bad].write_bytes(b'{"k": "\xff"}')
    else:
        files[bad].unlink(missing_ok=True)
        if bad == "OUT":
            files[bad] = tmp_path / "no-such-dir" / "out.json"
    argv = [str(files[a]) if a in files else a for a in ARGV_READING[bad]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    verb = "write --json" if bad == "OUT" else "read"
    assert f"cannot {verb} " in err and str(files[bad]) in err and "Traceback" not in err


DELETE, DIRECTORY = "<delete the key>", "<a directory>"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)


@st.composite
def _edits(draw):
    """(input, key path, new value): one key of one valid input replaced by
    a drawn JSON value, or deleted."""
    name = draw(st.sampled_from(sorted(VALID_INPUTS)))
    doc, path = VALID_INPUTS[name], []
    while isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                                   else range(len(doc))))
        path.append(key)
        doc = doc[key]
    value = draw(st.just(DELETE) | JSON_VALUES) if path else draw(JSON_VALUES)
    return name, tuple(path), value


def _write_edited(path: Path, doc, keys, value):
    """Write `doc` with `value` at the key path `keys`; a value of DIRECTORY
    or of bytes at the empty path replaces the file itself."""
    if value == DIRECTORY:
        path.mkdir()
    elif isinstance(value, bytes):
        path.write_bytes(value)
    elif not keys:
        path.write_text(json.dumps(value))
    else:
        doc = copy.deepcopy(doc)
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value == DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
        path.write_text(json.dumps(doc))


GEN = MIN2["generators"][0]


@given(edit=_edits())
@example(edit=("graph", ("tree_edges", 0), [1, 2, 3]))
@example(edit=("loops", ("loops", 0, "type"), ["Y"]))
@example(edit=("presentation", ("relators",), [[[True, 1]]]))
@example(edit=("presentation", ("relators",), [[[1.0, 1], [1, 1.0]]]))
@example(edit=("assignment", ("matrices", GEN, 0), [math.nan, 0]))
@example(edit=("assignment", ("matrices", GEN, 0), [math.inf, 0]))
@example(edit=("assignment", ("matrices", GEN, 0), [10 ** 400, 0]))
@example(edit=("graph", (), b"[" * 100_000 + b"]" * 100_000))
@example(edit=("graph", (), DIRECTORY))
@example(edit=("loops", (), DIRECTORY))
@example(edit=("presentation", (), DIRECTORY))
@example(edit=("assignment", (), DIRECTORY))
@example(edit=("graph", (), b"\xff\xfe{}"))
@example(edit=("loops", (), b"\xff\xfe{}"))
@example(edit=("presentation", (), b"\xff\xfe{}"))
@example(edit=("assignment", (), b"\xff\xfe{}"))
@example(edit=("--json", (), DIRECTORY))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_no_input_file_ends_in_a_traceback(edit):
    # the CLI computes or exits 2 or 3 on every input file; a traceback
    # would escape main and fail the example
    name, keys, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        files = {key: Path(tmp, f"{key}.json") for key in (*VALID_INPUTS, "--json")}
        for key, doc in VALID_INPUTS.items():
            if key != name:
                files[key].write_text(json.dumps(doc))
        _write_edited(files[name], VALID_INPUTS.get(name), keys, value)
        out = ["--json", str(files["--json"])]
        graph, loops = str(files["graph"]), str(files["loops"])
        runs = {"graph": [["h1", graph, "-n", "2"],
                          ["physical", graph, "-n", "2", "--loops", loops]],
                "loops": [["physical", graph, "-n", "2", "--loops", loops]],
                "--json": [["h1", graph, "-n", "2"]]}.get(
            name, [["rep-verify", str(files["presentation"]), str(files["assignment"])]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for argv in runs:
                assert main(argv + out) in (0, 2, 3)


@pytest.mark.parametrize("argv, digest", [
    (["present", THETA, "-n", "3"],
     "ad3c511ed406f3a6292dc903682e93220b04277ad535f8cb41178f06f8ea7015"),
    (["minimal", THETA, "-n", "4"],
     "607102d970b276c3ea680c9220df813723042efccc090e02c974ba49bb822d23"),
    (["physical", THETA, "-n", "4", "--loops", "LOOPS4"],
     "75e9e0a996ed34494e6b35abaf82413ad2ac8c2cd72a9cafa7c7f2b25f0c4274"),
    (["locally-abelian", THETA, "-n", "4", "--loops", "LOOPS4"],
     "53342a7c6710b14522e51d489b7afb2564f3a1e7a32e5faa57e2712afa9c61a5"),
    (["cells", THETA, "-n", "3", "--kind", "critical"],
     "49699c065407e3b53f4309f71fa3ef52ec624cdbaa980e2dd0f484e51c325667"),
    (["subdivide", LASSO, "-n", "3"],
     "52919ec4eade55958510fd87d6de32e64a1178053cb587cab2b8bff32b36d21d"),
    (["h1", THETA, "-n", "3"],
     "921a57b08455141d16e5463224e05b947004450375281e1e7d257da5129c1a32"),
    (["oracle", THETA, "-n", "2"],
     "fd9a5448364dfa3539cd5a4094b57bb4adbec704462c9646b2ae0fb2a1f48c2a"),
    (["stabilize", THETA, "--from", "2", "--to", "4"],
     "8a3fab487ea4b423cc62e201f009912f71aff728eb073c86c6a6f925bd49ebb7"),
], ids=[  # fixed, as in test_solver_options_exit_2: the ids pytest once gave by position
    "argv0-ad3c511ed406f3a6292dc903682e93220b04277ad535f8cb41178f06f8ea7015",
    "argv1-607102d970b276c3ea680c9220df813723042efccc090e02c974ba49bb822d23",
    "argv2-75e9e0a996ed34494e6b35abaf82413ad2ac8c2cd72a9cafa7c7f2b25f0c4274",
    "argv3-53342a7c6710b14522e51d489b7afb2564f3a1e7a32e5faa57e2712afa9c61a5",
    "argv4-49699c065407e3b53f4309f71fa3ef52ec624cdbaa980e2dd0f484e51c325667",
    "argv5-52919ec4eade55958510fd87d6de32e64a1178053cb587cab2b8bff32b36d21d",
    "argv6-921a57b08455141d16e5463224e05b947004450375281e1e7d257da5129c1a32",
    "argv7-fd9a5448364dfa3539cd5a4094b57bb4adbec704462c9646b2ae0fb2a1f48c2a",
    "argv8-8a3fab487ea4b423cc62e201f009912f71aff728eb073c86c6a6f925bd49ebb7"])
def test_json_artifact_digests(tmp_path, argv, digest):
    # pins the JSON artifacts byte for byte
    loops = tmp_path / "loops4.json"
    loops.write_text(json.dumps(LOOPS4))
    argv = [str(loops) if a == "LOOPS4" else a for a in argv]
    r = subprocess.run([sys.executable, "-m", "braidforge.cli", *argv, "--json"],
                       capture_output=True)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout).hexdigest() == digest


def test_piped_input_is_hashed_as_read():
    # /dev/stdin can be read only once, so the manifest must hash the bytes
    # that were parsed, not a second read
    hashes = []
    for name, pretty in (("theta", "Z^3"), ("y", "Z")):
        data = fixture_path(name).read_bytes()
        r = subprocess.run([sys.executable, "-m", "braidforge.cli", "h1", "/dev/stdin",
                            "-n", "2", "--json"], input=data, capture_output=True)
        assert r.returncode == 0
        artifact = json.loads(r.stdout)
        assert artifact["pretty"] == pretty
        hashes.append(artifact["manifest"]["inputs"]["graph"])
        assert hashes[-1] == hashlib.sha256(data).hexdigest()
    assert hashes[0] != hashes[1]


PRES2_SHA = "4eb193c749cdc0804a2340382b084878767d3f5fc9bca13c9d04099a75a375d4"


@pytest.mark.parametrize("argv, manifest", [
    (["rep-verify", "PRES", "ASSIGN", "--tol", "1e-6"],
     {"command": "rep-verify",
      "inputs": {"assignment": "3ad50f8c95c6afbea4ea7444ffcb8bfc76cda20011eba848add91fe6889ee24d",
                 "presentation": PRES2_SHA},
      "parameters": {"tol": 1e-06}, "version": "0.1.0"}),
    (["rep-solve", "PRES", "-k", "2", "--seed", "3", "--restarts", "4"],
     {"command": "rep-solve", "inputs": {"presentation": PRES2_SHA},
      "parameters": {"k": 2, "restarts": 4, "seed": 3, "tol": 1e-08}, "version": "0.1.0"}),
], ids=[  # fixed, as in test_solver_options_exit_2: the ids pytest once gave by position
    "argv0-manifest0", "argv1-manifest1"])
def test_rep_manifests(tmp_path, capsys, argv, manifest):
    # the floats of these artifacts depend on the BLAS build, so the
    # manifest is pinned instead of a digest of the whole artifact
    files = {"PRES": tmp_path / "pres.json", "ASSIGN": tmp_path / "assign.json"}
    files["PRES"].write_text(json.dumps(MIN2))
    files["ASSIGN"].write_text(json.dumps(ASSIGN2))
    assert main([str(files[a]) if a in files else a for a in argv] + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"] == manifest


def _long_theta(arc: int) -> dict:
    """A pendant root 1 on junction 2, and three arcs of `arc` edges each
    from 2 to 3; the first arc is in the tree, the others lose their last
    edge."""
    vertices, edges, tree = [1, 2, 3], [[1, 2]], [[1, 2]]
    for a in range(3):
        path = [2] + list(range(len(vertices) + 1, len(vertices) + arc)) + [3]
        vertices += path[1:-1]
        for i, e in enumerate(zip(path, path[1:])):
            edges.append(list(e))
            if a == 0 or i < arc - 1:
                tree.append(list(e))
    rotation = {str(v): [w for e in edges if v in e for w in e if w != v]
                for v in vertices}
    return {"vertices": vertices, "edges": edges, "tree_edges": tree, "root": 1,
            "rotation": rotation}


@pytest.mark.parametrize("arc", [4, 400])
def test_long_flow_lines_compute(tmp_path, capsys, arc):
    # at 400 edges per arc, flow lines run deeper than the interpreter's
    # recursion limit; the flow walks them on its own stack
    raw, sub, pres = tmp_path / "raw.json", tmp_path / "sub.json", tmp_path / "pres.json"
    raw.write_text(json.dumps(_long_theta(arc)))
    assert main(["subdivide", str(raw), "-n", "3"]) == 0
    sub.write_text(capsys.readouterr().out)
    assert main(["present", str(sub), "-n", "3", "--json", str(pres)]) == 0
    data = json.loads(pres.read_text())
    assert (len(data["generators"]), len(data["relators"])) == (13, 6)
    capsys.readouterr()
    assert main(["h1", str(sub), "-n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "Z^7"
    if arc == 4:
        # the brute-force 1-skeleton oracle agrees where it is affordable
        assert main(["oracle", str(sub), "-n", "3"]) == 0
        assert capsys.readouterr().out.strip().endswith("H1 = Z^7")


def test_cyclic_matching_exit_2(monkeypatch, capsys):
    # break theta n=3: the square of a redundant cell b met while expanding a
    # redundant letter a of the first relator now leads back to a
    cx = bf.CubeComplex(bf.ordered(bf.parse_graph(THETA_GRAPH)), 3)
    a, b = inject_flow_cycle(monkeypatch, cx)
    assert main(["present", THETA, "-n", "3"]) == 2
    err = capsys.readouterr().err
    assert "cycle" in err and (str(a) in err or str(b) in err)
