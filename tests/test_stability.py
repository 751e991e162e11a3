import warnings
from itertools import combinations

import pytest

import braidforge as bf
from braidforge.errors import ValidationError
from braidforge.stability import critical_cell_size, plus_cell, plus_word

from helpers import (E59, cell, complete_bipartite_33, complete_graph,
                     complex_for, morse, og, theta_cells)


def test_plus_cell_examples():
    cx3 = complex_for("theta", 3)
    cx4 = complex_for("theta", 4)
    c2, c3, c4 = theta_cells(2), theta_cells(3), theta_cells(4)
    assert plus_cell(cx3, c2["g"]) == c3["g"]          # adds vertex 1
    assert plus_cell(cx3, c2["a1"]) == c3["a1"]        # adds vertex 3
    assert plus_cell(cx4, c3["t1"]) == c4["t1"]        # adds vertex 2
    assert plus_cell(cx4, c3["s1"]) == c4["s1"]
    assert plus_cell(cx4, c3["s2"]) == c4["s2"]


def test_plus_word_letterwise_signs():
    cx4 = complex_for("theta", 4)
    c3, c4 = theta_cells(3), theta_cells(4)
    word = ((c3["a1"], 1), (c3["g"], -1))
    assert plus_word(cx4, word) == ((c4["a1"], 1), (c4["g"], -1))


def test_lifting_identity_3_to_4():
    cx3 = complex_for("theta", 3)
    cx4 = complex_for("theta", 4)
    mp3 = morse("theta", 3)
    for word, tau in mp3.relators:
        tau_plus = plus_cell(cx4, tau)
        recomputed = bf.rewrite_word(cx4, cx4.boundary_word(tau_plus)).output
        lifted = plus_word(cx4, mp3.index_word_to_cells(word))
        assert recomputed == lifted


def test_lifting_identity_2_to_3_vacuous():
    assert morse("theta", 2).relators == []


def test_critical_cell_sizes():
    o = og("theta")
    c = theta_cells(4)
    expected = {"a1": 0, "a2": 0, "g": 1, "s1": 2, "s2": 2,
                "s3": 3, "s4": 3, "s5": 3}
    for key, size in expected.items():
        assert critical_cell_size(o, c[key]) == size, key


def test_stability_report_theta():
    report = bf.stability_report(og("theta"), 2, 4)
    rows = {r.n: r for r in report.rows}
    assert rows[2].generators == 3 and rows[2].relators == 0
    assert rows[3].generators == 5 and rows[3].new_relators == 2
    assert rows[4].generators == 8 and rows[4].new_relators == 4
    assert all(rows[n].minimized_generators == 3 for n in (2, 3, 4))
    assert all(rows[n].h1 == "Z^3" for n in (2, 3, 4))
    assert rows[3].lifting_ok and rows[4].lifting_ok
    assert not report.stabilized()

    pairs3 = dict(report.generator_correspondence[3])
    c2, c3 = theta_cells(2), theta_cells(3)
    assert pairs3[str(c2["g"])] == str(c3["g"])
    assert pairs3[str(c2["a1"])] == str(c3["a1"])


def test_stability_report_through_five():
    # the lifting identity keeps holding at 4 -> 5 and the minimized
    # generator count stays pinned at the homology target
    report = bf.stability_report(og("theta"), 2, 5)
    rows = {r.n: r for r in report.rows}
    assert rows[5].generators == 10 and rows[5].relators == 10
    assert rows[5].lifting_ok
    assert rows[5].new_relators == 4
    assert rows[5].minimized_generators == 3


def _three_connected(g):
    """More than three vertices, and no two of them disconnect the rest."""
    adj = {v: set() for v in g.vertices}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    for cut in combinations(g.vertices, 2):
        rest = set(g.vertices) - set(cut)
        seen, stack = set(), [min(rest)]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v] & rest)
        if seen != rest:
            return False
    return len(g.vertices) > 3


@pytest.mark.parametrize("graph, planar, n_hi", [
    (complete_graph(4), True, 5),
    (complete_graph(5), False, 4),
    (complete_bipartite_33(), False, 4),
], ids=["K4", "K5", "K33"])
def test_h1_independent_of_n_ko_park(graph, planar, n_hi):
    """Ko & Park, "Characteristics of graph braid groups", Discrete Comput.
    Geom. 48 (2012), compute H1 of the unordered n-strand braid group of a
    finite connected graph for n >= 2.  The n-dependent part comes from the
    graph's 1-cuts only, so a 2-connected graph's H1 is the same for every
    n >= 2.  A 3-connected graph has no 2-cuts either and is its own single
    3-connected component; its H1 is Z^(beta1 + 1) when it is planar and
    Z^beta1 (+) Z_2 when it is not.  K4, K5 and K3,3 are 3-connected
    (checked here); K4 is planar, K5 and K3,3 are Kuratowski's non-planar
    graphs.  The discretized complex carries that braid group once the
    graph is subdivided enough for the largest n, and subdivision leaves
    beta1 unchanged, so each graph goes through `subdivide_for` once."""
    assert _three_connected(graph)
    beta1 = len(graph.edges) - len(graph.vertices) + 1
    expected = f"Z^{beta1 + 1}" if planar else f"Z^{beta1} (+) Z_2"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        o = bf.ordered(bf.subdivide_for(graph, n_hi))
    report = bf.stability_report(o, 2, n_hi)
    assert [(r.n, r.h1) for r in report.rows] == \
        [(n, expected) for n in range(2, n_hi + 1)]


def test_stability_report_path_trivial():
    with pytest.warns(UserWarning, match="2-connected"):
        report = bf.stability_report(og("path"), 2, 4)
    for r in report.rows:
        assert r.generators == 0 and r.relators == 0
        assert r.minimized_generators == 0
    assert report.generator_correspondence[3] == []
    assert report.stabilized()


def test_stability_warns_not_two_connected():
    with pytest.warns(UserWarning, match="2-connected"):
        bf.stability_report(og("y"), 2, 3)


def test_stability_requires_sufficient_subdivision():
    with pytest.raises(ValidationError):
        bf.stability_report(og("theta"), 2, 7)


def test_two_connectivity_detection():
    assert og("theta").is_two_connected()
    assert not og("y").is_two_connected()
    assert not og("lasso").is_two_connected()


def test_plus_cell_requires_extension():
    # a cell that is critical only because of a vertex that the next level
    # cannot spare does not exist on the theta fixture at n<=4; exercise the
    # explicit error through an artificially full cell instead
    cx2 = complex_for("theta", 2)
    full = cell([E59], list(range(1, 9)) + [10, 11])   # not even valid
    with pytest.raises(ValidationError):
        plus_cell(cx2, full)
