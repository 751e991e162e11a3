import hashlib
import json
import random
import warnings

import pytest

import braidforge as bf
from braidforge.errors import GraphFormatError, SubdivisionError, ValidationError
from braidforge.fixtures import load_fixture
from braidforge.graph import check_tree_conditions, relabel_canonically

from helpers import graph, og, random_multigraph, raw_theta


def test_parse_theta_fixture():
    g = graph("theta")
    assert len(g.vertices) == 11
    assert len(g.edges) == 12
    assert len(g.tree_edges) == 10
    assert g.root == 1
    assert g.is_simple()
    assert sorted(e for e in g.edges if e not in g.tree_edges) == [(1, 8), (1, 11)]
    assert sum(g.root in e for e in g.tree_edges) == 1


def test_parse_single_edge():
    g = bf.parse_graph({"vertices": [1, 2], "edges": [[1, 2]],
                        "tree_edges": [[1, 2]], "root": 1})
    assert g.edges == ((1, 2),)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        o = bf.ordered(g)
    assert o.original_id == {1: 1, 2: 2}
    assert o.edges == ((1, 2),)
    assert o.parent == {2: 1}


def test_parse_rejects_non_spanning_tree():
    with pytest.raises(GraphFormatError, match="non-spanning"):
        bf.parse_graph({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]],
                        "tree_edges": [[1, 2]], "root": 1})


def test_parse_rejects_tree_cycle():
    with pytest.raises(GraphFormatError, match="non-spanning"):
        bf.parse_graph({"vertices": [1, 2, 3, 4],
                        "edges": [[1, 2], [2, 3], [3, 1], [3, 4]],
                        "tree_edges": [[1, 2], [2, 3], [3, 1]], "root": 4})


def test_parse_rejects_disconnected():
    with pytest.raises(GraphFormatError, match="components"):
        bf.parse_graph({"vertices": [1, 2, 3, 4],
                        "edges": [[1, 2], [3, 4]],
                        "tree_edges": [[1, 2], [3, 4]], "root": 1})


def test_parse_rejects_bad_rotation():
    data = load_fixture("theta")
    data["rotation"]["5"] = [4, 6]          # missing neighbor 9
    with pytest.raises(GraphFormatError, match="rotation inconsistent"):
        bf.parse_graph(data)


def test_parse_rejects_bad_root():
    data = load_fixture("theta")
    data["root"] = 5                        # tree degree 3
    with pytest.raises(GraphFormatError, match="degree 1"):
        bf.parse_graph(data)


def test_root_inferred_lowest_leaf():
    data = load_fixture("y")
    del data["root"]
    g = bf.parse_graph(data)
    assert g.root == 1


def test_rotation_rejected_on_multigraph():
    with pytest.raises(GraphFormatError, match="multigraph"):
        bf.parse_graph({"vertices": [1, 2], "edges": [[1, 2], [1, 2]],
                        "tree_edges": [[1, 2]], "root": 1,
                        "rotation": {"1": [2, 2], "2": [1, 1]}})


# -- ordering ----------------------------------------------------------------


def test_theta_order_matches_ids():
    o = og("theta")
    assert o.n == 11
    # tree paths 1-2-3-4-5, 5-6-7-8, 5-9-10-11
    assert [o.parent[v] for v in range(2, 12)] == [1, 2, 3, 4, 5, 6, 7, 5, 9, 10]
    assert o.parent_edge(9) == (5, 9)
    assert o.parent_edge(6) == (5, 6)
    assert o.deleted == ((1, 8), (1, 11))


def test_y_order_center_label():
    o = og("y")
    # root is a leg tip, center two steps in
    assert o.parent[2] == 1 and o.parent[3] == 2
    assert o.children[3] == (4, 6)
    assert o.parent[5] == 4 and o.parent[7] == 6


def test_order_scrambled_ids_hand_dfs():
    # same Y shape with shuffled ids: root 20, chain 20-7-13, branches
    # 13-(2-40) and 13-(9-5); rotation at 13 puts the (2,40) leg first
    data = {"vertices": [2, 5, 7, 9, 13, 20, 40],
            "edges": [[20, 7], [7, 13], [13, 2], [2, 40], [13, 9], [9, 5]],
            "tree_edges": [[20, 7], [7, 13], [13, 2], [2, 40], [13, 9], [9, 5]],
            "root": 20,
            "rotation": {"20": [7], "7": [20, 13], "13": [7, 2, 9],
                         "2": [13, 40], "40": [2], "9": [13, 5], "5": [9]}}
    o = bf.ordered(bf.parse_graph(data))
    assert o.original_id == {1: 20, 2: 7, 3: 13, 4: 2, 5: 40, 6: 9, 7: 5}


def test_order_is_deterministic():
    g = graph("theta")
    assert bf.ordered(g).original_id == bf.ordered(g).original_id


def test_order_bijection_and_parent_monotone():
    for name in ("theta", "y", "path", "lasso"):
        o = og(name)
        assert sorted(o.original_id) == list(range(1, o.n + 1))
        for child, parent in o.parent.items():
            assert parent < child


def test_default_rotation_warns():
    data = load_fixture("y")
    del data["rotation"]
    g = bf.parse_graph(data)
    with pytest.warns(UserWarning, match="default") as record:
        bf.ordered(g)
    assert record[0].filename == __file__       # points at the caller


def test_order_rejects_multigraph():
    g = bf.parse_graph({"vertices": [1, 2], "edges": [[1, 2], [1, 2]],
                        "tree_edges": [[1, 2]], "root": 1})
    with pytest.raises(GraphFormatError, match="subdivide first"):
        bf.ordered(g)


@pytest.mark.parametrize("g, children", [
    # the path 1-2-3 rooted at its middle vertex
    (bf.Graph((1, 2, 3), ((1, 2), (2, 3)), frozenset({(1, 2), (2, 3)}), 2), "1, 3"),
    # the star K1,3 rooted at its centre
    (bf.Graph((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4)),
              frozenset({(1, 2), (1, 3), (1, 4)}), 1), "2, 3, 4"),
])
def test_order_rejects_root_that_is_not_a_leaf(g, children):
    # built with the dataclass, not parse_graph; the subdivision check passes
    # them at n = 1, so ordering is what refuses them
    assert bf.check_subdivision(g, 1).ok()
    with pytest.raises(GraphFormatError,
                       match=rf"root {g.root} has tree children \[{children}\]"):
        bf.ordered(g)


# -- subdivision --------------------------------------------------------------


def test_check_theta_sufficient_up_to_5():
    g = graph("theta")
    for n in range(1, 6):
        assert bf.check_subdivision(g, n).ok()
    assert not bf.check_subdivision(g, 6).ok()


def test_check_theta_n12_cycle_violations():
    rep = bf.check_subdivision(graph("theta"), 12)
    assert rep.cycle_violations
    assert {len(c) for c in rep.cycle_violations} == {8}
    assert len(rep.cycle_violations) == 3


def test_check_1100_cycle_at_1100_particles():
    # one cycle one edge short; the search runs deeper than the interpreter's
    # recursion limit on its own stack
    m = 1100
    g = bf.parse_graph({"vertices": list(range(1, m + 1)),
                        "edges": [[v, v % m + 1] for v in range(1, m + 1)],
                        "tree_edges": [[v, v + 1] for v in range(1, m)], "root": 1})
    rep = bf.check_subdivision(g, m)
    assert [len(c) for c in rep.cycle_violations] == [m]
    assert rep.path_violations == [] and rep.short_root_arc is None


def test_check_path_fixture():
    g = graph("path")
    for n in range(1, 6):
        assert bf.check_subdivision(g, n).ok()
    # endpoints are essential: a 6-edge path cannot host 9 particles
    assert not bf.check_subdivision(g, 9).ok()


def test_subdivide_raw_theta_for_five():
    with pytest.warns(UserWarning):
        s = bf.subdivide_for(raw_theta(), 5)
    assert bf.check_subdivision(s, 5).ok()
    assert len(s.vertices) == 11          # 9 interior vertices, minimal
    assert len(s.edges) == 12
    ess = s.essential_vertices()
    assert len(ess) == 2
    assert all(s.degree(v) == 3 for v in ess)


def test_subdivide_cycle_condition_drives_padding():
    # triangle: segments are fine for n=2 but the 3-cycle needs 4 edges
    g = bf.parse_graph({"vertices": [1, 2, 3],
                        "edges": [[1, 2], [2, 3], [1, 3]],
                        "tree_edges": [[1, 2], [2, 3]], "root": 1})
    with pytest.warns(UserWarning):
        s = bf.subdivide_for(g, 3)
    assert bf.check_subdivision(s, 3).ok()
    assert len(s.edges) >= 4


def test_short_root_arc_is_reported_and_padded():
    # the root arc 3-2 reaches the junction 2 after one edge, so three
    # particles stacked at the root have two critical 0-cells
    g = bf.parse_graph({"vertices": [1, 2, 3, 4],
                        "edges": [[1, 2], [2, 3], [2, 4], [1, 3]],
                        "tree_edges": [[1, 2], [2, 3], [2, 4]], "root": 3})
    assert bf.check_subdivision(g, 2).short_root_arc is None
    assert bf.check_subdivision(g, 3).short_root_arc == (3, 2)
    with pytest.warns(UserWarning):
        og3 = bf.ordered(g)
    with pytest.raises(SubdivisionError, match=r"root arc \(3, 2\) with 1 edges"):
        bf.CubeComplex(og3, 3)
    with pytest.raises(SubdivisionError, match=r"root arc \(3, 2\) with 1 edges"):
        bf.stability_report(og3, 2, 3)
    with pytest.warns(UserWarning):
        s = bf.subdivide_for(g, 3)
    assert bf.check_subdivision(s, 3).ok()


def test_subdivision_error_names_first_violations():
    with pytest.raises(SubdivisionError) as info:
        bf.CubeComplex(og("theta"), 12)
    assert str(info.value) == (
        "graph is not sufficiently subdivided for 12 particles: 3 short "
        "segment(s), first 1-5 with 4 edges (needs 11); 3 short cycle(s), first "
        "(1, 2, 3, 4, 5, 6, 7, 8) with 8 edges (needs 13); root arc "
        "(1, 2, 3, 4, 5) with 4 edges (needs 11)")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subdivide_rejects_loop_at_root(n):
    # no subdivision of a loop at the root keeps the root a leaf of the tree
    g = bf.parse_graph({"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3], [1, 1]],
                        "tree_edges": [[1, 2], [2, 3]], "root": 1})
    with pytest.raises(SubdivisionError, match=r"loop \(1, 1\) at the root 1"):
        bf.subdivide_for(g, n)


def test_subdivide_unchanged_when_sufficient():
    g = graph("theta")
    assert bf.subdivide_for(g, 4) is g
    e = bf.parse_graph({"vertices": [1, 2], "edges": [[1, 2]],
                        "tree_edges": [[1, 2]], "root": 1})
    assert bf.subdivide_for(e, 1) is e


def test_subdivide_idempotent_and_check_empty():
    for name in ("theta", "y", "path", "lasso"):
        for n in (2, 3, 4, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = bf.subdivide_for(graph(name), n)
                assert bf.check_subdivision(s, n).ok()
                again = bf.subdivide_for(s, n)
            assert again is s


def test_subdivide_forces_simplicity():
    # parallel pair and loop both satisfy the length conditions at n=1 but
    # the complex needs a simple graph
    with pytest.warns(UserWarning):
        s = bf.subdivide_for(raw_theta(), 1)
    assert s.is_simple()
    assert bf.check_subdivision(s, 1).ok()
    cx = bf.CubeComplex(bf.ordered(s), 1)
    assert len(cx.critical_cells(1)) == 2     # one generator per deleted edge

    loop_graph = bf.parse_graph({"vertices": [1, 2], "edges": [[1, 2], [2, 2]],
                                 "tree_edges": [[1, 2]], "root": 1})
    with pytest.warns(UserWarning):
        s2 = bf.subdivide_for(loop_graph, 1)
    assert s2.is_simple()
    assert bf.check_subdivision(s2, 1).ok()


def test_subdivided_graph_is_canonical():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = bf.subdivide_for(raw_theta(), 3)
        assert s.vertices == tuple(range(1, len(s.vertices) + 1))
        assert relabel_canonically(s).edges == s.edges


def test_subdivide_and_order_random_multigraphs_digest():
    # pins subdivision and ordering, errors included, on 1,500 random
    # multigraphs at n = 1..4
    out = []
    for seed in range(1500):
        rng = random.Random(seed)
        data, n = random_multigraph(rng), rng.randint(1, 4)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                s = bf.subdivide_for(bf.parse_graph(data), n)
                o = bf.ordered(s)
            out.append([s.to_json_dict(), sorted(o.parent.items()),
                        sorted(o.children.items()), sorted(o.original_id.items()),
                        o.edges, o.deleted])
        except ValidationError as exc:
            out.append([type(exc).__name__, str(exc)])
    blob = json.dumps(out, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "608c8117a6afca0ac137d7252936f64398091649cd8dd5fe1cb8eb04e890f023"


def test_check_subdivision_reports_digest():
    # pins every violation of every kind, in report order, on 1,500 random
    # multigraphs at n = 1..6 and on the fixtures at n = 1..12
    cases = [(bf.parse_graph(random_multigraph(random.Random(seed))), range(1, 7))
             for seed in range(1500)]
    cases += [(graph(name), range(1, 13)) for name in ("theta", "y", "path", "lasso")]
    out = []
    for g, ns in cases:
        for n in ns:
            rep = bf.check_subdivision(g, n)
            out.append([rep.path_violations, rep.cycle_violations, rep.short_root_arc])
    blob = json.dumps(out, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "bfdfa50e5c2cd8f364857adfda47d2c423bd7cf292bb86c980a7e0cd3e79793a"


# -- tree conditions -----------------------------------------------------------


def test_theta_tree_conditions_hold():
    rep = check_tree_conditions(og("theta"))
    assert rep.t1 and rep.t2
    assert rep.t1_witnesses == [] and rep.t2_witnesses == []


def test_tree_graph_vacuous():
    rep = check_tree_conditions(og("y"))
    assert rep.t1 and rep.t2


def test_t1_violation_witness():
    # theta with the tree rechosen so a deleted edge ends at the junction
    data = {"vertices": list(range(1, 12)),
            "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 8],
                      [1, 8], [5, 9], [9, 10], [10, 11], [1, 11]],
            "tree_edges": [[1, 2], [2, 3], [3, 4], [5, 6], [6, 7], [7, 8],
                           [1, 8], [5, 9], [9, 10], [10, 11]],
            "root": 4}
    with pytest.warns(UserWarning, match="no rotation given"):
        rep = check_tree_conditions(bf.ordered(bf.parse_graph(data)))
    assert not rep.t1
    assert len(rep.t1_witnesses) == 1
    tau, iota = rep.t1_witnesses[0]
    assert tau < iota


def test_t2_violation_witness():
    # lasso with the cycle closed by an edge separated by the junction
    data = {"vertices": [1, 2, 3, 4, 5],
            "edges": [[1, 2], [2, 3], [3, 4], [3, 5], [4, 5]],
            "tree_edges": [[1, 2], [2, 3], [3, 4], [3, 5]],
            "root": 1,
            "rotation": {"1": [2], "2": [1, 3], "3": [2, 4, 5],
                         "4": [3, 5], "5": [3, 4]}}
    rep = check_tree_conditions(bf.ordered(bf.parse_graph(data)))
    assert not rep.t2
    assert rep.t2_witnesses == [((4, 5), 3)]


def test_lasso_fixture_satisfies_tree_conditions():
    rep = check_tree_conditions(og("lasso"))
    assert rep.t1 and rep.t2


def test_tree_conditions_and_two_connectivity_digest():
    # pins T1/T2 witnesses and 2-connectivity of the ordered subdivisions of
    # the 1,500 random multigraphs of the digest above
    out = []
    for seed in range(1500):
        rng = random.Random(seed)
        data, n = random_multigraph(rng), rng.randint(1, 4)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                o = bf.ordered(bf.subdivide_for(bf.parse_graph(data), n))
        except ValidationError:
            continue
        out.append([check_tree_conditions(o).as_dict(), o.is_two_connected()])
    blob = json.dumps(out, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "a6d736d02bae96aa9e3c58beec3fc9cfd34aebe58841263ac6ca9c62cddc8117"
