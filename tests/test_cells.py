import copy
import math
import pickle
import random
import re
import warnings
from itertools import combinations

import pytest

import braidforge as bf
from braidforge.cells import (COLLAPSIBLE, CRITICAL, REDUNDANT, Cell, MorseClass,
                              _cell, letter_endpoints)
from braidforge.errors import MatchingError, SubdivisionError, ValidationError
from braidforge.morse import rewrite_word

from helpers import (E18, E59, E111, cell, complete_bipartite_33,
                     complete_graph, complex_for, gal_euler_characteristic,
                     graph, inject_flow_cycle, og, raw_theta, theta_cells,
                     unchecked_complex)


def test_theta_critical_one_cells_n2():
    cx = complex_for("theta", 2)
    cells = theta_cells(2)
    assert cx.critical_cells(1) == [cells["a1"], cells["a2"], cells["g"]]
    assert cx.critical_cells(2) == []


def test_theta_critical_cells_n3():
    cx = complex_for("theta", 3)
    c = theta_cells(3)
    assert cx.critical_cells(1) == [c["a1"], c["a2"], c["g"], c["s1"], c["s2"]]
    assert cx.critical_cells(2) == [c["t1"], c["t2"]]


def test_theta_critical_cell_counts():
    for n, (ones, twos) in {2: (3, 0), 3: (5, 2), 4: (8, 6)}.items():
        cx = complex_for("theta", n)
        assert len(cx.critical_cells(1)) == ones
        assert len(cx.critical_cells(2)) == twos


def _matching_counts(og, top):
    """m_d, the number of d-edge matchings of the ordered graph, d = 0..top."""
    counts = [0] * (top + 1)

    def grow(start, used, d):
        counts[d] += 1
        if d < top:
            for i in range(start, len(og.edges)):
                a, b = og.edges[i]
                if a not in used and b not in used:
                    grow(i + 1, used | {a, b}, d + 1)
    grow(0, frozenset(), 0)
    return counts


@pytest.mark.parametrize("g, n, per_dim, chi", [
    (complete_graph(5), 4, [1, 67, 232, 96, 0], 70),
    (complete_graph(4), 5, [1, 24, 54, 19, 0, 0], 12),
    (complete_bipartite_33(), 3, [1, 13, 19, 2], 5),
    (graph("y"), 6, None, -14),
    (graph("theta"), 4, None, -1),
])
def test_critical_cells_give_euler_characteristic(g, n, per_dim, chi):
    # Forman: the alternating count of critical cells is the Euler
    # characteristic of the complex, whose d-cells are a d-edge matching
    # plus n - d of the |V| - 2d remaining vertices
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = bf.CubeComplex(bf.ordered(bf.subdivide_for(g, n)), n)
    counts = [len(cx.critical_cells(d)) for d in range(n + 1)]
    m = _matching_counts(cx.og, n)
    assert sum((-1) ** d * math.comb(cx.og.n - 2 * d, n - d) * m[d]
               for d in range(n + 1)) == chi
    assert sum((-1) ** d * c for d, c in enumerate(counts)) == chi
    assert per_dim in (None, counts)
    assert cx.critical_cells(n + 1) == []
    with pytest.raises(ValueError):
        cx.critical_cells(-1)


GAL_GRAPHS = {"theta": lambda: graph("theta"), "y": lambda: graph("y"),
              "path": lambda: graph("path"), "lasso": lambda: graph("lasso"),
              "raw-theta": raw_theta, "K4": lambda: complete_graph(4),
              "K5": lambda: complete_graph(5), "K33": complete_bipartite_33}


@pytest.mark.parametrize("name, n", [
    *((name, n) for name in ("theta", "y", "path", "lasso") for n in (1, 2, 3, 4)),
    *(("raw-theta", n) for n in (2, 3, 4)),
    *((name, n) for name in ("K4", "K5") for n in (2, 3, 4)),
    *(("K33", n) for n in (2, 3)),
])
def test_critical_cells_give_gal_euler_characteristic(name, n):
    # Gal's closed form depends only on the source graph's degrees and edge
    # count, so it checks the critical cells independently of the ordering,
    # the subdivision and the matching
    g = GAL_GRAPHS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = bf.CubeComplex(bf.ordered(bf.subdivide_for(g, n)), n)
    chi = sum((-1) ** d * len(cx.critical_cells(d)) for d in range(n + 1))
    assert chi == gal_euler_characteristic(g, n)


def test_gal_euler_characteristic_values():
    assert gal_euler_characteristic(graph("theta"), 4) == -1
    assert gal_euler_characteristic(raw_theta(), 4) == -1
    assert gal_euler_characteristic(graph("y"), 4) == -5
    assert gal_euler_characteristic(complete_graph(4), 4) == 6
    assert gal_euler_characteristic(complete_bipartite_33(), 3) == 5
    assert gal_euler_characteristic(complete_graph(5), 4) == 70
    # one particle: the graph itself, |V| - |E|
    assert gal_euler_characteristic(complete_graph(5), 1) == 5 - 10


def test_critical_cells_equal_filtered_cells_in_every_dimension():
    # every cell up to dimension n, each d-edge matching of the whole graph
    # with n - d of the remaining vertices, filtered by is_critical: the
    # generator skips tree edges that no vertex can witness, and loses nothing
    n = 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = bf.CubeComplex(bf.ordered(bf.subdivide_for(complete_graph(4), n)), n)
    edges, verts = cx.og.edges, range(1, cx.og.n + 1)
    every = [[] for _ in range(n + 1)]

    def grow(start, es, used):
        free = [v for v in verts if v not in used]
        every[len(es)].extend(Cell(es, vs) for vs in combinations(free, n - len(es)))
        for i in range(start, len(edges)):
            if len(es) < n and not used & set(edges[i]):
                grow(i + 1, es + (edges[i],), used | set(edges[i]))
    grow(0, (), set())
    for d in range(n + 1):
        expected = sorted((c for c in every[d] if cx.is_critical(c)), key=Cell.sort_key)
        assert cx.critical_cells(d) == expected, d
    assert [len(cx.critical_cells(d)) for d in range(n + 1)] == [1, 15, 24, 4, 0]


def test_single_edge_has_no_higher_cells():
    g = bf.parse_graph({"vertices": [1, 2], "edges": [[1, 2]],
                        "tree_edges": [[1, 2]], "root": 1})
    with pytest.warns(UserWarning, match="no rotation given"):
        cx = bf.CubeComplex(bf.ordered(g), 2)
    assert cx.cells(1) == [] and cx.cells(2) == []
    assert cx.cells(0) == [Cell((), (1, 2))]


def test_enumeration_refuses_insufficient_subdivision():
    with pytest.raises(SubdivisionError):
        bf.CubeComplex(og("theta"), 6)


def test_cells_complete_and_duplicate_free():
    cases = [complex_for("theta", 2)]
    for g, n in ((graph("theta"), 3), (graph("y"), 3), (graph("lasso"), 3), (graph("path"), 2),
                 (complete_graph(4), 3), (complete_bipartite_33(), 2)):
        cases.append(bf.CubeComplex(bf.ordered(bf.subdivide_for(g, n)), n))
    for cx in cases:
        for d in (0, 1, 2):
            cells = cx.cells(d)
            assert cells and len(cells) == len(set(cells)), d
            assert all(cx.is_valid_cell(c) for c in cells), d
            # generated in canonical order, with no sort
            assert cells == sorted(cells, key=Cell.sort_key), d
        # complete: every edge with each n - 1 of the other vertices
        edges, vertices, n = len(cx.og.edges), cx.og.n, cx.n
        assert len(cx.cells(1)) == edges * math.comb(vertices - 2, n - 1)
        for d in range(n + 1):
            crit = cx.critical_cells(d)
            assert crit == sorted(crit, key=Cell.sort_key), d
    # theta at n = 2: 12 edges x 9 free vertices
    assert len(cases[0].cells(1)) == 12 * 9


def test_classify_marks_golden_cells_critical():
    cx = complex_for("theta", 2)
    assert cx.classify(theta_cells(2)["g"]).kind == CRITICAL
    assert cx.classify(Cell((), (1, 2))).kind == CRITICAL


def test_unique_critical_zero_cell_on_fixtures():
    for name in ("theta", "y", "path", "lasso"):
        for n in (1, 2):
            cx = complex_for(name, n)
            crits = [c for c in cx.cells(0) if cx.classify(c).kind == CRITICAL]
            assert crits == [Cell((), tuple(range(1, n + 1)))]


def test_classify_collapsible_example():
    cx = complex_for("theta", 2)
    c = cell([(1, 2)], [3])
    cls = cx.classify(c)
    assert cls.kind == COLLAPSIBLE
    assert cls.partner == Cell((), (2, 3))


def test_matching_image_examples():
    cx = complex_for("theta", 2)
    assert cx.classify(Cell((), (2, 3))) == MorseClass(REDUNDANT, cell([(1, 2)], [3]))
    assert cx.classify(cell([E59], [4])) == MorseClass(REDUNDANT, cell([E59, (3, 4)], []))
    assert cx.classify(Cell((), (1, 2))) == MorseClass(CRITICAL, None)


def test_reversed_edge_is_not_a_cell():
    # edges are (tau, iota) pairs; the reversed pair names no edge, so the
    # cell is refused rather than classified under the wrong orientation
    cx = bf.CubeComplex(og("theta"), 2)
    bad = cell([(2, 1)], [5])
    assert cx.is_valid_cell(cell([(1, 2)], [5]))
    assert not cx.is_valid_cell(bad)
    with pytest.raises(ValidationError, match=re.escape(str(bad))):
        cx.classify(bad)
    with pytest.raises(ValidationError, match=re.escape(str(bad))):
        rewrite_word(cx, ((bad, 1),))
    assert cx.flow_cache == {}


def test_matching_validation_all_fixtures():
    for name in ("theta", "y", "path", "lasso"):
        for n in (1, 2):
            complex_for(name, n).validate_matching()
    for n in (3, 4):
        complex_for("theta", n).validate_matching()


def test_matching_validation_reports_a_flow_cycle(monkeypatch):
    cx = bf.CubeComplex(og("theta"), 3)
    a, b = inject_flow_cycle(monkeypatch, cx)
    with pytest.raises(MatchingError, match="cycle") as err:
        cx.validate_matching()
    assert str(a) in str(err.value) or str(b) in str(err.value)


def test_collapsible_cells_form_spanning_tree():
    # collapsible 1-cells connect all configurations without cycles
    for n in (2, 3):
        cx = complex_for("theta", n)
        zero = cx.cells(0)
        col = [c for c in cx.cells(1) if cx.classify(c).kind == COLLAPSIBLE]
        assert len(col) == len(zero) - 1
        parent = {}
        for c in col:
            up, dn = letter_endpoints((c, +1))
            parent.setdefault(up, []).append(dn)
            parent.setdefault(dn, []).append(up)
        seen = {cx.base_config}
        stack = [cx.base_config]
        while stack:
            u = stack.pop()
            for w in parent.get(u, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == len(zero)


def test_boundary_word_shape_and_closure():
    for n in (3, 4):
        cx = complex_for("theta", n)
        for tau in cx.cells(2):
            word = cx.boundary_word(tau)
            assert len(word) == 4
            start = letter_endpoints(word[0])[0]
            cur = start
            for letter in word:
                s, e = letter_endpoints(letter)
                assert s == cur
                cur = e
            assert cur == start


def test_boundary_word_letters():
    cx = complex_for("theta", 3)
    tau = cell([E111, E59], [6])
    assert cx.boundary_word(tau) == (
        (cell([E111], [5, 6]), +1),
        (cell([E59], [1, 6]), -1),
        (cell([E111], [9, 6]), -1),
        (cell([E59], [11, 6]), +1),
    )


def test_path_to_base_examples():
    cx = complex_for("theta", 2)
    assert cx.path_to_base({1, 2}) == ()

    p = cx.path_to_base({2, 3})
    assert p == ((cell([(2, 3)], [1]), -1), (cell([(1, 2)], [3]), -1))
    assert letter_endpoints(p[0])[0] == frozenset({1, 2})
    assert letter_endpoints(p[-1])[1] == frozenset({2, 3})

    q = cx.path_to_base({9, 10})
    expected = ((cell([(2, 3)], [1]), -1), (cell([(3, 4)], [1]), -1),
                (cell([(4, 5)], [1]), -1), (cell([E59], [1]), -1),
                (cell([(9, 10)], [1]), -1), (cell([(1, 2)], [10]), -1),
                (cell([(2, 3)], [10]), -1), (cell([(3, 4)], [10]), -1),
                (cell([(4, 5)], [10]), -1), (cell([E59], [10]), -1))
    assert q == expected
    assert all(cx.classify(c).kind == COLLAPSIBLE for c, _ in q)


def test_non_unique_critical_zero_cell_is_refused():
    # skipping the subdivision check exposes configurations that are fully
    # blocked without being the base; the complex must refuse loudly
    cx = unchecked_complex(og("y"), 5)
    crits = cx.critical_cells(0)
    assert len(crits) > 1
    with pytest.raises(MatchingError, match="critical 0-cell"):
        cx.assert_unique_critical_zero_cell()
    with pytest.raises(MatchingError, match="not the base"):
        cx.path_to_base({1, 2, 3, 4, 6})
    with pytest.raises(MatchingError):
        bf.morse_presentation(cx)


def test_cell_text_syntax():
    c = cell([E59], [1, 6])
    assert str(c) == "{e(5,9),1,6}"
    assert str(cell([E18, E59], [2, 6])) == "{e(1,8),e(5,9),2,6}"


def test_presorted_cell_behaves_like_a_sorted_one():
    # the private constructor skips the sort; given sorted parts its cell
    # must be indistinguishable from Cell() over the same parts in any order
    rng = random.Random(0)
    cx = complex_for("theta", 3)
    every = [c for d in (0, 1, 2) for c in cx.cells(d)]
    built = []
    for c in every:
        edges, vertices = list(c.edges), list(c.vertices)
        rng.shuffle(edges)
        rng.shuffle(vertices)
        public = Cell(edges, vertices)
        fast = _cell(c.edges, c.vertices)
        assert fast == public and not fast != public
        assert hash(fast) == hash(public)
        assert (str(fast), repr(fast)) == (str(public), repr(public))
        assert fast.sort_key() == public.sort_key() == (c.edges, c.vertices)
        assert (fast.dim, fast.n) == (public.dim, public.n) == (len(edges), 3)
        built.append(public)
    rng.shuffle(built)
    assert sorted(built, key=Cell.sort_key) == sorted(every, key=Cell.sort_key)
    assert len({*built, *every}) == len(every)


def test_cell_is_immutable():
    c = cell([E59], [6, 1])
    assert c.edges == (E59,) and c.vertices == (1, 6)
    with pytest.raises(AttributeError):
        c.edges = ((1, 2),)
    with pytest.raises(AttributeError):
        c.vertices = (2, 3)
    with pytest.raises(AttributeError):
        c.tag = "x"
    with pytest.raises(TypeError):
        c[1] = (2, 3)
    assert isinstance(c.edges, tuple) and isinstance(c.vertices, tuple)
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(twin) is Cell and twin == c and str(twin) == str(c)


def _assert_sorted_cell(c):
    assert type(c) is Cell, c
    assert list(c.edges) == sorted(c.edges), c
    assert list(c.vertices) == sorted(c.vertices), c


@pytest.mark.parametrize("name, n", [("theta", 3), ("theta", 4), ("K4", 3)])
def test_derived_cells_are_sorted(name, n):
    # cells built from sorted ones without a sort must come out sorted too
    if name == "K4":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cx = bf.CubeComplex(bf.ordered(bf.subdivide_for(complete_graph(4), n)), n)
    else:
        cx = complex_for(name, n)
    zero, one, two = cx.cells(0), cx.cells(1), cx.cells(2)
    for c in zero + one + two:
        _assert_sorted_cell(c)
        # a redundant cell's partner replaces its lowest unblocked vertex by
        # the parent edge; a collapsible cell's partner is its preimage
        partner = cx.classify(c).partner
        if partner is not None:
            _assert_sorted_cell(partner)
    for c in two:
        for letter, _ in cx.boundary_word(c):
            _assert_sorted_cell(letter)
    for c in zero:
        for letter, _ in cx.path_to_base(c.vertices):
            _assert_sorted_cell(letter)
    for d in (1, 2):
        for c in cx.critical_cells(d):
            _assert_sorted_cell(c)
