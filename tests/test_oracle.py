import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidforge as bf
from braidforge.oracle import skeleton_presentation
from braidforge.presentation import (HomologyClass, abelianization_rows,
                                     homology_h1, smith_normal_form)

from helpers import (abelianization_matrix, complete_bipartite_33, complete_graph,
                     complex_for, exponent_sums, gal_euler_characteristic, graph,
                     reference_snf_diagonal, unchecked_complex)


def _project(sp, word) -> tuple[int, ...]:
    """A word of 1-cell letters in the oracle presentation `sp`: spanning-tree
    letters dropped, the rest as signed 1-based generator indices."""
    index = {c: i + 1 for i, c in enumerate(sp.generator_cells)}
    return tuple(sign * index[cell] for cell, sign in word if cell not in sp.tree_cells)


def _pipeline(g, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        og = bf.ordered(bf.subdivide_for(g, n))
    return bf.CubeComplex(og, n)


def test_skeleton_counts_theta_n2():
    cx = complex_for("theta", 2)
    sp = skeleton_presentation(cx)
    zero = len(cx.cells(0))
    one = len(cx.cells(1))
    assert len(sp.tree_cells) == zero - 1
    assert len(sp.generator_cells) == one - (zero - 1)
    assert homology_h1(sp.group).free_rank == 3


def test_project_drops_tree_letters():
    cx = complex_for("theta", 2)
    sp = skeleton_presentation(cx)
    some_tree_cell = next(iter(sp.tree_cells))
    assert _project(sp, ((some_tree_cell, 1),)) == ()
    g = sp.generator_cells[0]
    assert _project(sp, ((g, -1),)) == (-1,)


def test_oracle_matches_morse_homology_everywhere():
    cases = [(name, graph(name), n, None)
             for name in ("theta", "y", "path", "lasso") for n in range(1, 5)]
    # larger and non-planar inputs, with their known first homology
    cases += [("theta", graph("theta"), 5, HomologyClass(3, ())),
              ("K5", complete_graph(5), 3, HomologyClass(6, (2,))),
              ("K33", complete_bipartite_33(), 3, HomologyClass(4, (2,))),
              ("K4", complete_graph(4), 4, HomologyClass(4, ()))]
    for name, g, n, expected in cases:
        cx = _pipeline(g, n)
        h_morse = homology_h1(bf.from_morse(bf.morse_presentation(cx)))
        h_oracle = homology_h1(skeleton_presentation(cx).group)
        assert h_morse == h_oracle, (name, n)
        assert expected in (None, h_oracle), (name, n)


def test_oracle_snf_matches_full_scan_reference():
    # the three oracle-crosscheck matrices: the dense matrix holds the
    # relators' exponent sums, the sparse rows its nonzero entries, and both
    # give the full-scan routine's invariant factors
    for g, n in ((graph("theta"), 3), (graph("theta"), 4), (complete_graph(4), 3)):
        group = skeleton_presentation(_pipeline(g, n)).group
        rows = abelianization_rows(group.relators)
        dense = abelianization_matrix(group)
        assert dense == [exponent_sums(r, len(group.generators))
                         for r in group.relators]
        assert rows == [{j: x for j, x in enumerate(full) if x} for full in dense]
        expected = reference_snf_diagonal(dense)
        assert smith_normal_form(dense).diagonal == expected, n
        assert smith_normal_form(rows).diagonal == expected, n


def test_two_particles_on_nonplanar_graphs():
    # two classical benchmarks: the 2-particle spaces of K_5 and K_{3,3} are
    # closed nonorientable surfaces, so the first homology carries one Z_2
    k5 = complete_graph(5)
    assert bf.check_subdivision(k5, 2).ok()     # no subdivision needed
    cx = bf.CubeComplex(bf.ordered(k5), 2)
    assert (len(cx.cells(0)), len(cx.cells(1)), len(cx.cells(2))) == (10, 30, 15)
    cx.validate_matching()
    mp = bf.morse_presentation(cx)
    h = homology_h1(bf.from_morse(mp))
    assert h == HomologyClass(6, (2,))
    assert homology_h1(skeleton_presentation(cx).group) == h

    k33 = complete_bipartite_33()
    cx = bf.CubeComplex(bf.ordered(k33), 2)
    cx.validate_matching()
    h = homology_h1(bf.from_morse(bf.morse_presentation(cx)))
    assert h == HomologyClass(4, (2,))
    assert homology_h1(skeleton_presentation(cx).group) == h


def test_loop_image_class_matches_in_skeleton():
    # a loop and its rewritten critical image are the same element, so after
    # embedding the image back into the 1-skeleton (critical letters joined
    # to the base by collapsible falling paths) the two words must agree in
    # the abelianized skeleton presentation
    from braidforge.cells import inverse_word, letter_endpoints
    from braidforge.morse import rewrite_word
    from braidforge.presentation import in_row_lattice

    from helpers import og as _og, theta_loop_specs

    def embed(cx, word):
        out = ()
        for letter in word:
            start, end = letter_endpoints(letter)
            out = out + cx.path_to_base(start) + (letter,) \
                + inverse_word(cx.path_to_base(end))
        return out

    U = (1, 2, 3, 4, 5, 6, 7, 8)
    D = (5, 6, 7, 8, 1, 11, 10, 9)
    per_n = {
        2: list(theta_loop_specs(2).values()),
        3: [bf.YLoopSpec(4, 6, 9, (1,)), bf.OLoopSpec(U, (9, 10)),
            bf.OLoopSpec(D, (2, 3))],
    }
    for n, specs in per_n.items():
        cx = complex_for("theta", n)
        sp = skeleton_presentation(cx)
        rows = abelianization_rows(sp.group.relators)
        for spec in specs:
            word = bf.loop_word(_og("theta"), spec)
            path = cx.path_to_base(letter_endpoints(word[0])[0])
            based = path + word + inverse_word(path)
            image = rewrite_word(cx, based).output

            vec_loop = exponent_sums(_project(sp, based), len(sp.group.generators))
            vec_image = exponent_sums(_project(sp, embed(cx, image)),
                                      len(sp.group.generators))
            diff = [a - b for a, b in zip(vec_loop, vec_image)]
            assert in_row_lattice(rows, [diff]), spec


def _assert_critical_cells_filter_the_enumeration(cx):
    # the direct generator against the classification of every cell
    for d in (0, 1, 2):
        assert cx.critical_cells(d) == [c for c in cx.cells(d)
                                        if cx.is_critical(c)], (cx.n, d)


def test_critical_cells_equal_filtered_enumeration():
    complexes = [_pipeline(graph(name), n)
                 for name in ("theta", "y", "lasso") for n in (2, 3, 4)]
    complexes += [_pipeline(complete_graph(4), 4), _pipeline(complete_graph(5), 4),
                  _pipeline(complete_graph(4), 5),
                  unchecked_complex(bf.ordered(graph("y")), 5)]
    for cx in complexes:
        _assert_critical_cells_filter_the_enumeration(cx)


SQUARE_CAP = 1500


@st.composite
def random_graphs(draw):
    """Small connected simple graphs: a random tree plus a few extra edges."""
    n = draw(st.integers(min_value=3, max_value=8))
    parents = [draw(st.integers(min_value=1, max_value=i - 1))
               for i in range(2, n + 1)]
    tree = [[p, i] for i, p in zip(range(2, n + 1), parents)]
    candidates = [[a, b] for a in range(1, n + 1) for b in range(a + 1, n + 1)
                  if [a, b] not in tree]
    extra_count = draw(st.integers(min_value=0, max_value=min(2, len(candidates))))
    extra = []
    pool = list(candidates)
    for _ in range(extra_count):
        pick = draw(st.integers(min_value=0, max_value=len(pool) - 1))
        extra.append(pool.pop(pick))
    return {"vertices": list(range(1, n + 1)), "edges": tree + extra,
            "tree_edges": tree}


@given(random_graphs())
@example({"vertices": [1, 2, 3], "edges": [[1, 2], [1, 3], [1, 2]],
          "tree_edges": [[1, 2], [1, 3]]})
@example({"vertices": [1, 2, 3, 4], "edges": [[1, 2], [1, 3], [2, 3], [2, 4], [3, 4]],
          "tree_edges": [[1, 2], [1, 3], [2, 4]], "root": 3})
@example({"vertices": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [2, 4], [1, 3]],
          "tree_edges": [[1, 2], [2, 3], [2, 4]], "root": 3})
@settings(max_examples=25, deadline=None, derandomize=True)
def test_pipeline_random_graphs_two_particles(data):
    # end-to-end dual route on arbitrary small graphs, at two to four
    # particles: the generated critical cells must be the critical ones of
    # the full enumeration, the matching must validate and both
    # presentations, raw and Tietze-minimized, must give the same first
    # homology; the critical cells must give Gal's Euler characteristic of
    # the input graph.  Four-particle complexes above SQUARE_CAP squares are
    # skipped.  In the first two examples subdivision once made a tree edge
    # of a non-tree edge at the root; in the third the root arc reaches a
    # junction after one edge.
    for n in (2, 3, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = bf.subdivide_for(bf.parse_graph(data), n)
            og = bf.ordered(g)
        cx = bf.CubeComplex(og, n)
        if n == 4 and len(cx.cells(2)) > SQUARE_CAP:
            continue
        _assert_critical_cells_filter_the_enumeration(cx)
        chi = sum((-1) ** d * len(cx.critical_cells(d)) for d in range(n + 1))
        assert chi == gal_euler_characteristic(bf.parse_graph(data), n), n
        cx.validate_matching()
        mp = bf.morse_presentation(cx)
        h_morse = homology_h1(bf.from_morse(mp))
        oracle = skeleton_presentation(cx).group
        assert homology_h1(oracle) == h_morse, n
        res, h1 = bf.minimize_morse(og, mp)
        assert homology_h1(res.group) == h_morse, n
        assert homology_h1(bf.tietze_minimize(oracle).group) == h_morse, n
