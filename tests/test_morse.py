import functools
import hashlib
import itertools
import json
import re
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import braidforge as bf
from braidforge.cells import REDUNDANT, Cell, MorseClass, inverse_word
from braidforge.errors import MatchingError, RewriteLimitError, ValidationError
from braidforge.morse import rewrite_word
from braidforge.presentation import (HomologyClass, abelianization_rows,
                                     from_morse, homology_h1, in_row_lattice)
from braidforge import words as W

from helpers import (cell_word_to_indices, complete_bipartite_33, complete_graph,
                     complex_for, cw, edge_crossings, exponent_sums, graph, morse, og,
                     random_multigraph_complexes, reference_match, reference_square_rest,
                     theta_cells, theta_loop_specs, unchecked_complex)


def test_free_cancellation_of_critical_pair():
    cx = complex_for("theta", 2)
    g = theta_cells(2)["g"]
    out = rewrite_word(cx, ((g, +1), (g, -1)))
    assert out.output == ()
    assert [s.move for s in out.steps] == ["free_cancel"]


def test_rewrite_boundary_words_n3():
    cx = complex_for("theta", 3)
    c = theta_cells(3)
    b1 = rewrite_word(cx, cx.boundary_word(c["t1"])).output
    b2 = rewrite_word(cx, cx.boundary_word(c["t2"])).output
    assert b1 == cw(c, ("a1", 1), ("g", -1), ("a1", -1), ("g", -1), ("s1", 1))
    assert b2 == cw(c, ("a2", 1), ("g", -1), ("a2", -1), ("s2", 1))


def test_rewrite_boundary_words_n4():
    cx = complex_for("theta", 4)
    c = theta_cells(4)
    expect = {
        "t1": (("a1", 1), ("g", -1), ("a1", -1), ("g", -1), ("s1", 1)),
        "t2": (("a2", 1), ("g", -1), ("a2", -1), ("s2", 1)),
        "t3": (("a2", 1), ("s1", -1), ("a2", -1), ("s4", 1)),
        "t4": (("a1", 1), ("s1", -1), ("a1", -1), ("g", -1), ("s3", 1)),
        "t5": (("a2", 1), ("s2", -1), ("a2", -1), ("s5", 1)),
        "t6": (("g", 1), ("a1", 1), ("s2", -1), ("a1", -1), ("g", -1),
               ("s2", -1), ("s4", 1)),
    }
    for tau, letters in expect.items():
        out = rewrite_word(cx, cx.boundary_word(c[tau])).output
        assert out == cw(c, *letters), tau


def test_rewrite_idempotent_on_outputs():
    for n in (3, 4):
        cx = complex_for("theta", n)
        for tau in cx.critical_cells(2):
            out = rewrite_word(cx, cx.boundary_word(tau)).output
            again = rewrite_word(cx, out)
            assert again.output == out
            assert again.steps == []


def test_rewrite_output_is_critical_only():
    for n in (2, 3, 4):
        cx = complex_for("theta", n)
        for tau in cx.cells(2):
            out = rewrite_word(cx, cx.boundary_word(tau)).output
            assert all(cx.classify(cell).kind == "critical" for cell, _ in out)


def test_rewrite_preserves_deleted_edge_crossings():
    # net crossing count of a deleted edge is invariant under all three moves
    for n in (2, 3, 4):
        cx = complex_for("theta", n)
        for tau in cx.cells(2):
            word = cx.boundary_word(tau)
            out = rewrite_word(cx, word).output
            for d in cx.og.deleted:
                assert edge_crossings(word, d) == edge_crossings(out, d)


def test_rewrite_step_bound():
    # the bound counts the flow expansions of one call, so it needs a fresh
    # complex: the shared complex_for() one has every image cached already
    cx = bf.CubeComplex(og("theta"), 3)
    word = cx.boundary_word(theta_cells(3)["t1"])
    with pytest.raises(RewriteLimitError):
        rewrite_word(cx, word, max_steps=2)
    # images cached before the error stay correct
    assert rewrite_word(cx, word).output == \
        rewrite_word(complex_for("theta", 3), word).output


def test_rewrite_step_bound_must_not_be_negative():
    cx = bf.CubeComplex(og("theta"), 3)
    word = cx.boundary_word(theta_cells(3)["t1"])
    with pytest.raises(ValidationError, match="max_steps"):
        rewrite_word(cx, word, max_steps=-1)
    assert cx.flow_cache == {}
    # theta n = 2 has no critical 2-cell, so no relator reaches rewrite_word
    cx = bf.CubeComplex(og("theta"), 2)
    with pytest.raises(ValidationError, match="max_steps must be at least 0, got -1"):
        bf.morse_presentation(cx, max_steps=-1)
    assert cx.flow_cache == {}


def test_rewrite_letters_are_one_cells():
    # every letter is encoded, and so checked, before the flow starts
    cx = bf.CubeComplex(og("theta"), 3)
    c = theta_cells(3)
    for bad in (c["t1"], Cell((), (1, 2, 3))):
        with pytest.raises(ValidationError, match=re.escape(f"{bad} is a {bad.dim}-cell")):
            rewrite_word(cx, ((c["g"], 1), (bad, 1)))
    assert cx.flow_cache == {}


def test_rewrite_step_bound_counts_only_redundant_expansions():
    # critical and collapsible letters enter flow_cache on a fresh complex
    # too, but only a redundant cell's expansion counts against the bound
    cx = bf.CubeComplex(og("theta"), 2)
    c = theta_cells(2)
    path = cx.path_to_base({9, 10})
    word = path + ((c["g"], 1), (c["a1"], -1)) + inverse_word(path)
    out = rewrite_word(cx, word, max_steps=0)
    assert out.output == ((c["g"], 1), (c["a1"], -1))
    assert set(cx.flow_cache) == {cx.encode(cell) for cell, _ in word}


def _rescanning_rewrite(cx, word, classify):
    """Reference: apply free cancellation, collapse and the simple homotopy,
    leftmost first in that priority order, until none applies.  `classify`
    is `cx.classify` memoized by the caller: the complex keeps no
    classification memo, and every pass rescans the whole word."""
    current = list(word)
    while True:
        j = next((j for j in range(len(current) - 1)
                  if current[j] == (current[j + 1][0], -current[j + 1][1])), None)
        if j is not None:
            del current[j:j + 2]
            continue
        kinds = [classify(c).kind for c, _ in current]
        if "collapsible" in kinds:
            del current[kinds.index("collapsible")]
        elif "redundant" in kinds:
            j = kinds.index("redundant")
            sigma, sign = current[j]
            boundary = cx.boundary_word(classify(sigma).partner)
            i = next(i for i, (c, _) in enumerate(boundary) if c == sigma)
            rest = boundary[i + 1:] + boundary[:i]
            current[j:j + 1] = rest if boundary[i][1] * sign < 0 else inverse_word(rest)
        else:
            return tuple(current)


def _assert_flow_matches_reference(cx):
    """Every square boundary, and some products of one with the inverse of
    another, rewrite as the rescanning reference rewrites them."""
    classify = functools.cache(cx.classify)
    words = [cx.boundary_word(tau) for tau in cx.cells(2)]
    words += [u + inverse_word(v) for u, v in zip(words, words[7::3])]
    for word in words:
        assert rewrite_word(cx, word).output == _rescanning_rewrite(cx, word, classify)


def test_flow_matches_rescanning_reference():
    cases = [complex_for("theta", 3), complex_for("theta", 4),
             bf.CubeComplex(bf.ordered(bf.subdivide_for(complete_graph(4), 3)), 3)]
    for cx in cases:
        _assert_flow_matches_reference(cx)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_flow_matches_rescanning_reference_on_random_multigraphs(seed):
    for cx in random_multigraph_complexes(seed):
        _assert_flow_matches_reference(cx)


def _assert_one_cell_reads_match_general_ones(cx):
    """`classify` agrees with the reference rule on every cell of dimension
    0-2, and `square_rest` with the reference scan of the matched square of
    every redundant 1-cell."""
    for cell in cx.cells(0) + cx.cells(1) + cx.cells(2):
        kind, partner = reference_match(cx, *cx._parts(cell))
        assert cx.classify(cell) == MorseClass(
            kind, None if partner is None else cx.cell_of(partner))
        if cell.dim == 1 and kind == REDUNDANT:
            code = cx.encode(cell)
            assert cx.square_rest(code, partner) == reference_square_rest(cx, code, partner)


def test_one_cell_reads_match_general_ones():
    cases = [complex_for("theta", n) for n in (2, 3, 4)]
    cases += [bf.CubeComplex(bf.ordered(bf.subdivide_for(g, 3)), 3)
              for g in (complete_graph(4), complete_bipartite_33())]
    for cx in cases:
        _assert_one_cell_reads_match_general_ones(cx)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_one_cell_reads_match_general_ones_on_random_multigraphs(seed):
    for cx in random_multigraph_complexes(seed):
        _assert_one_cell_reads_match_general_ones(cx)


def test_one_cell_rule_matches_general_rule_on_a_broken_matching():
    # every way of pointing one vertex's blocking bit at another vertex: on
    # every cell of dimension 0-2 the rule must agree with the reference, or
    # fail with the same exception.  `renamed` counts the failures whose
    # message differs: 2-cells with a facet through a tree edge that is a
    # broken 1-cell, which the rule reads first and names where the
    # reference names the 2-cell.  `neither` counts the 1-cells that are
    # neither critical, collapsible nor redundant.
    def outcome(match, *args):
        try:
            return match(*args)
        except (MatchingError, KeyError) as exc:   # KeyError: an unblocked root
            return type(exc), str(exc)

    neither = renamed = 0
    for vertex, blocker in itertools.product(complex_for("theta", 2)._block, repeat=2):
        cx = unchecked_complex(og("theta"), 2)
        cx._block = {**cx._block, vertex: blocker}
        for cell in cx.cells(0) + cx.cells(1) + cx.cells(2):
            parts = cx._parts(cell)
            got = outcome(cx._match, *parts)
            want = outcome(reference_match, cx, *parts)
            if got != want:
                assert got[0] == want[0] == MatchingError and cell.dim == 2
                assert got[1].startswith("1-cell ") and want[1].startswith("2-cell ")
                renamed += 1
            neither += got == (MatchingError, f"1-cell {cell} is neither critical, "
                               "collapsible nor redundant; matching is broken")
    assert (neither, renamed) == (82, 35)


def test_flow_line_deeper_than_the_recursion_limit(monkeypatch):
    # theta subdivided for 1,200 particles, at two: this cell's flow line
    # opens 2,393 squares inside one another, far more frames than the
    # default recursion limit, so only a flow on an explicit stack rewrites
    # it.  A frame opens with a `square_rest` read and closes with a
    # `free_reduce`.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = bf.CubeComplex(bf.ordered(bf.subdivide_for(graph("theta"), 1200)), 2)
    depth = [0, 0]
    square_rest, free_reduce = cx.square_rest, W.free_reduce

    def opened(code, tau):
        depth[0] += 1
        depth[1] = max(depth)
        return square_rest(code, tau)

    def closed(word):
        depth[0] -= 1
        return free_reduce(word)
    cx.square_rest = opened
    monkeypatch.setattr(W, "free_reduce", closed)
    out = rewrite_word(cx, ((Cell(((3593, 3594),), (3592,)), 1),))
    assert out.output == ()
    assert depth == [0, 2393] and 2393 > sys.getrecursionlimit()


class _CyclicComplex:
    """Two redundant 1-cells a and b, coded 1 and 2, whose matched squares
    each lead back to the other cell: across its square a equals b^-1, and
    b equals a."""
    a, b = Cell(((1, 2),), (5,)), Cell(((1, 2),), (6,))
    square_of = {1: Cell(((1, 2), (5, 6)), ()), 2: Cell(((1, 2), (7, 8)), ())}
    generators, generator_index = [], {}

    def __init__(self):
        self.flow_cache = {}

    def encode(self, cell):
        return {self.a: 1, self.b: 2}[cell]

    def decode(self, code):
        return {1: self.a, 2: self.b}[code]

    def cell_of(self, tau):
        return tau

    def match_letter(self, code):
        return "redundant", self.square_of[code]

    def square_rest(self, code, tau):
        return (~2,) if code == 1 else (1,)


def test_cyclic_matching_raises_naming_the_cell():
    cx = _CyclicComplex()
    with pytest.raises(MatchingError, match=re.escape(f"returns to {cx.a}")):
        rewrite_word(cx, ((cx.a, 1),))
    assert cx.flow_cache == {}


@pytest.mark.parametrize("name, graph, n, digest", [
    ("K33", complete_bipartite_33(), 3,
     "1159e516398255375cf5b21036d32d7366faf9feeefdd653750d5b8eeaa0cd9b"),
    ("K4", complete_graph(4), 4,
     "115c49b33ef321b2a3eb0b25f8c664a89bbf460430e10f3a41b32f5b55ccdb9e"),
])
def test_morse_presentation_digest(name, graph, n, digest):
    # pins generators and relators letter for letter
    mp = bf.morse_presentation(
        bf.CubeComplex(bf.ordered(bf.subdivide_for(graph, n)), n))
    blob = json.dumps([[str(c) for c in mp.generators],
                       [list(w) for w, _ in mp.relators]], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _k5_presentation_digest(n):
    """K5 at n particles: the presentation, the sha256 of its generators and
    its relators with their source 2-cells, letter for letter."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = bf.subdivide_for(complete_graph(5), n)
    mp = bf.morse_presentation(bf.CubeComplex(bf.ordered(g), n))
    blob = json.dumps([[str(c) for c in mp.generators],
                       [[list(w), str(tau)] for w, tau in mp.relators]],
                      separators=(",", ":"))
    return mp, hashlib.sha256(blob.encode()).hexdigest()


def test_morse_presentation_k5_five_particles():
    # the largest rung: pins generators, relators with their source 2-cells,
    # and the first homology
    mp, digest = _k5_presentation_digest(5)
    assert (len(mp.generators), len(mp.relators)) == (126, 641)
    assert homology_h1(from_morse(mp)) == HomologyClass(6, (2,))
    assert digest == "1a98258da5b1fc0bd8331896380fbcba65c496de40c8705b7b4f5ba552508cd3"


def test_morse_presentation_k5_six_particles():
    # one rung up, pinned before the flow moved to integer codes
    mp, digest = _k5_presentation_digest(6)
    assert (len(mp.generators), len(mp.relators)) == (209, 1482)
    assert digest == "9e4a8c6824f331b2d4e7c2331e2903dec5a8b492d60d2827b7f70a5b8232ca53"


def test_rewrite_concatenation_homomorphism():
    # free case: rewriting distributes over concatenation after reduction
    cx = complex_for("theta", 2)
    specs = theta_loop_specs(2)
    w1 = bf.loop_word(og("theta"), specs["gamma"])
    p1 = cx.path_to_base({4, 9})
    based1 = p1 + w1 + inverse_word(p1)
    w2 = bf.loop_word(og("theta"), specs["aD"])
    p2 = cx.path_to_base({5, 2})
    based2 = p2 + w2 + inverse_word(p2)
    joint = rewrite_word(cx, based1 + based2).output
    split = rewrite_word(cx, rewrite_word(cx, based1).output
                         + rewrite_word(cx, based2).output).output
    assert joint == split

    # relator case: abelianized difference lies in the relator lattice
    cx4 = complex_for("theta", 4)
    mp4 = morse("theta", 4)
    fp = from_morse(mp4)
    rows = abelianization_rows(fp.relators)
    taus = cx4.critical_cells(2)
    u = cx4.boundary_word(taus[0])
    v = cx4.boundary_word(taus[3])
    joint = rewrite_word(cx4, u + v).output
    split = W.concat(
        cell_word_to_indices(rewrite_word(cx4, u).output, mp4.generators),
        cell_word_to_indices(rewrite_word(cx4, v).output, mp4.generators))
    joint_idx = cell_word_to_indices(joint, mp4.generators)
    diff = W.concat(joint_idx, W.inverse(split))
    assert in_row_lattice(rows, [exponent_sums(diff, len(fp.generators))])


def test_opposite_traversal_gives_inverse_relator_up_to_rotation():
    # reading the square boundary with the two edge roles swapped traverses
    # it backwards; the rewritten relator may only change by cyclic
    # rotation and inversion
    for n in (3, 4):
        cx = complex_for("theta", n)
        mp = morse("theta", n)
        for tau in cx.critical_cells(2):
            b = cx.boundary_word(tau)
            w1 = cell_word_to_indices(rewrite_word(cx, b).output, mp.generators)
            w2 = cell_word_to_indices(rewrite_word(cx, inverse_word(b)).output,
                                      mp.generators)
            assert W.cyclically_equal(w1, w2, up_to_inversion=True)


def test_morse_presentation_theta():
    mp2 = morse("theta", 2)
    assert len(mp2.generators) == 3 and mp2.relators == []
    mp3 = morse("theta", 3)
    c = theta_cells(3)
    assert mp3.generators == [c["a1"], c["a2"], c["g"], c["s1"], c["s2"]]
    assert [src for _, src in mp3.relators] == [c["t1"], c["t2"]]


def test_morse_presentation_path_trivial():
    for n in (2, 3, 4):
        mp = morse("path", n)
        assert mp.generators == [] and mp.relators == []


def test_presentation_text():
    assert str(morse("theta", 2)) == \
        "⟨{e(1,8),2}, {e(1,11),2}, {e(5,9),6} | ⟩"


def test_rewrite_trace_records_moves():
    cx = complex_for("theta", 3)
    tau = theta_cells(3)["t2"]
    trace = rewrite_word(cx, cx.boundary_word(tau))
    assert trace.input == cx.boundary_word(tau)
    assert trace.output == rewrite_word(cx, cx.boundary_word(tau)).output
    kinds = {s.move for s in trace.steps}
    assert kinds <= {"free_cancel", "collapse", "simple_homotopy"}
    assert "simple_homotopy" in kinds
    for step in trace.steps:
        if step.move == "simple_homotopy":
            sigma, tau2 = step.cells
            assert cx.classify(sigma) == MorseClass(REDUNDANT, tau2)
