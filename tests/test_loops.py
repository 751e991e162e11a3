import dataclasses
import hashlib
import json
import warnings

import pytest

import braidforge as bf
from braidforge import words as W
from braidforge.cells import inverse_word, letter_endpoints
from braidforge.errors import PhysicalSolveError, ValidationError
from braidforge.loops import (_suggest_loops, _validate_consequences, check_closed,
                              loop_image, loop_word)

from helpers import (E18, E59, E111, cell, complete_graph, complex_for, cw,
                     edge_crossings, graph, minimized, morse, og, theta_cells,
                     theta_loop_specs)


def test_y_loop_word_exact():
    word = bf.y_loop_word(og("theta"), bf.YLoopSpec(4, 6, 9))
    assert word == (
        (cell([E59], [4]), +1), (cell([(5, 6)], [4]), -1),
        (cell([(4, 5)], [6]), -1), (cell([E59], [6]), -1),
        (cell([(5, 6)], [9]), +1), (cell([(4, 5)], [9]), +1),
    )


def test_y_loop_word_is_closed_length_six():
    for spec in (bf.YLoopSpec(4, 6, 9), bf.YLoopSpec(4, 6, 9, (1, 2)),
                 bf.YLoopSpec(4, 6, 9, (10, 11))):
        word = bf.y_loop_word(og("theta"), spec)
        assert len(word) == 6
        check_closed(word)


def test_y_loop_validation():
    with pytest.raises(ValidationError, match="siblings"):
        bf.y_loop_word(og("theta"), bf.YLoopSpec(4, 6, 10))
    with pytest.raises(ValidationError, match="collide"):
        bf.y_loop_word(og("theta"), bf.YLoopSpec(4, 6, 9, (6,)))
    with pytest.raises(ValidationError, match="parent"):
        bf.y_loop_word(og("y"), bf.YLoopSpec(1, 4, 6))
    # valid junction spec on the y fixture for contrast
    check_closed(bf.y_loop_word(og("y"), bf.YLoopSpec(2, 4, 6)))


def test_o_loop_word_exact():
    word = bf.o_loop_word(og("theta"),
                          bf.OLoopSpec((5, 6, 7, 8, 1, 11, 10, 9), (2,)))
    assert word == (
        (cell([(5, 6)], [2]), -1), (cell([(6, 7)], [2]), -1),
        (cell([(7, 8)], [2]), -1), (cell([E18], [2]), +1),
        (cell([E111], [2]), -1), (cell([(10, 11)], [2]), +1),
        (cell([(9, 10)], [2]), +1), (cell([E59], [2]), +1),
    )
    check_closed(word)


def test_o_loop_validation():
    o = og("theta")
    with pytest.raises(ValidationError, match="at least 3"):
        bf.o_loop_word(o, bf.OLoopSpec((1, 2)))
    with pytest.raises(ValidationError, match="simple"):
        bf.o_loop_word(o, bf.OLoopSpec((1, 2, 3, 2, 8)))
    with pytest.raises(ValidationError, match="not an edge"):
        bf.o_loop_word(o, bf.OLoopSpec((1, 2, 3, 7)))
    with pytest.raises(ValidationError, match="collide"):
        bf.o_loop_word(o, bf.OLoopSpec((5, 6, 7, 8, 1, 11, 10, 9), (6,)))


U8 = (1, 2, 3, 4, 5, 6, 7, 8)


@pytest.mark.parametrize("spec, message", [
    (bf.YLoopSpec(4, 6, 9, (6,)), "Y(4,6,9;6): spectators [6] collide with the junction"),
    (bf.YLoopSpec(4, 6, 9, (1, 1)), "Y(4,6,9;1,1): duplicate spectators"),
    (bf.OLoopSpec(U8, (3,)), "O(1-2-3-4-5-6-7-8;3): spectators [3] collide with the cycle"),
    (bf.OLoopSpec(U8, (9, 9)), "O(1-2-3-4-5-6-7-8;9,9): duplicate spectators"),
], ids=["Y-collide", "Y-duplicate", "O-collide", "O-duplicate"])
def test_spectator_messages(spec, message):
    # both loop families state the spectator rule in the same words
    with pytest.raises(ValidationError) as exc:
        loop_word(og("theta"), spec)
    assert str(exc.value) == message


def test_check_closed_rejects_broken_chain():
    c = theta_cells(2)
    with pytest.raises(ValidationError):
        check_closed(((c["a1"], 1), (c["g"], 1)))


def test_loop_images_n2():
    cx = complex_for("theta", 2)
    o = og("theta")
    specs = theta_loop_specs(2)
    c = theta_cells(2)
    assert loop_image(cx, loop_word(o, specs["gamma"])) == cw(c, ("g", -1))
    assert loop_image(cx, loop_word(o, specs["aD"])) == \
        cw(c, ("a1", 1), ("a2", -1))
    assert loop_image(cx, loop_word(o, specs["aU"])) == \
        cw(c, ("g", 1), ("a1", 1))


def test_loop_images_n4():
    cx = complex_for("theta", 4)
    o = og("theta")
    specs = theta_loop_specs(4)
    c = theta_cells(4)
    assert loop_image(cx, loop_word(o, specs["gamma"])) == cw(c, ("g", -1))
    assert loop_image(cx, loop_word(o, specs["gamma_p"])) == cw(c, ("s2", -1))
    assert loop_image(cx, loop_word(o, specs["gamma_pp"])) == cw(c, ("s5", -1))
    assert loop_image(cx, loop_word(o, specs["aD"])) == \
        cw(c, ("a1", 1), ("a2", -1))
    assert loop_image(cx, loop_word(o, specs["aU"])) == \
        cw(c, ("s5", 1), ("s2", 1), ("g", 1), ("a1", 1))


def test_loop_image_preserves_deleted_edge_crossings():
    for n in (2, 4):
        cx = complex_for("theta", n)
        o = og("theta")
        for spec in theta_loop_specs(n).values():
            word = loop_word(o, spec)
            path = cx.path_to_base(letter_endpoints(word[0])[0])
            based = path + word + inverse_word(path)
            image = loop_image(cx, word)
            for d in o.deleted:
                assert edge_crossings(based, d) == edge_crossings(image, d)


def test_loop_image_independent_of_basing_path():
    # alternative basing through the collapsible spanning tree gives the
    # same image word
    import collections
    cx = complex_for("theta", 2)
    o = og("theta")

    adj = collections.defaultdict(list)
    for c in cx.cells(1):
        if cx.classify(c).kind != "collapsible":
            continue
        up, dn = letter_endpoints((c, +1))
        adj[up].append((dn, (c, +1)))
        adj[dn].append((up, (c, -1)))

    def bfs_path(target):
        start = cx.base_config
        prev = {start: None}
        queue = collections.deque([start])
        while queue:
            u = queue.popleft()
            for w, letter in sorted(adj[u], key=lambda t: (t[1][0].sort_key(), t[1][1])):
                if w not in prev:
                    prev[w] = (u, letter)
                    queue.append(w)
        out = []
        cur = frozenset(target)
        while prev[cur] is not None:
            u, letter = prev[cur]
            out.append(letter)
            cur = u
        return tuple(reversed(out))

    for spec in theta_loop_specs(2).values():
        word = loop_word(o, spec)
        start = letter_endpoints(word[0])[0]
        alt = bfs_path(start)
        based_alt = alt + word + inverse_word(alt)
        assert bf.rewrite_word(cx, based_alt).output == loop_image(cx, word)


def test_gamma_r_image():
    cx = complex_for("theta", 2)
    c = theta_cells(2)
    mk = lambda e, v: cell([e], [v])
    gamma_r = ((mk(E111, 2), +1), (mk(E18, 2), -1), (mk((1, 2), 8), +1),
               (mk(E111, 8), -1), (mk(E18, 11), +1), (mk((1, 2), 11), -1))
    assert loop_image(cx, gamma_r) == \
        cw(c, ("a2", 1), ("a1", -1), ("a2", -1), ("g", 1), ("a1", 1))


# -- the solver ---------------------------------------------------------------


def _physical(n):
    cx = complex_for("theta", n)
    return bf.solve_physical_presentation(
        cx, minimized("theta", n), list(theta_loop_specs(n).values()),
        morse("theta", n))


def test_solve_physical_n2_dictionary():
    pp = _physical(2)
    assert pp.group.generators == ("Y(4,6,9;)", "O(5-6-7-8-1-11-10-9;2)", "O(1-2-3-4-5-6-7-8;9)")
    gam, aD, aU = 1, 2, 3
    c = theta_cells(2)
    d = dict(pp.dictionary)
    assert d[str(c["g"])] == (-gam,)
    assert d[str(c["a1"])] == (gam, aU)
    assert d[str(c["a2"])] == (-aD, gam, aU)
    assert pp.relators == []
    assert pp.group.relators == ()


def test_solve_physical_n4_dictionary_and_relators():
    pp = _physical(4)
    gam, gam_p, gam_pp, aU, aD = 1, 2, 3, 4, 5
    c = theta_cells(4)
    d = dict(pp.dictionary)
    assert d[str(c["g"])] == (-gam,)
    assert d[str(c["s2"])] == (-gam_p,)
    assert d[str(c["s5"])] == (-gam_pp,)
    assert d[str(c["a1"])] == (gam, gam_p, gam_pp, aU)
    assert d[str(c["a2"])] == (-aD, gam, gam_p, gam_pp, aU)

    origins = [origin for origin, _ in pp.relators]
    assert origins[0].startswith("minimal:")
    assert origins[1] == f"dependency:{c['s2']}"
    assert origins[2] == f"dependency:{c['s5']}"

    h = (-aD, gam, gam_p, gam_pp, aU)          # word for a2
    r2 = W.concat(h, (gam,), W.inverse(h), (-gam_p,))
    r3 = W.concat(h, (gam_p,), W.inverse(h), (-gam_pp,))
    assert pp.relators[1][1] == r2
    assert pp.relators[2][1] == r3

    # minimal relator: substitute the dictionary into the single relator
    mini = minimized("theta", 4)
    named = tuple((mini.group.generators[abs(x) - 1], 1 if x > 0 else -1)
                  for x in mini.group.relators[0])
    expect = ()
    for nm, s in named:
        w = d[nm]
        expect = W.concat(expect, w if s > 0 else W.inverse(w))
    assert pp.relators[0][1] == expect


def test_solve_physical_refuses_y_loop_at_one_particle():
    # a Y loop exchanges two particles; at n = 1 it is refused by name, not
    # asked for a negative number of spectators
    with pytest.raises(ValidationError) as exc:
        bf.solve_physical_presentation(complex_for("theta", 1), minimized("theta", 1),
                                       [bf.YLoopSpec(4, 6, 9)], morse("theta", 1))
    assert str(exc.value) == "Y(4,6,9;): a Y loop exchanges two particles; there is 1"


def test_solve_physical_unsolvable_reports_and_suggests():
    cx = complex_for("theta", 4)
    specs = [theta_loop_specs(4)["gamma"], theta_loop_specs(4)["aU"]]
    with pytest.raises(PhysicalSolveError) as exc:
        bf.solve_physical_presentation(cx, minimized("theta", 4), specs,
                                       morse("theta", 4))
    c = theta_cells(4)
    unsolved = set(exc.value.unsolved)
    assert {str(c["s2"]), str(c["s5"]), str(c["a2"])} <= unsolved
    suggested = {s.name for s in exc.value.suggestions}
    assert "Y(4,6,9;1,10)" in suggested     # hits sigma_2
    assert "Y(4,6,9;10,11)" in suggested    # hits sigma_5


def test_solve_physical_unused_loop_gets_defining_relator():
    cx = complex_for("theta", 2)
    specs = list(theta_loop_specs(2).values())
    # same cycle as aU but parked at 10: everything it hits is already solved
    extra = bf.OLoopSpec((1, 2, 3, 4, 5, 6, 7, 8), (10,))
    pp = bf.solve_physical_presentation(cx, minimized("theta", 2),
                                        specs + [extra], morse("theta", 2))
    defining = [(origin, w) for origin, w in pp.relators
                if origin.startswith("defining:")]
    assert len(defining) == 1
    origin, word = defining[0]
    assert origin == f"defining:{extra.name}"
    assert word[0] == -4
    # the tail is the dictionary translation of the extra loop's image
    d = dict(pp.dictionary)
    expect = ()
    for nm, s in pp.loops[3].image:
        expect = W.concat(expect, d[nm] if s > 0 else W.inverse(d[nm]))
    assert word == W.concat((-4,), expect)


def test_physical_on_tree_fixture():
    # the y graph at 2 and 3 particles is generated by junction exchanges
    # alone, with different spectator placements at n=3
    o = og("y")
    cx2 = complex_for("y", 2)
    pp2 = bf.solve_physical_presentation(
        cx2, minimized("y", 2), [bf.YLoopSpec(2, 4, 6)], morse("y", 2))
    assert pp2.dictionary == [("{e(3,6),4}", (-1,))]
    assert pp2.relators == []

    cx3 = complex_for("y", 3)
    img5 = bf.loop_image(cx3, bf.y_loop_word(o, bf.YLoopSpec(2, 4, 6, (5,))))
    assert [(str(c), s) for c, s in img5] == \
        [("{e(3,6),1,4}", 1), ("{e(3,6),4,5}", -1)]
    pp3 = bf.solve_physical_presentation(
        cx3, minimized("y", 3),
        [bf.YLoopSpec(2, 4, 6, (1,)), bf.YLoopSpec(2, 4, 6, (5,)),
         bf.YLoopSpec(2, 4, 6, (7,))], morse("y", 3))
    d = dict(pp3.dictionary)
    assert d["{e(3,6),1,4}"] == (-1,)
    assert d["{e(3,6),4,5}"] == (-2, -1)
    assert d["{e(3,6),4,7}"] == (-3,)
    assert pp3.relators == []


def test_physical_lasso_stalls_without_suggestions():
    # the second lasso generator parks a particle on the cycle itself, which
    # neither loop family can express; the diagnostic must name it and has
    # no junction exchange to propose
    cx = complex_for("lasso", 2)
    specs = [bf.OLoopSpec((3, 4, 5), (1,)), bf.OLoopSpec((3, 4, 5), (2,))]
    with pytest.raises(PhysicalSolveError) as exc:
        bf.solve_physical_presentation(cx, minimized("lasso", 2), specs,
                                       morse("lasso", 2))
    assert exc.value.unsolved == ("{e(3,5),4}",)
    assert exc.value.suggestions == ()
    # both cycle loops land on the root-parked generator
    o = og("lasso")
    img = bf.loop_image(cx, bf.o_loop_word(o, specs[0]))
    assert [(str(c), s) for c, s in img] == [("{e(3,5),1}", 1)]


def test_physical_presentation_preserves_homology():
    from braidforge.presentation import homology_h1
    for n in (2, 4):
        pp = _physical(n)
        assert homology_h1(pp.group) == homology_h1(minimized("theta", n).group)


def test_physical_dictionary_consistent_with_images():
    # substituting loop images back into the dictionary words recovers each
    # critical cell in the free case
    pp = _physical(2)
    images = {i + 1: pp.loops[i].image for i in range(len(pp.loops))}
    mp = morse("theta", 2)
    gen_index = {str(c): i + 1 for i, c in enumerate(mp.generators)}
    for nm, wd in pp.dictionary:
        expanded = ()
        for x in wd:
            img = tuple(s * gen_index[cn] for cn, s in images[abs(x)])
            expanded = W.concat(expanded, img if x > 0 else W.inverse(img))
        assert expanded == (gen_index[nm],)


def _fundamental_cycle(o, edge):
    """The tree path from tau to iota of a deleted edge, closed by the edge."""
    tau, iota = edge
    up = [tau]
    while up[-1] != o.root:
        up.append(o.parent[up[-1]])
    down = [iota]
    while down[-1] not in up:
        down.append(o.parent[down[-1]])
    return tuple(up[:up.index(down[-1])] + down[::-1])


def _auto_loop_system(cx, mp):
    """The Y loops suggested for every Morse generator, plus one O loop per
    deleted edge around its fundamental cycle with the n - 1 lowest
    off-cycle vertices parked (skipped where too few are off the cycle)."""
    o = cx.og
    specs = [s for c in mp.generators for s in _suggest_loops(cx, c)]
    for e in o.deleted:
        cycle = _fundamental_cycle(o, e)
        park = [v for v in range(1, o.n + 1) if v not in cycle][:cx.n - 1]
        if len(park) == cx.n - 1:
            specs.append(bf.OLoopSpec(cycle, tuple(park)))
    return list(dict.fromkeys(specs))


@pytest.mark.parametrize("name, n, digest", [
    ("theta", 3, "2bb2c53bba6c8c80e6f6119a7552324ea2fbd6ebb371dd6d28348ba2d6cecbb3"),
    ("theta", 4, "5ba1d7eaf196c84c86e48d2d83490a4ffe17615db869e3a3cecb2f1ab73d1d7c"),
    ("K4", 3, "f0aafdb373d11d07bc5f3a6905a31416e454b8cc3fcce78e2ae88d3141497085"),
    # the only case whose dependency relators expand through more than one
    # level of eliminations
    ("K4", 4, "621b89160402343495ff1dae34041b051846cf1c81f358b9941245043e8e6428"),
    # the cases below stall and pin the solver's error instead
    ("lasso", 2, "29284109c79e1072114625434e52fcbeeedb1c58209f4b19456f0f0308f2ebfe"),
    ("lasso", 3, "8152b914fa78c7546cb8d5d408d77afe53fa39cb7c06173cb997fa33753e63ec"),
    ("lasso", 4, "3988f7d947e27ffc9713a5e5b022a062e2f79f68b443d8110eab7b6d23bf1ed2"),
    ("K4", 2, "1f8b1e77885b0eb03fdd426af20d69b728032ef7bb4980763be52326a2dfda95"),
])
def test_physical_presentation_digest(name, n, digest):
    # pins loops with their images, the dictionary, the relators and the
    # generators letter for letter on auto-generated loop systems
    g = complete_graph(4) if name == "K4" else graph(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        o = bf.ordered(bf.subdivide_for(g, n))
    cx = bf.CubeComplex(o, n)
    mp = bf.morse_presentation(cx)
    mini, _ = bf.minimize_morse(o, mp)
    try:
        pp = bf.solve_physical_presentation(cx, mini, _auto_loop_system(cx, mp), mp)
        out = [[[lg.name, [list(x) for x in lg.image]] for lg in pp.loops],
               [[nm, list(w)] for nm, w in pp.dictionary],
               [[origin, list(w)] for origin, w in pp.relators],
               list(pp.group.generators)]
    except PhysicalSolveError as exc:
        out = [type(exc).__name__, str(exc)]
    blob = json.dumps(out, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _validation_error(mp, pp, at, extra):
    """The message with which validation refuses `pp` once the relators
    `extra` are inserted before its relator `at`; None when it accepts."""
    relators = pp.relators[:at] + extra + pp.relators[at:]
    try:
        _validate_consequences(mp, dataclasses.replace(pp, relators=relators))
    except PhysicalSolveError as exc:
        return str(exc)
    return None


def test_validation_names_the_first_bogus_relator():
    # free Morse presentation (theta n = 2): a relator must expand to the
    # empty word, so a commutator of two cycle loops is refused
    mp, pp = morse("theta", 2), _physical(2)
    assert _validation_error(mp, pp, 0, [("bogus:cancels", (1, 2, -2, -1))]) is None
    assert _validation_error(mp, pp, 0, [
        ("bogus:cancels", (1, 2, -2, -1)),
        ("bogus:commutator", (2, 3, -2, -3)),
        ("bogus:square", (1, 1))]) == (
        "physical relator bogus:commutator is not freely trivial over a free "
        "Morse presentation")

    # relators in the Morse presentation: only the abelianized class counts,
    # so commutators pass, and so does gamma = gamma' on theta n = 4, which
    # holds up to conjugation
    accepted = [("bogus:commutator", (4, 5, -4, -5)), ("bogus:gamma=gamma'", (1, -2))]
    refused = [("bogus:aU", (4,)), ("bogus:square", (5, 5))]
    mp, pp = morse("theta", 4), _physical(4)
    assert _validation_error(mp, pp, 1, accepted) is None
    assert _validation_error(mp, pp, 1, accepted + refused) == (
        "physical relator bogus:aU is not an abelianized consequence of the "
        "Morse relators")

    # K4 n = 3 on the automatic loop system: six loops, five relators
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        o = bf.ordered(bf.subdivide_for(complete_graph(4), 3))
    cx = bf.CubeComplex(o, 3)
    mp = bf.morse_presentation(cx)
    pp = bf.solve_physical_presentation(cx, bf.minimize_morse(o, mp)[0],
                                        _auto_loop_system(cx, mp), mp)
    assert (len(pp.loops), len(pp.relators)) == (6, 5)
    commutator = [("bogus:commutator", (1, 4, -1, -4))]
    assert _validation_error(mp, pp, 3, commutator) is None
    assert _validation_error(mp, pp, 3, commutator + [
        ("bogus:square", (6, 6)), ("bogus:loop", (3,))]) == (
        "physical relator bogus:square is not an abelianized consequence of "
        "the Morse relators")
