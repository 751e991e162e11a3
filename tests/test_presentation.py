import hashlib
import json
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidforge as bf
from braidforge import words as W
from braidforge.presentation import (Elimination, FPGroup, HomologyClass,
                                     abelianization_rows, homology_h1,
                                     in_row_lattice, smith_normal_form,
                                     tietze_minimize)

from helpers import (abelianization_matrix, complete_graph, graph, minimized,
                     morse, reference_in_row_lattice, reference_snf_diagonal,
                     theta_cells)


# -- words ---------------------------------------------------------------------


def test_free_reduce_and_inverse():
    assert W.free_reduce((1, -1)) == ()
    assert W.free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert W.inverse((1, -2, 3)) == (-3, 2, -1)


@given(st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=30))
def test_word_inverse_involution(word):
    w = tuple(word)
    assert W.free_reduce(W.inverse(W.inverse(w))) == W.free_reduce(w)
    assert W.concat(w, W.inverse(w)) == ()


def test_solve_for():
    # a b c^-1 b = 1 with c occurring once: c = b a b... check identity
    rel = (1, 2, -3, 2)
    expr = W.solve_for(rel, 3)
    assert W.free_reduce(W.substitute(rel, 3, expr)) == ()
    with pytest.raises(ValueError):
        W.solve_for((1, 2, 1), 1)


letters = st.integers(min_value=-4, max_value=4).filter(bool)


@given(st.lists(letters, max_size=30), st.integers(1, 4), st.lists(letters, max_size=8))
@example([1, 2, -2, -1, 3], 3, [1, -1])
@example([2, 1, -1, 1, 2], 1, [-2, 3, -3])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_substitute_matches_letterwise_substitution(word, gen, expr):
    # words and expressions need not be reduced
    inv = W.inverse(expr)
    letterwise = [y for x in word
                  for y in (expr if x == gen else inv if x == -gen else (x,))]
    assert W.substitute(tuple(word), gen, tuple(expr)) == W.free_reduce(letterwise)


def test_cyclically_equal():
    assert W.cyclically_equal((1, 2, 3), (3, 1, 2))
    assert W.cyclically_equal((1, 2), (-2, -1), up_to_inversion=True)
    assert not W.cyclically_equal((1, 2), (2, -1), up_to_inversion=True)


# -- abelianization --------------------------------------------------------------


def test_abelianization_rows():
    p = FPGroup(("a", "b"), ((1, 2, -1, -2), (1, 1, -2)))
    assert abelianization_matrix(p) == [[0, 0], [2, -1]]
    assert abelianization_rows(p.relators) == [{}, {0: 2, 1: -1}]


def test_theta_n4_minimal_abelianization_zero():
    fp = minimized("theta", 4).group
    assert abelianization_matrix(fp) == [[0, 0, 0]]


# -- Smith normal form ------------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 0]]) == (2,)
    assert smith_normal_form([[1, 1], [1, -1]]) == (1, 2)
    assert smith_normal_form([[0, 0, 0], [0, 0, 0]]) == ()


small_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1)


def _det(a):
    """Integer determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j, x in enumerate(a[0]) if x)


def _determinantal_diagonal(rows):
    """Invariant factors d_k / d_(k-1), where d_k is the gcd of all k x k
    minors: independent of any elimination order."""
    m, n = len(rows), len(rows[0])
    out, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_snf_divisor_chain(rows):
    factors = smith_normal_form(rows)
    assert all(d > 0 for d in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@given(small_matrices, st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_snf_invariant_under_permutation(rows, rnd):
    base = smith_normal_form(rows)
    shuffled = [list(r) for r in rows]
    rnd.shuffle(shuffled)
    cols = list(range(len(rows[0])))
    rnd.shuffle(cols)
    shuffled = [[row[j] for j in cols] for row in shuffled]
    assert smith_normal_form(shuffled) == base


@given(small_matrices)
@example([[2, 0], [0, 3]])
@example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
@settings(max_examples=60, deadline=None)
def test_snf_diagonal_matches_determinantal_divisors(rows):
    assert smith_normal_form(rows) == _determinantal_diagonal(rows)


@given(small_matrices)
@example([[2, 0], [0, 3]])
@example([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
@example([[2**70, 0], [0, 3]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 0], [0, 0]])
@example([[1, 1], [1, -1]])
@settings(max_examples=300, deadline=None)
def test_snf_matches_full_scan_reference(rows):
    # heap-ordered pivots against the earlier min-over-all-entries routine,
    # with the matrix given as dense rows and as {column: value} rows
    expected = reference_snf_diagonal(rows)
    assert smith_normal_form(rows) == expected
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    assert smith_normal_form(sparse) == expected


def test_snf_huge_entries_use_bignum_fallback():
    big = 2**70
    assert smith_normal_form([[big, 0], [0, 3]]) == (1, 3 * big)


def test_in_row_lattice():
    m = [[2, 0], [0, 3]]
    assert in_row_lattice(m, [[4, 3]])
    assert not in_row_lattice(m, [[1, 0]])
    assert in_row_lattice([], [[0, 0]])
    assert not in_row_lattice([], [[0, 1]])
    assert in_row_lattice([[0, 0]], [[0, 0]])
    assert not in_row_lattice([[0, 0]], [[1, 0]])
    assert not in_row_lattice(m, [[1, 2, 3]])
    # a batch is in when every vector is; the empty batch always is
    assert in_row_lattice(m, [[4, 3], {0: 2}, [0, -6]])
    assert not in_row_lattice(m, [[4, 3], [1, 0]])
    assert in_row_lattice(m, [])


def _rational_solution(rows, vector):
    """The rational y with y A = v, by exact Gauss-Jordan elimination on
    A^T y = v; None when v is outside the row span.  A needs independent
    rows, so that y is unique; ValueError otherwise."""
    m = len(rows)
    aug = [[Fraction(row[j]) for row in rows] + [Fraction(x)]
           for j, x in enumerate(vector)]
    for c in range(m):
        p = next((i for i in range(c, len(aug)) if aug[i][c]), None)
        if p is None:
            raise ValueError("dependent rows")
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for i in range(len(aug)):
            if i != c and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[c])]
    if any(row[m] for row in aug[m:]):
        return None
    return [row[m] for row in aug[:m]]


def _int_lists(bound):
    """Four small integers; zipped with up to four rows or columns."""
    return st.lists(st.integers(min_value=-bound, max_value=bound),
                    min_size=4, max_size=4)


@given(small_matrices, _int_lists(3), _int_lists(1))
@example([[2, 0], [0, 3]], [1, 1, 0, 0], [1, 0, 0, 0])
@example([[2, 2]], [0, 0, 0, 0], [1, 1, 0, 0])
@example([[1, 2], [2, 4], [3, 6]], [1, -1, 1, 0], [0, 0, 0, 0])
@settings(max_examples=200, deadline=None)
def test_in_row_lattice_matches_exact_solve(rows, coeffs, step):
    n = len(rows[0])
    # every integer combination of the rows is a member, dependent rows too
    combo = [sum(y * row[j] for y, row in zip(coeffs, rows)) for j in range(n)]
    assert in_row_lattice(rows, [combo])
    # one small step off that combination: compare with the exact solve
    vector = [a + b for a, b in zip(combo, step)]
    try:
        y = _rational_solution(rows, vector)
    except ValueError:
        return
    member = y is not None and all(x.denominator == 1 for x in y)
    assert in_row_lattice(rows, [vector]) == member


@st.composite
def _lattice_batches(draw):
    """Up to four dense rows and up to four vectors of one width; a vector is
    an integer combination of the rows or drawn freely, so a batch can mix
    members and non-members."""
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n)
    rows = draw(st.lists(entries, max_size=4))
    vectors = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if rows and draw(st.booleans()):
            coeffs = [draw(st.integers(min_value=-3, max_value=3)) for _ in rows]
            vectors.append([sum(y * row[j] for y, row in zip(coeffs, rows))
                            for j in range(n)])
        else:
            vectors.append(draw(entries))
    return rows, vectors


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


@given(_lattice_batches(), st.booleans(), st.booleans())
@example(([[2, 0], [0, 3]], [[4, 3], [1, 0], [2, 3]]), True, False)
@example(([[2, 0], [0, 3]], []), False, True)
@example(([], [[0, 0], [0, 1]]), False, False)
@example(([], []), True, True)
@example(([[1, 2], [2, 4]], [[3, 6], [-1, -2]]), True, True)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_batched_in_row_lattice_matches_per_vector_reference(case, sparse_rows,
                                                             sparse_vectors):
    # one comparison for the batch, two Smith normal forms per vector for
    # the reference, which takes dense rows only
    rows, vectors = case
    expected = all(reference_in_row_lattice(rows, v) for v in vectors)
    assert in_row_lattice(_sparse(rows) if sparse_rows else rows,
                          _sparse(vectors) if sparse_vectors else vectors) == expected


# -- homology ----------------------------------------------------------------------


def test_h1_values():
    for n in (2, 3, 4):
        h = homology_h1(bf.from_morse(morse("theta", n)))
        assert h == HomologyClass(3, ())
    assert homology_h1(bf.from_morse(morse("path", 3))) == HomologyClass(0, ())
    assert homology_h1(bf.from_morse(morse("y", 2))) == HomologyClass(1, ())
    assert homology_h1(bf.from_morse(morse("lasso", 2))) == HomologyClass(2, ())


def test_h1_torsion_free_on_planar_fixtures():
    for name in ("theta", "y", "path", "lasso"):
        for n in (1, 2):
            assert homology_h1(bf.from_morse(morse(name, n))).torsion == ()


def test_h1_formatting():
    assert str(HomologyClass(3, ())) == "Z^3"
    assert str(HomologyClass(0, ())) == "0"
    assert str(HomologyClass(1, (2, 2))) == "Z (+) Z_2^2"
    assert str(HomologyClass(0, (2, 4))) == "Z_2 (+) Z_4"


def test_h1_torsion_warning():
    p = FPGroup(("a",), ((1, 1, 1),))
    with pytest.warns(UserWarning, match="torsion"):
        h = homology_h1(p, warn_unexpected_torsion=True)
    assert h == HomologyClass(0, (3,))


# -- Tietze ------------------------------------------------------------------------


def test_tietze_theta_n3_reaches_free_rank_3():
    res = minimized("theta", 3)
    c = theta_cells(3)
    assert res.group.generators == (str(c["a1"]), str(c["a2"]), str(c["g"]))
    assert res.group.relators == ()
    assert res.reached


def test_tietze_theta_n4_single_relator():
    res = minimized("theta", 4)
    assert len(res.group.generators) == 3
    assert len(res.group.relators) == 1
    assert res.reached
    # frozen machine value: g a1 a2 g^-1 a2^-1 a1^-1 g^-1 a2 a1 g a1^-1 a2^-1
    # with (a1, a2, g) = generators in canonical order
    assert res.group.relators[0] == (3, 1, 2, -3, -2, -1, -3, 2, 1, 3, -1, -2)


def test_tietze_elimination_log_matches_sources():
    res = minimized("theta", 4)
    c = theta_cells(4)
    by_gen = {e.generator: e for e in res.eliminations}
    assert set(by_gen) == {str(c[k]) for k in ("s1", "s2", "s3", "s4", "s5")}
    # sigma_2 eliminated via the tau_2 relator, sigma_5 via tau_5
    s2 = by_gen[str(c["s2"])]
    assert s2.relator == ((str(c["a2"]), 1), (str(c["g"]), -1),
                          (str(c["a2"]), -1), (str(c["s2"]), 1))
    s5 = by_gen[str(c["s5"])]
    assert s5.relator == ((str(c["a2"]), 1), (str(c["s2"]), -1),
                          (str(c["a2"]), -1), (str(c["s5"]), 1))


def test_tietze_preserves_h1():
    for name, n in (("theta", 3), ("theta", 4), ("y", 3), ("lasso", 2)):
        fp = bf.from_morse(morse(name, n))
        res = minimized(name, n)
        assert homology_h1(fp) == homology_h1(res.group)


def test_tietze_generator_count_constant_in_n():
    counts = {len(minimized("theta", n).group.generators) for n in (2, 3, 4)}
    assert counts == {3}


def test_tietze_noop_on_free_presentation():
    p = FPGroup(("a",), ())
    res = tietze_minimize(p)
    assert res.group.generators == ("a",)
    assert res.eliminations == []


def test_tietze_forced_trivial_group():
    p = FPGroup(("a",), ((1,),))
    res = tietze_minimize(p, target=0)
    assert res.group.generators == ()
    assert res.group.relators == ()
    assert res.reached


def test_tietze_reaches_target_with_torsion():
    # K_5 at two particles: 12 generators, 6 relators, homology Z^6 + Z_2,
    # so the minimal generator count is 7
    from helpers import complete_graph
    g = complete_graph(5)
    og5 = bf.ordered(g)
    mp = bf.morse_presentation(bf.CubeComplex(og5, 2))
    res, h1 = bf.minimize_morse(og5, mp)
    assert str(h1) == "Z^6 (+) Z_2"
    assert res.target == 7
    assert res.reached
    assert len(res.group.generators) == 7
    assert homology_h1(res.group) == h1


def test_tietze_size_preference():
    # without sizes the shortest relator is used first; with sizes the large
    # cell goes first even from a longer relator
    p = FPGroup(("a", "b", "c"), ((2, 1, -2, 3), (1, 2)))
    res_plain = tietze_minimize(p)
    assert res_plain.eliminations[0].generator in ("a", "b")
    res_sized = tietze_minimize(p, sizes={"c": 5})
    assert res_sized.eliminations[0].generator == "c"


@given(st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=12),
       st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=12))
@settings(max_examples=100, deadline=None)
def test_solve_for_inverts_single_occurrence(prefix, suffix):
    # plant generator 4 exactly once between arbitrary words over 1..3
    rel = W.free_reduce(tuple(prefix) + (4,) + tuple(suffix))
    if sum(abs(x) == 4 for x in rel) != 1:
        return
    expr = W.solve_for(rel, 4)
    assert 4 not in map(abs, expr)
    assert W.substitute(rel, 4, expr) == ()


def _renumbering_tietze(p, sizes=None):
    """Reference: rescan every (generator, relator) pair for a single
    occurrence and renumber the generators after each elimination."""
    sizes = sizes or {}
    names = list(p.generators)
    relators = [W.free_reduce(r) for r in p.relators]
    prov = list(p.provenance)
    named = lambda word: tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in word)
    log = []
    while True:
        best = None
        for gi in range(1, len(names) + 1):
            for ri, rel in enumerate(relators):
                if sum(abs(x) == gi for x in rel) != 1:
                    continue
                key = (-sizes.get(names[gi - 1], 0), len(rel), gi, ri)
                if best is None or key < best[0]:
                    best = (key, gi, ri)
        if best is None:
            break
        _, gi, ri = best
        rel = relators[ri]
        expr = W.solve_for(rel, gi)
        log.append(Elimination(names[gi - 1], named(rel), named(expr)))
        del relators[ri]
        del prov[ri]
        relators = [tuple(x if abs(x) < gi else x - (1 if x > 0 else -1)
                          for x in W.substitute(r, gi, expr)) for r in relators]
        del names[gi - 1]
        keep = [i for i, r in enumerate(relators) if r]
        relators = [relators[i] for i in keep]
        prov = [prov[i] for i in keep]
    return FPGroup(tuple(names), tuple(relators), tuple(prov)), log


@st.composite
def presentations(draw):
    names = "abcde"[:draw(st.integers(0, 5))]
    word = (st.lists(st.integers(-len(names), len(names)).filter(bool), max_size=8)
            if names else st.just([]))
    # half of the relators are w w^-1, which reduce to empty on input
    rels = draw(st.lists(st.tuples(word, st.booleans()).map(
        lambda t: tuple(t[0]) + (W.inverse(t[0]) if t[1] else ())), max_size=5))
    prov = tuple(f"r{i}" for i in range(len(rels)))
    sizes = draw(st.none() | st.lists(st.integers(0, 3), min_size=len(names),
                                      max_size=len(names)).map(
        lambda s: dict(zip(names, s))))
    return FPGroup(tuple(names), tuple(rels), prov), sizes


@given(presentations())
@example((FPGroup(("a", "b"), ((1, -1), (1, 2), (2, 1, -2))), None))
@example((FPGroup(("a",), ((1, 1), ())), None))
@settings(max_examples=300, deadline=None)
def test_tietze_matches_renumbering_reference(case):
    p, sizes = case
    res = tietze_minimize(p, sizes=sizes)
    assert (res.group, res.eliminations) == _renumbering_tietze(p, sizes)


def test_tietze_k5_n4_digest():
    # pins the minimized group and the elimination log letter for letter
    og5 = bf.ordered(bf.subdivide_for(complete_graph(5), 4))
    res, _ = bf.minimize_morse(og5, bf.morse_presentation(bf.CubeComplex(og5, 4)))
    blob = json.dumps([res.group.generators, res.group.relators, res.group.provenance,
                       [[e.generator, e.relator, e.expression] for e in res.eliminations]],
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "738336d7bd7da9b5e4ffc608b0b6705c793db960861ea1948306dab01cf76ecc"


@pytest.mark.parametrize("name, n, sizes, digest", [
    ("theta", 5, (1051, 1785, 3, 20),
     "cb4790539fdd03730dd18c1327acfded5430f77ddb9e9c483315075207c8601d"),
    ("K5", 3, (1106, 1650, 7, 119),
     "04aba84e6df009ab2e98845a17e9c68cd8801d7a9a14d034ebf7c0ae04474b54"),
    ("K4", 4, (4733, 8514, 4, 197),
     "6f6d43c04576cd345d6c807501bb85490b242ab4b00aabd7bfd8902b80ba4824"),
], ids=["theta-5", "K5-3", "K4-4"])
def test_tietze_oracle_digest(name, n, sizes, digest):
    # the 1-skeleton oracle's presentation, thousands of relators long, pins
    # the minimized group and the elimination log letter for letter
    g = graph("theta") if name == "theta" else complete_graph(int(name[1:]))
    cx = bf.CubeComplex(bf.ordered(bf.subdivide_for(g, n)), n)
    group = bf.skeleton_presentation(cx).group
    res = tietze_minimize(group)
    assert (len(group.generators), len(group.relators),
            len(res.group.generators), len(res.group.relators)) == sizes
    blob = json.dumps([res.group.generators, res.group.relators, res.group.provenance,
                       [[e.generator, e.relator, e.expression] for e in res.eliminations]],
                      separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest
