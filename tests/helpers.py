"""Shared builders and golden theta-graph cells for the test suite."""

import math
import random
import warnings
from functools import lru_cache
from unittest import mock

import numpy as np

import braidforge as bf
from braidforge.cells import COLLAPSIBLE, CRITICAL, REDUNDANT, Cell
from braidforge.errors import MatchingError, ValidationError
from braidforge.fixtures import load_fixture
from braidforge.presentation import abelianization_rows, smith_normal_form

E18, E111, E59 = (1, 8), (1, 11), (5, 9)


@lru_cache(maxsize=None)
def graph(name: str) -> bf.Graph:
    return bf.parse_graph(load_fixture(name))


@lru_cache(maxsize=None)
def og(name: str) -> bf.OrderedGraph:
    return bf.ordered(graph(name))


@lru_cache(maxsize=None)
def complex_for(name: str, n: int) -> bf.CubeComplex:
    return bf.CubeComplex(og(name), n)


@lru_cache(maxsize=None)
def morse(name: str, n: int) -> bf.MorsePresentation:
    return bf.morse_presentation(complex_for(name, n))


@lru_cache(maxsize=None)
def minimized(name: str, n: int):
    result, h1 = bf.minimize_morse(og(name), morse(name, n))
    return result


def unchecked_complex(og: bf.OrderedGraph, n: int) -> bf.CubeComplex:
    """A complex built without the subdivision check, which the constructor
    otherwise always runs: for a graph too coarse for n particles, or to
    skip the check on a complex built many times."""
    with mock.patch("braidforge.cells.check_subdivision"):
        return bf.CubeComplex(og, n)


def cell(edges, vertices) -> Cell:
    return Cell(tuple(edges), tuple(vertices))


def theta_cells(n: int) -> dict[str, Cell]:
    """The critical cells of the theta fixture by their conventional names."""
    if n == 2:
        d = {"a1": cell([E18], [2]), "a2": cell([E111], [2]),
             "g": cell([E59], [6])}
    elif n == 3:
        d = {"a1": cell([E18], [2, 3]), "a2": cell([E111], [2, 3]),
             "g": cell([E59], [1, 6]),
             "s1": cell([E59], [6, 7]), "s2": cell([E59], [6, 10]),
             "t1": cell([E18, E59], [6]), "t2": cell([E111, E59], [6])}
    elif n == 4:
        d = {"a1": cell([E18], [2, 3, 4]), "a2": cell([E111], [2, 3, 4]),
             "g": cell([E59], [1, 2, 6]),
             "s1": cell([E59], [1, 6, 7]), "s2": cell([E59], [1, 6, 10]),
             "s3": cell([E59], [6, 7, 8]), "s4": cell([E59], [6, 7, 10]),
             "s5": cell([E59], [6, 10, 11]),
             "t1": cell([E18, E59], [2, 6]), "t2": cell([E111, E59], [2, 6]),
             "t3": cell([E111, E59], [6, 7]), "t4": cell([E18, E59], [6, 7]),
             "t5": cell([E111, E59], [6, 10]), "t6": cell([E18, E59], [6, 10])}
    else:
        raise ValueError(n)
    return d


def cell_word_to_indices(word, generators) -> tuple[int, ...]:
    """A word of critical cells as signed 1-based generator indices."""
    index = {c: i + 1 for i, c in enumerate(generators)}
    return tuple(s * index[c] for c, s in word)


def inject_flow_cycle(monkeypatch, cx) -> tuple[Cell, Cell]:
    """Break the matching of complexes over `cx`'s graph: the rest of the
    square of a redundant cell b, met while expanding a redundant letter a of
    the first critical square, now reads a^-1, so the flow returns to a.  The
    flow reads a rest as letter codes, so the codes are patched.  Returns
    a, b."""
    redundant = lambda word: [c for c, _ in word if cx.classify(c).kind == "redundant"]
    a = redundant(cx.boundary_word(cx.critical_cells(2)[0]))[0]
    b = next(c for c in redundant(cx.boundary_word(cx.classify(a).partner)) if c != a)
    real = bf.CubeComplex.square_rest
    monkeypatch.setattr(bf.CubeComplex, "square_rest", lambda self, code, tau:
                        (~self.encode(a),) if self.decode(code) == b
                        else real(self, code, tau))
    return a, b


def reference_match(cx, edges, vmask):
    """(kind, partner parts) of a cell of `cx` by the earlier general rule:
    critical with no partner, collapsible with the redundant facet that a
    recursive search finds mapped onto the cell, or redundant with the cell
    that replaces its lowest unblocked vertex by the parent edge."""
    occupied = cx._occupied(edges, vmask)
    low = cx._unblocked(vmask, occupied)
    if not low and not cx._respected(edges, vmask):
        return CRITICAL, None
    preimage = _reference_preimage(cx, edges, vmask, occupied)
    if preimage is not None:
        return COLLAPSIBLE, preimage
    if not low:
        raise MatchingError(
            f"{len(edges)}-cell {cx.cell_of((edges, vmask))} is neither "
            "critical, collapsible nor redundant; matching is broken")
    return REDUNDANT, cx._replaced(edges, vmask, low)


def _reference_preimage(cx, edges, vmask, occupied):
    """The unique redundant facet mapped onto the cell, if any: drop a tree
    edge e, put back iota(e), and require that iota(e) is the lowest
    unblocked vertex of the resulting redundant cell."""
    found = None
    for k, e in enumerate(edges):
        if cx._witness[e] is None:
            continue
        iota = cx._iota_bit[e]
        facet_occupied = occupied ^ cx._tau_bit[e]
        facet = (edges[:k] + edges[k + 1:], vmask | iota)
        if cx._unblocked(facet[1], facet_occupied) != iota:
            continue
        # not critical, so redundant unless it is itself collapsible
        if facet[0] and _reference_preimage(cx, *facet, facet_occupied) is not None:
            continue
        if found is not None:
            raise MatchingError(
                f"matching not injective: {cx.cell_of(found)} and "
                f"{cx.cell_of(facet)} both map to {cx.cell_of((edges, vmask))}")
        found = facet
    return found


def reference_square_rest(cx, code: int, tau) -> tuple[int, ...]:
    """The letters equal to the 1-cell `code` across its matched square tau,
    by the earlier scan of the square for the cell."""
    boundary = cx.square(tau)
    k = boundary.count(code) + boundary.count(~code)
    if k != 1:
        raise MatchingError(
            f"{cx.decode(code)} occurs {k} times in the boundary of its "
            f"matched 2-cell {cx.cell_of(tau)}")
    positive = code in boundary
    i = boundary.index(code if positive else ~code)
    rest = boundary[i + 1:] + boundary[:i]
    # sigma^eps * rest is null-homotopic, so sigma = rest^(-eps)
    return tuple([~x for x in rest[::-1]]) if positive else rest


def reference_cell_size(og, cell) -> int:
    """`critical_cell_size` by the earlier branch walk: climb each vertex of
    the 1-cell to the child of tau(e) it lies behind, if any, and count it
    when that branch's index at tau is positive.  At a junction branch 0
    points to the root and the rest count clockwise from 1; at the root the
    single branch is 0."""
    (e,) = cell.edges
    tau = e[0]
    count = 0
    for v in cell.vertices:
        w = v
        while w != og.root and og.parent[w] != tau:
            w = og.parent[w]
        if w == og.root:
            continue
        kids = og.children[tau]
        branch = kids.index(w) if tau == 1 else kids.index(w) + 1
        if branch >= 1:
            count += 1
    return count


def cw(cells: dict, *letters) -> tuple:
    """Cell word from ('a1', +1)-style pairs using a theta cell table."""
    return tuple((cells[k], s) for k, s in letters)


def theta_loop_specs(n: int):
    U = (1, 2, 3, 4, 5, 6, 7, 8)
    D = (5, 6, 7, 8, 1, 11, 10, 9)
    if n == 2:
        return {"gamma": bf.YLoopSpec(4, 6, 9),
                "aD": bf.OLoopSpec(D, (2,)),
                "aU": bf.OLoopSpec(U, (9,))}
    if n == 4:
        return {"gamma": bf.YLoopSpec(4, 6, 9, (1, 2)),
                "gamma_p": bf.YLoopSpec(4, 6, 9, (1, 10)),
                "gamma_pp": bf.YLoopSpec(4, 6, 9, (10, 11)),
                "aU": bf.OLoopSpec(U, (9, 10, 11)),
                "aD": bf.OLoopSpec(D, (2, 3, 4))}
    raise ValueError(n)


def edge_crossings(word, edge) -> int:
    """Net signed crossings of one graph edge; a homomorphism to Z for
    deleted edges, killed by every square boundary."""
    total = 0
    for c, s in word:
        if edge in c.edges:
            total += s
    return total


def raw_theta() -> bf.Graph:
    return bf.parse_graph({"vertices": [1, 2],
                           "edges": [[1, 2], [1, 2], [1, 2]],
                           "tree_edges": [[1, 2]], "root": 1})


def random_multigraph(rng: random.Random) -> dict:
    """A random tree on 2-5 scrambled ids plus up to 4 extra edges, loops and
    parallel edges included, rooted at a random leaf; simple graphs get a
    random rotation half of the time."""
    ids = rng.sample(range(1, 10), rng.randint(2, 5))
    tree = [[v, rng.choice(ids[:i])] for i, v in enumerate(ids) if i]
    edges = tree + [[rng.choice(ids), rng.choice(ids)] for _ in range(rng.randint(0, 4))]
    leaves = [v for v in ids if sum(v in e for e in tree) == 1]
    data = {"vertices": ids, "edges": edges, "tree_edges": tree,
            "root": rng.choice(leaves)}
    pairs = [tuple(sorted(e)) for e in edges]
    if len(set(pairs)) == len(pairs) and all(a != b for a, b in pairs) and rng.random() < 0.5:
        nbrs = {v: [b if a == v else a for a, b in edges if v in (a, b)] for v in ids}
        data["rotation"] = {str(v): rng.sample(ws, len(ws)) for v, ws in nbrs.items()}
    return data


def random_multigraph_complexes(seed):
    """The complexes of the seeded random multigraph of the subdivision
    digest at two, three and four particles, leaving out those with more
    than 400 squares."""
    data = random_multigraph(random.Random(seed))
    for n in (2, 3, 4):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                og = bf.ordered(bf.subdivide_for(bf.parse_graph(data), n))
        except ValidationError:
            continue            # e.g. a loop at the root: no subdivision serves
        cx = bf.CubeComplex(og, n)
        if len(cx.cells(2)) <= 400:
            yield cx


def complete_graph(n: int) -> bf.Graph:
    """K_n with a spanning path tree and ascending rotations."""
    vs = list(range(1, n + 1))
    return bf.parse_graph({
        "vertices": vs,
        "edges": [[a, b] for a in vs for b in vs if a < b],
        "tree_edges": [[i, i + 1] for i in vs[:-1]],
        "root": 1,
        "rotation": {str(v): [w for w in vs if w != v] for v in vs}})


def complete_bipartite_33() -> bf.Graph:
    """K_{3,3} on parts {1,3,5} and {2,4,6} with a spanning path tree."""
    return bf.parse_graph({
        "vertices": [1, 2, 3, 4, 5, 6],
        "edges": sorted([a, b] for a in (1, 3, 5) for b in (2, 4, 6)),
        "tree_edges": [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6]],
        "root": 1,
        "rotation": {str(v): ([2, 4, 6] if v % 2 else [1, 3, 5])
                     for v in range(1, 7)}})


def gal_euler_characteristic(g: bf.Graph, n: int) -> int:
    """Euler characteristic of the n-particle unordered configuration space
    of a graph: the t^n coefficient of prod_v (1 - (deg v - 1) t) / (1 - t)^|E|
    (Gal, 2001).  A loop adds 2 to its vertex's degree; subdividing an edge
    multiplies numerator and denominator by (1 - t), so any subdivision of
    `g` gives the same value."""
    poly = [1]
    for v in g.vertices:
        a = 1 - sum(e.count(v) for e in g.edges)
        poly = [x + a * y for x, y in zip(poly + [0], [0] + poly)]
    m = len(g.edges)
    return sum(c * math.comb(n - i + m - 1, m - 1)
               for i, c in enumerate(poly[:n + 1]))


def reference_snf_diagonal(matrix) -> tuple[int, ...]:
    """The invariant factors by the earlier full-scan routine: each pivot is
    a `min` over every live entry, keyed (|x|, fill, i, j), and the loop
    runs while any entry is live.  Takes dense rows only."""
    n = len(matrix[0]) if matrix else 0
    rows = {i: {j: int(x) for j, x in enumerate(row) if x}
            for i, row in enumerate(matrix)}
    cols: dict[int, set[int]] = {j: set() for j in range(n)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)

    def put(i, j, x):
        if x:
            rows[i][j] = x
            cols[j].add(i)
        else:
            rows[i].pop(j, None)
            cols[j].discard(i)

    def add_row(dst, src, k):
        for j, x in list(rows[src].items()):
            put(dst, j, rows[dst].get(j, 0) + k * x)

    def add_col(dst, src, k):
        for i in list(cols[src]):
            put(i, dst, rows[i].get(dst, 0) + k * rows[i][src])

    pivots = []
    while any(rows.values()):
        _, r, c = min(((abs(x), (len(row) - 1) * (len(cols[j]) - 1)), i, j)
                      for i, row in rows.items() for j, x in row.items())
        p = rows[r][c]
        for i in list(cols[c] - {r}):
            add_row(i, r, -(rows[i][c] // p))
        for j in list(rows[r].keys() - {c}):
            add_col(j, c, -(rows[r][j] // p))
        if len(rows[r]) > 1 or len(cols[c]) > 1:
            continue
        bad = None if abs(p) == 1 else next(
            (i for i, row in rows.items() if any(x % p for x in row.values())), None)
        if bad is not None:
            add_row(r, bad, 1)
            continue
        pivots.append(abs(p))
        del rows[r], cols[c]
    return tuple(pivots)


def exponent_sums(word, num_gens: int) -> list[int]:
    """The dense exponent-sum row of a word over `num_gens` generators."""
    row = [0] * num_gens
    for x in word:
        row[abs(x) - 1] += 1 if x > 0 else -1
    return row


def abelianization_matrix(p: bf.FPGroup) -> list[list[int]]:
    """Relators x generators matrix of signed occurrence counts: the rows of
    `abelianization_rows`, written out densely."""
    return [[row.get(j, 0) for j in range(len(p.generators))]
            for row in abelianization_rows(p.relators)]


def reference_in_row_lattice(matrix, vector) -> bool:
    """Membership of one dense vector in the row lattice of a dense matrix,
    by the earlier single-vector routine: two Smith normal forms per
    vector, and a vector of another width is refused."""
    if not matrix:
        return all(x == 0 for x in vector)
    if len(vector) != len(matrix[0]):
        raise ValueError("length mismatch")
    return smith_normal_form(matrix) == smith_normal_form(list(matrix) + [list(vector)])


def reference_loss_and_grads(relators, mats, k):
    """The solver's losses and gradients by the earlier per-letter form: one
    stacked product per letter for each of the prefix and suffix chains and
    two per gradient term, with a conjugate copy for each inverse letter.
    Takes generator matrices stacked as (generators, restarts, k, k)."""
    def dagger(mat):
        return mat.conj().swapaxes(-1, -2)

    losses = [0.0] * mats.shape[1]
    grads = np.zeros_like(mats)
    eye = np.eye(k)
    for rel in filter(None, relators):
        letters = [(abs(x) - 1, x > 0) for x in rel]
        factors = [mats[g] if pos else dagger(mats[g]) for g, pos in letters]
        prefix = [eye]
        for f in factors:
            prefix.append(prefix[-1] @ f)
        suffix = [eye]
        for f in reversed(factors):
            suffix.append(f @ suffix[-1])
        suffix.reverse()
        m = prefix[-1] - eye
        for r in range(len(losses)):
            losses[r] += float(np.linalg.norm(m[r]) ** 2)
        for j, (g, pos) in enumerate(letters):
            y = dagger(prefix[j]) @ m @ dagger(suffix[j + 1])
            grads[g] += y if pos else dagger(y)
    return losses, grads
