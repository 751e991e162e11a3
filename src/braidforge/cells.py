"""Cubes of the discretized configuration complex and their Morse matching.

A cell is a set of N pairwise disjoint vertices and closed edges of the
ordered graph; its dimension is the number of edges.  An oriented 1-cell
{e, v1..} runs from the configuration containing iota(e) to the one
containing tau(e), so the positive direction slides a particle down the
order.  The matching pairs each redundant cell with the cell obtained by
replacing its lowest unblocked vertex v by the parent edge e(v); critical
cells, which survive into the quotient complex, are those whose vertices are
all blocked and whose edges are all non-order-respecting.

`critical_cells` generates the critical cells directly from that rule, in
any dimension up to N.  The full enumeration `cells` remains only for the
`cells` command, the 1-skeleton oracle and `validate_matching`.

`classify` keeps no memo of its own.  On the rewrite path every 1-cell's
flow image is computed once per complex and kept in `flow_cache`, so each
distinct cell is classified there once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import MatchingError, ValidationError
from .graph import Edge, OrderedGraph, check_subdivision

Config = frozenset[int]


@dataclass(frozen=True)
class Cell:
    edges: tuple[Edge, ...]
    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    @property
    def dim(self) -> int:
        return len(self.edges)

    @property
    def n(self) -> int:
        return len(self.edges) + len(self.vertices)

    def sort_key(self):
        return (self.edges, self.vertices)

    def __str__(self) -> str:
        parts = [f"e({a},{b})" for a, b in self.edges]
        parts += [str(v) for v in self.vertices]
        return "{" + ",".join(parts) + "}"


Letter = tuple[Cell, int]
CellWord = tuple[Letter, ...]

CRITICAL = "critical"
REDUNDANT = "redundant"
COLLAPSIBLE = "collapsible"


@dataclass(frozen=True)
class MorseClass:
    kind: str
    partner: Cell | None = None


def word_str(word: CellWord) -> str:
    if not word:
        return "(empty)"
    return " ".join(str(c) + ("" if s > 0 else "^-1") for c, s in word)


def letter_endpoints(letter: Letter) -> tuple[Config, Config]:
    """(start, end) configurations of a signed 1-cell."""
    cell, sign = letter
    if cell.dim != 1:
        raise ValueError("letter must be a 1-cell")
    (e,) = cell.edges
    up = frozenset(cell.vertices) | {e[1]}
    dn = frozenset(cell.vertices) | {e[0]}
    return (up, dn) if sign > 0 else (dn, up)


def inverse_word(word: CellWord) -> CellWord:
    return tuple((c, -s) for c, s in reversed(word))


class CubeComplex:
    """Cells of the n-particle complex over an ordered graph, with the Morse
    matching, boundary words and the falling path to the base configuration.
    """

    def __init__(self, og: OrderedGraph, n: int, check: bool = True):
        if n < 1:
            raise ValueError("n must be >= 1")
        if check:
            check_subdivision(og.source, n).require()
        self.og = og
        self.n = n
        self._edge_set = frozenset(og.edges)
        # every 1-cell the Morse flow visits -> its image (morse.rewrite_word)
        self.flow_cache: dict[Cell, CellWord] = {}

    # -- basic predicates ---------------------------------------------------

    def is_valid_cell(self, cell: Cell) -> bool:
        if cell.n != self.n:
            return False
        used: set[int] = set()
        for e in cell.edges:
            if e not in self._edge_set:
                return False
            if e[0] in used or e[1] in used:
                return False
            used.update(e)
        for v in cell.vertices:
            if v in used or not 1 <= v <= self.og.n:
                return False
            used.add(v)
        return True

    def is_order_respecting(self, e: Edge, cell: Cell) -> bool:
        """Deleted edges never respect the order; a tree edge fails when a
        strictly smaller sibling of iota(e) sits in the cell."""
        if e not in self.og.tree:
            return False
        tau, iota = e
        return not any(self.og.parent.get(v) == tau and tau < v < iota
                       for v in cell.vertices)

    def is_critical(self, cell: Cell) -> bool:
        return (self.lowest_unblocked(cell) is None
                and not any(self.is_order_respecting(e, cell) for e in cell.edges))

    def lowest_unblocked(self, cell: Cell) -> int | None:
        """The lowest vertex of `cell` that is not blocked, or None.  The root
        is blocked by convention; otherwise v is blocked when the parent
        vertex is occupied, so e(v) would collide."""
        occupied = set(cell.vertices).union(*cell.edges)
        parent, root = self.og.parent, self.og.root
        return next((v for v in cell.vertices
                     if v != root and parent[v] not in occupied), None)

    # -- enumeration ---------------------------------------------------------

    @staticmethod
    def _matchings(edges: tuple[Edge, ...], dim: int):
        """Each set of `dim` pairwise disjoint edges out of the sorted
        `edges`, in lexicographic order, with the set of its endpoints."""

        def grow(start, chosen, used):
            if len(chosen) == dim:
                yield chosen, used
                return
            for i in range(start, len(edges)):
                a, b = edges[i]
                if a not in used and b not in used:
                    yield from grow(i + 1, chosen + (edges[i],), used | {a, b})
        return grow(0, (), frozenset())

    def cells(self, dim: int) -> list[Cell]:
        """All cells of the given dimension, in canonical order."""
        if dim not in (0, 1, 2):
            raise ValueError("only dimensions 0..2 are enumerated")
        if dim > self.n:
            return []
        out = []
        verts = range(1, self.og.n + 1)
        for es, used in self._matchings(self.og.edges, dim):
            free = [v for v in verts if v not in used]
            for vs in combinations(free, self.n - dim):
                out.append(Cell(es, vs))
        out.sort(key=Cell.sort_key)
        return out

    def _blocked_vertex_sets(self, used: frozenset[int], k: int):
        """Each increasing k-tuple of vertices outside `used` that are all
        blocked when `used` is occupied.  A vertex is blocked by its parent,
        whose label is smaller, so scanning labels upward and taking the root
        or any vertex whose parent is already occupied reaches every such
        tuple exactly once."""
        parent, root, top = self.og.parent, self.og.root, self.og.n

        def grow(vs, last, occupied):
            if len(vs) == k:
                yield vs
                return
            for v in range(last + 1, top + 1):
                if v not in occupied and (v == root or parent[v] in occupied):
                    yield from grow(vs + (v,), v, occupied | {v})
        return grow((), 0, used)

    def critical_cells(self, dim: int) -> list[Cell]:
        """The critical cells of the given dimension (any 0 <= dim <= n), in
        canonical order, generated without enumerating the other cells: all
        vertices blocked, and every tree edge (tau, iota) witnessed by a cell
        vertex v with parent(v) = tau and tau < v < iota.  A tree edge whose
        tau has no such child can never be witnessed, so only the deleted
        edges and the other tree edges are matched."""
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        if dim > self.n:
            return []
        og = self.og
        edges = tuple(e for e in og.edges
                      if e not in og.tree or min(og.children[e[0]]) < e[1])
        out = []
        for es, used in self._matchings(edges, dim):
            for vs in self._blocked_vertex_sets(used, self.n - dim):
                cell = Cell(es, vs)
                if not any(self.is_order_respecting(e, cell) for e in es):
                    out.append(cell)
        out.sort(key=Cell.sort_key)
        return out

    # -- matching ------------------------------------------------------------

    def matching_image(self, cell: Cell) -> Cell:
        """Replace the lowest unblocked vertex v by its parent edge e(v)."""
        cls = self.classify(cell)
        if cls.kind != REDUNDANT:
            raise MatchingError(f"matching image requested for {cls.kind} cell {cell}")
        return cls.partner

    def classify(self, cell: Cell) -> MorseClass:
        if not self.is_valid_cell(cell):
            raise ValidationError(f"{cell} is not a valid {self.n}-particle cell")
        if self.is_critical(cell):
            return MorseClass(CRITICAL)
        preimage = self._matching_preimage(cell)
        if preimage is not None:
            return MorseClass(COLLAPSIBLE, preimage)
        v = self.lowest_unblocked(cell)
        if v is None:
            raise MatchingError(
                f"{cell.dim}-cell {cell} is neither critical, collapsible nor "
                "redundant; matching is broken")
        return MorseClass(REDUNDANT, self._replace_vertex(cell, v))

    def _replace_vertex(self, cell: Cell, v: int) -> Cell:
        return Cell(cell.edges + (self.og.parent_edge(v),),
                    tuple(u for u in cell.vertices if u != v))

    def _matching_preimage(self, cell: Cell) -> Cell | None:
        """The unique redundant facet mapped onto `cell`, if any: drop a tree
        edge e, put back iota(e), and require that iota(e) is the lowest
        unblocked vertex of the resulting redundant cell."""
        found = None
        for e in cell.edges:
            if e not in self.og.tree:
                continue
            facet = Cell(tuple(x for x in cell.edges if x != e),
                         cell.vertices + (e[1],))
            if self.lowest_unblocked(facet) != e[1]:
                continue
            # such a facet is not critical; a 0-cell one is thus redundant
            if facet.dim and self.classify(facet).kind != REDUNDANT:
                continue
            if found is not None:
                raise MatchingError(
                    f"matching not injective: {found} and {facet} "
                    f"both map to {cell}")
            found = facet
        return found

    # -- boundary ------------------------------------------------------------

    def boundary_word(self, cell: Cell) -> CellWord:
        """Four-letter word around a square 2-cell.  With e the edge whose
        (tau, iota) pair is larger and e' the other one, the traversal is
        {e',tau(e)} {e,tau(e')}^-1 {e',iota(e)}^-1 {e,iota(e')}, which is the
        orientation and start corner whose rewritten relators match the
        canonical worked examples letter for letter."""
        if cell.dim != 2:
            raise ValueError("boundary words are defined for 2-cells")
        e_small, e_big = sorted(cell.edges)
        vs = cell.vertices
        mk = lambda e, v: Cell((e,), vs + (v,))
        return (
            (mk(e_small, e_big[0]), +1),
            (mk(e_big, e_small[0]), -1),
            (mk(e_small, e_big[1]), -1),
            (mk(e_big, e_small[1]), +1),
        )

    def boundary_cells(self, cell: Cell) -> list[Cell]:
        return [c for c, _ in self.boundary_word(cell)]

    # -- falling path ---------------------------------------------------------

    @property
    def base_config(self) -> Config:
        return frozenset(range(1, self.n + 1))

    def path_to_base(self, config) -> CellWord:
        """Word of collapsible 1-cells from the base configuration {1..n} to
        `config`, obtained by reversing the falling path of the matching."""
        config = frozenset(config)
        cell = Cell((), tuple(config))
        if not self.is_valid_cell(cell):
            raise ValidationError(f"{sorted(config)} is not a configuration")
        bound = math.comb(self.og.n, self.n) + 1
        falling: list[Letter] = []
        cur = config
        steps = 0
        while cur != self.base_config:
            steps += 1
            if steps > bound:
                raise MatchingError("falling path does not reach the base; "
                                    "matching is broken")
            c = Cell((), tuple(cur))
            v = self.lowest_unblocked(c)
            if v is None:
                raise MatchingError(
                    f"configuration {sorted(cur)} is fully blocked but is not "
                    "the base; the critical 0-cell is not unique")
            falling.append((self._replace_vertex(c, v), +1))
            cur = (cur - {v}) | {self.og.parent[v]}
        return inverse_word(tuple(falling))

    # -- validation -----------------------------------------------------------

    def assert_unique_critical_zero_cell(self):
        crits = self.critical_cells(0)
        expected = Cell((), tuple(range(1, self.n + 1)))
        if crits != [expected]:
            raise MatchingError(
                "expected the unique critical 0-cell {1..N}; got "
                + ", ".join(map(str, crits)))

    def validate_matching(self):
        """Full matching audit: trichotomy, bijectivity of the 0-1 matching,
        injectivity of the 1-2 matching, and acyclicity of the flow."""
        self.assert_unique_critical_zero_cell()
        zero, one, two = self.cells(0), self.cells(1), self.cells(2)
        cls = {c: self.classify(c) for c in zero + one + two}
        of_kind = lambda cells, kind: [c for c in cells if cls[c].kind == kind]

        red0 = of_kind(zero, REDUNDANT)
        col1 = of_kind(one, COLLAPSIBLE)
        images = [cls[c].partner for c in red0]
        if sorted(images, key=Cell.sort_key) != sorted(col1, key=Cell.sort_key):
            raise MatchingError("matching is not a bijection from redundant "
                                "0-cells onto collapsible 1-cells")
        if len(set(images)) != len(images):
            raise MatchingError("matching not injective on 0-cells")

        red1 = of_kind(one, REDUNDANT)
        col2 = of_kind(two, COLLAPSIBLE)
        img1 = {}
        for c in red1:
            t = cls[c].partner
            if t in img1:
                raise MatchingError(f"matching not injective: {img1[t]} and {c}")
            img1[t] = c
        for t in col2:
            if t not in img1:
                raise MatchingError(f"collapsible 2-cell {t} has no redundant facet")

        # acyclicity of the discrete flow, level by level
        def check_acyclic(redundant, down):
            red_set = set(redundant)
            succ = {}
            for c in redundant:
                succ[c] = [d for d in down(cls[c].partner) if d != c and d in red_set]
            state: dict[Cell, int] = {}

            def visit(c):
                state[c] = 1
                for d in succ[c]:
                    s = state.get(d, 0)
                    if s == 1:
                        raise MatchingError(f"matching flow has a cycle through {c}")
                    if s == 0:
                        visit(d)
                state[c] = 2

            for c in redundant:
                if state.get(c, 0) == 0:
                    visit(c)

        check_acyclic(red0, lambda t: [Cell((), t.vertices + (v,))
                                       for v in t.edges[0]])
        check_acyclic(red1, self.boundary_cells)
