"""Cubes of the discretized configuration complex and their Morse matching.

A cell is a set of N pairwise disjoint vertices and closed edges of the
ordered graph; its dimension is the number of edges.  An oriented 1-cell
{e, v1..} runs from the configuration containing iota(e) to the one
containing tau(e), so the positive direction slides a particle down the
order.  The matching pairs each redundant cell with the cell obtained by
replacing its lowest unblocked vertex v by the parent edge e(v); critical
cells, which survive into the quotient complex, are those whose vertices are
all blocked and whose edges are all non-order-respecting.

A `Cell` is a tuple (edges, vertices) of sorted tuples, hashed and compared
in C; cells are what the library takes and returns.  Inside a complex a
cell is coded by its parts, a sorted tuple of indices into `og.edges` and a
mask with bit v set for vertex v; a 1-cell is one int, (edge index << shift)
| mask, and an inverted letter its complement ~code.  The matching rule is
stated once, as bit operations on masks precomputed per complex (the bit
that blocks each vertex, each edge's endpoints, each tree edge's witnesses,
each vertex's parent edge).  `classify`, `critical_cells`, `path_to_base`,
the boundary words and the flow in `morse.rewrite_word` all read it.
`match_letter` states it for a 1-cell's single edge, and the general rule
reads a cell's facets through it.  `square` alone fixes the layout of a
square 2-cell; the flow takes the rest of a redundant 1-cell's matched
square from `square_rest`.

`critical_cells` generates the critical cells directly from that rule, in
any dimension up to N.  The full enumeration `cells` remains only for the
`cells` command, the 1-skeleton oracle and `validate_matching`.  Both yield
canonical order as they generate, with no sort: `_matchings`, `combinations`
and `_blocked_vertex_sets` each yield in lexicographic order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .errors import MatchingError, ValidationError
from .graph import Edge, OrderedGraph, check_subdivision

Config = frozenset[int]


class Cell(tuple):
    """An immutable pair (edges, vertices) of sorted tuples."""
    __slots__ = ()

    def __new__(cls, edges, vertices):
        return tuple.__new__(cls, (tuple(sorted(edges)), tuple(sorted(vertices))))

    def __getnewargs__(self):
        return tuple(self)

    edges = property(itemgetter(0))
    vertices = property(itemgetter(1))
    dim = property(lambda self: len(self[0]))
    n = property(lambda self: len(self[0]) + len(self[1]))

    def sort_key(self):
        return (self.edges, self.vertices)

    def __str__(self) -> str:
        parts = [f"e({a},{b})" for a, b in self.edges]
        parts += [str(v) for v in self.vertices]
        return "{" + ",".join(parts) + "}"


def _cell(edges: tuple[Edge, ...], vertices: tuple[int, ...]) -> Cell:
    """A cell from parts the caller has already sorted."""
    return tuple.__new__(Cell, (edges, vertices))


Letter = tuple[Cell, int]
CellWord = tuple[Letter, ...]

CRITICAL = "critical"
REDUNDANT = "redundant"
COLLAPSIBLE = "collapsible"


@dataclass(frozen=True)
class MorseClass:
    kind: str
    partner: Cell | None = None


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

    def __init__(self, og: OrderedGraph, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        check_subdivision(og.source, n).require()
        self.og = og
        self.n = n
        labels = range(1, og.n + 1)
        # vertex v is bit v of a mask; a 1-cell's code puts its edge index
        # above the vertex bits
        self._shift = og.n + 1
        self._vertex_bits = (1 << self._shift) - 1
        self._bit = {v: 1 << v for v in labels}
        self._edge_index = {e: i for i, e in enumerate(og.edges)}
        # vertex bit -> the bit whose occupancy blocks the vertex when it is
        # occupied: its parent's, and the root's own, since the root is
        # blocked by convention
        self._block = {1 << v: 1 << og.parent.get(v, v) for v in labels}
        # vertex bit -> index of the parent edge (root absent)
        self._parent_edge = {1 << v: self._edge_index[og.parent_edge(v)]
                             for v in og.parent}
        self._tau_bit = [1 << t for t, _ in og.edges]
        self._iota_bit = [1 << i for _, i in og.edges]
        self._ends = [(1 << t) | (1 << i) for t, i in og.edges]
        # tree edge (tau, iota) -> mask of the children v of tau with
        # v < iota (a child's label exceeds tau's); None for a deleted edge
        self._witness = [sum(1 << v for v in og.children[t] if v < i)
                         if (t, i) in og.tree else None for t, i in og.edges]
        # 1-cell code -> its flow image as signed generator indices
        # (morse.rewrite_word)
        self.flow_cache: dict[int, tuple[int, ...]] = {}

    # -- codes ---------------------------------------------------------------

    def _parts(self, cell) -> tuple[tuple[int, ...], int] | None:
        """(sorted edge indices, vertex mask) of a valid cell, else None."""
        edges, vertices = cell
        if len(edges) + len(vertices) != self.n:
            return None
        indices, used = [], 0
        for e in edges:
            i = self._edge_index.get(e)
            if i is None or used & self._ends[i]:
                return None
            indices.append(i)
            used |= self._ends[i]
        vmask = 0
        for v in vertices:
            bit = self._bit.get(v)
            if bit is None or (used | vmask) & bit:
                return None
            vmask |= bit
        return tuple(sorted(indices)), vmask

    def _valid_parts(self, cell) -> tuple[tuple[int, ...], int]:
        parts = self._parts(cell)
        if parts is None:
            raise ValidationError(f"{cell} is not a valid {self.n}-particle cell")
        return parts

    def cell_of(self, parts) -> Cell:
        edges, vmask = parts
        vertices = []
        while vmask:
            low = vmask & -vmask
            vertices.append(low.bit_length() - 1)
            vmask ^= low
        return _cell(tuple([self.og.edges[i] for i in edges]), tuple(vertices))

    def encode(self, cell: Cell) -> int:
        """The code of a 1-cell, refusing anything else."""
        edges, vmask = self._valid_parts(cell)
        if len(edges) != 1:
            raise ValidationError(f"{cell} is a {len(edges)}-cell; letters are 1-cells")
        return (edges[0] << self._shift) | vmask

    def decode(self, code: int) -> Cell:
        return self.cell_of(((code >> self._shift,), code & self._vertex_bits))

    @cached_property
    def generators(self) -> list[Cell]:
        """The critical 1-cells in canonical order."""
        return self.critical_cells(1)

    @cached_property
    def generator_index(self) -> dict[int, int]:
        """Code of each critical 1-cell -> its 1-based generator index."""
        return {self.encode(c): i for i, c in enumerate(self.generators, 1)}

    # -- the matching rule, on parts -----------------------------------------

    def _occupied(self, edges, vmask) -> int:
        for e in edges:
            vmask |= self._ends[e]
        return vmask

    def _unblocked(self, vmask: int, occupied: int) -> int:
        """The bit of the lowest vertex of `vmask` that is not blocked when
        `occupied` is, or 0.  A vertex is blocked when its parent is
        occupied, so e(v) would collide; the root always is."""
        block = self._block
        while vmask:
            low = vmask & -vmask
            if not occupied & block[low]:
                return low
            vmask ^= low
        return 0

    def _respected(self, edges, vmask) -> bool:
        """Whether some edge respects the order: a deleted edge never does,
        a tree edge fails when a strictly smaller sibling of iota(e), one of
        its witnesses, is a cell vertex."""
        witness = self._witness
        return any(witness[e] is not None and not vmask & witness[e] for e in edges)

    def _replaced(self, edges, vmask, low: int):
        """The cell with the vertex of bit `low` replaced by its parent edge."""
        e = self._parent_edge[low]
        return tuple(sorted(edges + (e,))), vmask ^ low

    def _match(self, edges, vmask):
        """(kind, partner parts) of a cell: critical with no partner,
        collapsible with its redundant facet, or redundant with the cell
        that replaces its lowest unblocked vertex by the parent edge.  A
        1-cell goes to `match_letter`; a higher cell is collapsible when it
        is the redundant partner of a facet that drops a tree edge e and
        puts back iota(e)."""
        if len(edges) == 1:
            return self.match_letter((edges[0] << self._shift) | vmask)
        occupied = self._occupied(edges, vmask)
        low = self._unblocked(vmask, occupied)
        if not low and not self._respected(edges, vmask):
            return CRITICAL, None
        found = None
        for k, e in enumerate(edges):
            facet = (edges[:k] + edges[k + 1:], vmask | self._iota_bit[e])
            if self._witness[e] is not None and self._match(*facet) == (REDUNDANT, (edges, vmask)):
                if found is not None:
                    raise MatchingError(
                        f"matching not injective: {self.cell_of(found)} and "
                        f"{self.cell_of(facet)} both map to {self.cell_of((edges, vmask))}")
                found = facet
        if found is not None:
            return COLLAPSIBLE, found
        if not low:
            raise MatchingError(
                f"{len(edges)}-cell {self.cell_of((edges, vmask))} is neither "
                "critical, collapsible nor redundant; matching is broken")
        return REDUNDANT, self._replaced(edges, vmask, low)

    def match_letter(self, code: int):
        """`_match` of the 1-cell with this code, the rule stated for a
        single edge e: the only facet that can map onto the cell drops e and
        puts back iota(e), and that facet is a 0-cell, so nothing recurses."""
        e, vmask = code >> self._shift, code & self._vertex_bits
        occupied, block = vmask | self._ends[e], self._block
        low, rest = 0, vmask
        while rest:
            bit = rest & -rest
            if not occupied & block[bit]:
                low = bit
                break
            rest ^= bit
        witness = self._witness[e]
        if not low and (witness is None or vmask & witness):
            return CRITICAL, None
        if witness is not None:
            # the facet drops e and puts back iota(e); it is redundant through
            # iota(e) when that is its lowest unblocked vertex
            iota = self._iota_bit[e]
            facet = rest = vmask | iota
            while rest:
                bit = rest & -rest
                if not facet & block[bit]:
                    if bit == iota:
                        return COLLAPSIBLE, ((), facet)
                    break
                rest ^= bit
        if not low:
            raise MatchingError(f"1-cell {self.decode(code)} is neither critical, "
                                "collapsible nor redundant; matching is broken")
        pe = self._parent_edge[low]
        return REDUNDANT, ((e, pe) if e < pe else (pe, e), vmask ^ low)

    def square(self, parts) -> tuple[int, int, int, int]:
        """The four letters around a square 2-cell, each a 1-cell code or
        its complement for an inverted letter.  With e the edge whose
        (tau, iota) pair is larger and e' the other one, the traversal is
        {e',tau(e)} {e,tau(e')}^-1 {e',iota(e)}^-1 {e,iota(e')}, which is the
        orientation and start corner whose rewritten relators match the
        canonical worked examples letter for letter."""
        (small, big), vmask = parts
        a, b = (small << self._shift) | vmask, (big << self._shift) | vmask
        return (a | self._tau_bit[big], ~(b | self._tau_bit[small]),
                ~(a | self._iota_bit[big]), b | self._iota_bit[small])

    def square_rest(self, code: int, parts) -> tuple[int, int, int]:
        """The letters equal to the redundant 1-cell `code` across its
        matched square `parts`: `square` puts the cell 3rd and inverted when
        its edge is the smaller one, else 4th and positive."""
        a, b, c, d = self.square(parts)
        return (d, a, b) if code >> self._shift == parts[0][0] else (~c, ~b, ~a)

    # -- the rule on cells ---------------------------------------------------

    def is_valid_cell(self, cell: Cell) -> bool:
        return self._parts(cell) is not None

    def is_critical(self, cell: Cell) -> bool:
        edges, vmask = self._valid_parts(cell)
        return (not self._unblocked(vmask, self._occupied(edges, vmask))
                and not self._respected(edges, vmask))

    def classify(self, cell: Cell) -> MorseClass:
        kind, partner = self._match(*self._valid_parts(cell))
        return MorseClass(kind, None if partner is None else self.cell_of(partner))

    # -- enumeration ---------------------------------------------------------

    def _matchings(self, edges, dim: int):
        """Each set of `dim` pairwise disjoint edges out of the edge indices
        `edges`, in order, with the mask of its endpoints."""
        ends = self._ends

        def grow(start, chosen, used):
            if len(chosen) == dim:
                yield chosen, used
                return
            for k in range(start, len(edges)):
                e = edges[k]
                if not used & ends[e]:
                    yield from grow(k + 1, chosen + (e,), used | ends[e])
        return grow(0, (), 0)

    def cells(self, dim: int) -> list[Cell]:
        """All cells of the given dimension, in canonical order."""
        if dim not in (0, 1, 2):
            raise ValueError("only dimensions 0..2 are enumerated")
        if dim > self.n:
            return []
        out = []
        edges = self.og.edges
        for es, used in self._matchings(range(len(edges)), dim):
            free = [v for v, bit in self._bit.items() if not used & bit]
            es = tuple(edges[e] for e in es)
            for vs in combinations(free, self.n - dim):
                out.append(_cell(es, vs))
        return out

    def _blocked_vertex_sets(self, used: int, k: int):
        """The mask of each k-set of vertices outside `used` that are all
        blocked when `used` is occupied.  A vertex is blocked by its parent,
        whose label is smaller, so scanning labels upward and taking each
        vertex that is blocked once occupied reaches every such set once."""
        block, bits = self._block, list(self._bit.values())

        def grow(count, start, vmask, occupied):
            if count == k:
                yield vmask
                return
            for j in range(start, len(bits)):
                bit = bits[j]
                if not occupied & bit and (occupied | bit) & block[bit]:
                    yield from grow(count + 1, j + 1, vmask | bit, occupied | bit)
        return grow(0, 0, 0, used)

    def critical_cells(self, dim: int) -> list[Cell]:
        """The critical cells of the given dimension (any 0 <= dim <= n), in
        canonical order, generated without enumerating the other cells: all
        vertices blocked, and every tree edge (tau, iota) witnessed by a cell
        vertex v with parent(v) = tau and tau < v < iota.  A tree edge whose
        tau has no such child has no witness, so only the deleted edges and
        the other tree edges are matched."""
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        if dim > self.n:
            return []
        edges = [e for e, witness in enumerate(self._witness) if witness != 0]
        out = []
        for es, used in self._matchings(edges, dim):
            for vmask in self._blocked_vertex_sets(used, self.n - dim):
                if not self._respected(es, vmask):
                    out.append(self.cell_of((es, vmask)))
        return out

    # -- boundary ------------------------------------------------------------

    def boundary_codes(self, cell: Cell) -> tuple[int, int, int, int]:
        """The letter codes around a square 2-cell (see `square`)."""
        if cell.dim != 2:
            raise ValueError("boundary words are defined for 2-cells")
        return self.square(self._valid_parts(cell))

    def boundary_word(self, cell: Cell) -> CellWord:
        return tuple((self.decode(x), 1) if x >= 0 else (self.decode(~x), -1)
                     for x in self.boundary_codes(cell))

    # -- falling path ---------------------------------------------------------

    @property
    def base_config(self) -> Config:
        return frozenset(range(1, self.n + 1))

    def path_to_base(self, config) -> CellWord:
        """Word of collapsible 1-cells from the base configuration {1..n} to
        `config`, obtained by reversing the falling path of the matching."""
        config = frozenset(config)
        parts = self._parts(Cell((), config))
        if parts is None:
            raise ValidationError(f"{sorted(config)} is not a configuration")
        vmask = parts[1]
        bound = math.comb(self.og.n, self.n) + 1
        base = (1 << (self.n + 1)) - 2          # vertices 1..n
        falling: list[Letter] = []
        while vmask != base:
            if len(falling) >= bound:
                raise MatchingError("falling path does not reach the base; "
                                    "matching is broken")
            low = self._unblocked(vmask, vmask)
            if not low:
                raise MatchingError(
                    f"configuration {list(self.cell_of(((), vmask)).vertices)} is "
                    "fully blocked but is not the base; the critical 0-cell is not unique")
            falling.append((self.cell_of(self._replaced((), vmask, low)), +1))
            vmask ^= low | self._block[low]
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
        """Full matching audit over the cells of dimension 0-2: every cell
        classifies, a redundant cell and its collapsible partner name each
        other, every configuration falls to the base, and the flow expands
        every redundant 1-cell without returning to it."""
        from .morse import rewrite_word
        self.assert_unique_critical_zero_cell()
        cls = {c: self.classify(c) for d in (0, 1, 2) for c in self.cells(d)}
        back = {REDUNDANT: COLLAPSIBLE, COLLAPSIBLE: REDUNDANT}
        for c, m in cls.items():
            if m.kind in back and m.partner in cls \
                    and cls[m.partner] != MorseClass(back[m.kind], c):
                raise MatchingError(f"{m.kind} cell {c} and its partner "
                                    f"{m.partner} are not matched to each other")
        for c, m in cls.items():
            if c.dim == 0:
                self.path_to_base(c.vertices)
            elif c.dim == 1 and m.kind == REDUNDANT:
                rewrite_word(self, ((c, 1),))
