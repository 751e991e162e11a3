"""Adding a particle: the cell/word lifting map and the stabilization report.

A critical cell at level N lifts to level N+1 by adjoining the smallest
vertex that keeps it critical.  Lifted boundary relators must recompute
verbatim at the higher level; the report checks that identity directly and
tracks which relators are genuinely new at each level.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .cells import Cell, CellWord, CubeComplex
from .errors import MatchingError, ValidationError
from .graph import OrderedGraph, check_subdivision
# rewrite_word is not called here, but perfbench/tests expects it in this namespace
from .morse import MorsePresentation, morse_presentation, rewrite_word  # noqa: F401
from .presentation import from_morse, homology_h1, tietze_minimize


def plus_cell(cx_next: CubeComplex, cell: Cell) -> Cell:
    """Smallest-vertex critical extension of a critical cell one level up."""
    for v in range(1, cx_next.og.n + 1):
        candidate = Cell(cell.edges, cell.vertices + (v,))
        if v in cell.vertices or not cx_next.is_valid_cell(candidate):
            continue
        if cx_next.is_critical(candidate):
            return candidate
    raise ValidationError(
        f"no vertex extends {cell} to a critical cell at {cx_next.n} particles; "
        "subdivision is too tight")


def plus_word(cx_next: CubeComplex, word: CellWord) -> CellWord:
    return tuple((plus_cell(cx_next, c), s) for c, s in word)


def critical_cell_size(og: OrderedGraph, cell: Cell) -> int:
    """Number of the cell's vertices in the subtree below tau(e), 0 when tau
    is the root; drives the elimination preference.  A parent's label is
    smaller, so a vertex below tau climbs to tau before any smaller label."""
    (e,) = cell.edges
    tau = e[0]
    if tau == og.root:
        return 0
    count = 0
    for v in cell.vertices:
        while v > tau:
            v = og.parent[v]
        if v == tau:
            count += 1
    return count


def minimize_morse(og: OrderedGraph, mp: MorsePresentation):
    """Tietze-minimize a Morse presentation toward the homology target."""
    fp = from_morse(mp)
    h1 = homology_h1(fp)
    target = h1.free_rank + len(h1.torsion)
    sizes = {str(c): critical_cell_size(og, c) for c in mp.generators}
    return tietze_minimize(fp, target=target, sizes=sizes), h1


@dataclass
class StabilityRow:
    n: int
    generators: int
    relators: int
    new_relators: int | None        # None for the first row
    lifting_ok: bool | None         # check for the step (n-1) -> n
    minimized_generators: int
    h1: str


@dataclass
class StabilityReport:
    rows: list[StabilityRow] = field(default_factory=list)
    generator_correspondence: dict[int, list[tuple[str, str]]] = field(default_factory=dict)

    def stabilized(self) -> bool:
        return bool(self.rows) and self.rows[-1].new_relators == 0


def stability_report(og: OrderedGraph, n_lo: int, n_hi: int) -> StabilityReport:
    if n_lo < 1 or n_hi < n_lo:
        raise ValidationError("need 1 <= n_lo <= n_hi")
    check_subdivision(og.source, n_hi).require()
    if not og.is_two_connected():
        warnings.warn("graph is not 2-connected; generator counts need not "
                      "stabilize", stacklevel=2)

    report = StabilityReport()
    mp_prev: MorsePresentation | None = None
    for n in range(n_lo, n_hi + 1):
        cx = CubeComplex(og, n)
        mp = morse_presentation(cx)
        minimized, h1 = minimize_morse(og, mp)
        new_count = None
        lifting_ok = None
        if mp_prev is not None:
            lifting_ok = True
            lifts = [plus_cell(cx, c) for c in mp_prev.generators]
            # a generator index one level down -> the index of its lift
            lift = [0] + [cx.generator_index[cx.encode(c)] for c in lifts]
            relator_of = {tau: w for w, tau in mp.relators}
            lifted_relators = set()
            for word, tau in mp_prev.relators:
                tau_plus = plus_cell(cx, tau)
                lifted = tuple(lift[x] if x > 0 else -lift[-x] for x in word)
                if relator_of[tau_plus] != lifted:
                    raise MatchingError(
                        f"boundary word of {tau_plus} does not equal the lift "
                        f"of the boundary word of {tau}")
                lifted_relators.add(lifted)
            report.generator_correspondence[n] = [
                (str(c), str(d)) for c, d in zip(mp_prev.generators, lifts)]
            new_count = len(set(relator_of.values()) - lifted_relators)
        report.rows.append(StabilityRow(
            n=n, generators=len(mp.generators), relators=len(mp.relators),
            new_relators=new_count, lifting_ok=lifting_ok,
            minimized_generators=len(minimized.group.generators),
            h1=str(h1)))
        mp_prev = mp
    return report
