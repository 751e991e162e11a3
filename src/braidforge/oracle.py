"""Brute-force fundamental-group presentation of the 2-skeleton.

Independent of the Morse machinery: pick a breadth-first spanning tree of the
1-skeleton, let every 1-cell outside it generate, and relate along every
2-cell boundary.  Used to cross-check abelianizations and loop classes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cells import Cell, CubeComplex, letter_endpoints
from .errors import ValidationError
from .presentation import FPGroup
from .words import free_reduce


@dataclass
class SkeletonPresentation:
    group: FPGroup
    generator_cells: list[Cell]
    tree_cells: set[Cell]


def skeleton_presentation(cx: CubeComplex) -> SkeletonPresentation:
    zero = cx.cells(0)
    one = cx.cells(1)
    two = cx.cells(2)

    # built from the 1-cells in canonical order, so each list is in it too
    adjacency: dict[frozenset, list[tuple[frozenset, Cell]]] = {
        frozenset(c.vertices): [] for c in zero}
    for c in one:
        up, dn = letter_endpoints((c, +1))
        adjacency[up].append((dn, c))
        adjacency[dn].append((up, c))

    base = cx.base_config
    seen = {base}
    tree_cells: set[Cell] = set()
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for v, cell in adjacency[u]:
            if v not in seen:
                seen.add(v)
                tree_cells.add(cell)
                queue.append(v)
    if len(seen) != len(zero):
        raise ValidationError("1-skeleton is disconnected; cannot present")

    generator_cells = [c for c in one if c not in tree_cells]
    # letter code -> generator index; spanning-tree letters have none
    index = {cx.encode(c): i + 1 for i, c in enumerate(generator_cells)}

    relators = []
    provenance = []
    for tau in two:
        # free reduction only; these are raw boundary relators
        reduced = free_reduce(index[x] if x >= 0 else -index[~x]
                              for x in cx.boundary_codes(tau) if (x if x >= 0 else ~x) in index)
        if reduced:
            relators.append(reduced)
            provenance.append(str(tau))

    group = FPGroup(tuple(str(c) for c in generator_cells),
                    tuple(relators), tuple(provenance))
    return SkeletonPresentation(group, generator_cells, tree_cells)
