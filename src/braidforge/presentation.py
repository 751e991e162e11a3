"""Finitely presented groups: Tietze simplification, abelianization, exact
Smith normal form and first homology."""

from __future__ import annotations

import heapq
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass

from . import words as W


@dataclass
class FPGroup:
    generators: tuple[str, ...]
    relators: tuple[tuple[int, ...], ...]
    provenance: tuple[str | None, ...] = ()

    def __post_init__(self):
        if any(not name for name in self.generators):
            raise ValueError("empty generator name")
        ng = len(self.generators)
        for rel in self.relators:
            for x in rel:
                if x == 0 or abs(x) > ng:
                    raise ValueError(f"relator letter {x} out of range")
        if not self.provenance:
            self.provenance = (None,) * len(self.relators)
        if len(self.provenance) != len(self.relators):
            raise ValueError("provenance length mismatch")

    def word_str(self, word) -> str:
        return W.text(W.labelled(word, self.generators))

    def __str__(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return f"⟨{gens} | {rels}⟩"


def from_morse(mp) -> FPGroup:
    return FPGroup(tuple(str(c) for c in mp.generators),
                   tuple(w for w, _ in mp.relators),
                   tuple(str(src) for _, src in mp.relators))


# ---------------------------------------------------------------------------
# Tietze minimization


@dataclass
class Elimination:
    generator: str
    relator: tuple[tuple[str, int], ...]     # relator used, over generator names
    expression: tuple[tuple[str, int], ...]  # generator = this word


@dataclass
class TietzeResult:
    group: FPGroup
    eliminations: list[Elimination]


def tietze_minimize(p: FPGroup, sizes: dict[str, int] | None = None) -> TietzeResult:
    """Eliminate generators that occur exactly once in some relator.

    Candidates are preferred by largest cell size, then shortest eliminating
    relator, then lowest generator and relator index; this repeats to a
    fixpoint.  Generators and relators keep their input index throughout and
    are renumbered once at the end (input indices sort like renumbered ones,
    so the preference is unaffected).  The elimination log records, per
    removed generator, the relator used and the substituted expression, both
    over generator names.

    Candidates wait on a heap and each generator knows its holders, the
    relators that hold it, so an elimination rewrites only those; a popped
    candidate counts only if its relator still offers it.  Relators empty on
    input are dropped with the first elimination."""
    sizes = sizes or {}
    names = p.generators
    relators = {ri: W.free_reduce(r) for ri, r in enumerate(p.relators)}
    holders, heap = defaultdict(set), []
    live = list(range(1, len(names) + 1))
    log: list[Elimination] = []

    def hold(ri, rel):
        for g, count in Counter(map(abs, rel)).items():
            holders[g].add(ri)
            if count == 1:
                heapq.heappush(heap, (-sizes.get(names[g - 1], 0), len(rel), g, ri))

    for ri, rel in relators.items():
        hold(ri, rel)
    while heap:
        _, length, g, ri = heapq.heappop(heap)
        rel = relators[ri]
        if len(rel) != length or rel.count(g) + rel.count(-g) != 1:
            continue
        expr = W.solve_for(rel, g)
        log.append(Elimination(names[g - 1], W.labelled(rel, names), W.labelled(expr, names)))
        live.remove(g)
        relators[ri] = ()
        for i in holders.pop(g):
            relators[i] = W.substitute(relators[i], g, expr)
            hold(i, relators[i])

    if log:
        relators = {ri: r for ri, r in relators.items() if r}
    index = {g: i for i, g in enumerate(live, 1)}
    group = FPGroup(tuple(names[g - 1] for g in live),
                    tuple(tuple(index[x] if x > 0 else -index[-x] for x in r)
                          for r in relators.values()),
                    tuple(p.provenance[ri] for ri in relators))
    return TietzeResult(group, log)


# ---------------------------------------------------------------------------
# abelianization and Smith normal form


def abelianization_rows(relators) -> list[dict[int, int]]:
    """Relator words as sparse rows {generator column: exponent sum}; zero
    sums are dropped."""
    out = []
    for rel in relators:
        sums = Counter()
        for x in rel:
            sums[abs(x) - 1] += 1 if x > 0 else -1
        out.append({j: s for j, s in sums.items() if s})
    return out


def smith_normal_form(matrix) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix, exactly.

    Rows are dense sequences or sparse {column: value} mappings.  Sparse
    elimination on Python integers (after Dumas, Saunders & Villard,
    JSC 2001): the pivot is a live entry of least absolute value, ties going
    to the least fill (row count - 1) * (column count - 1).  Floor-quotient
    row and column operations clear its column and row; a smaller remainder
    becomes the next pivot.  A lone pivot that does not divide some live
    entry takes that entry's row in; otherwise it retires.  Every later
    entry is a combination of entries it divides, so the retired pivots
    form the divisor chain d1 | d2 | ...

    Candidates wait in a heap keyed (|x|, fill, i, j), pushed on every
    write.  A popped key is dropped when its entry is gone or its |x|
    changed (that write pushed a fresh key), and pushed again when its fill
    changed; a pivot that does not retire goes back.  So the least |x| is
    exact and only the fill tie-break can be stale, which changes the speed
    but not the invariant factors.  The heap empties with the matrix."""
    rows = {i: {j: int(x) for j, x in (row.items() if isinstance(row, dict)
                                        else enumerate(row)) if x}
            for i, row in enumerate(matrix)}
    cols = defaultdict(set)
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)

    def key(i, j):
        return abs(rows[i][j]), (len(rows[i]) - 1) * (len(cols[j]) - 1), i, j

    heap = [key(i, j) for i, row in rows.items() for j in row]
    heapq.heapify(heap)

    def put(i, j, x):
        if x:
            rows[i][j] = x
            cols[j].add(i)
            heapq.heappush(heap, key(i, j))
        else:
            rows[i].pop(j, None)
            cols[j].discard(i)

    def add_row(dst, src, k):         # row dst += k * row src
        for j, x in list(rows[src].items()):
            put(dst, j, rows[dst].get(j, 0) + k * x)

    def add_col(dst, src, k):         # column dst += k * column src
        for i in list(cols[src]):
            put(i, dst, rows[i].get(dst, 0) + k * rows[i][src])

    pivots = []
    while heap:
        size, _, r, c = popped = heapq.heappop(heap)
        p = rows.get(r, {}).get(c)
        if p is None or abs(p) != size:
            continue
        if popped != key(r, c):
            heapq.heappush(heap, key(r, c))
            continue
        for i in list(cols[c] - {r}):
            add_row(i, r, -(rows[i][c] // p))
        for j in list(rows[r].keys() - {c}):
            add_col(j, c, -(rows[r][j] // p))
        if len(rows[r]) == 1 and len(cols[c]) == 1:
            bad = None if size == 1 else next(
                (i for i, row in rows.items() if any(x % p for x in row.values())), None)
            if bad is None:
                pivots.append(size)
                del rows[r], cols[c]
                continue
            add_row(r, bad, 1)
        heapq.heappush(heap, key(r, c))
    return tuple(pivots)


def in_row_lattice(rows, vectors) -> bool:
    """Is every vector an integer combination of `rows`?

    Rows and vectors are dense sequences or sparse {column: value} mappings,
    as `smith_normal_form` reads them.  L(A) lies in L(A) + L(V).  When
    appending the vectors as rows keeps the rank, the index of L(A) in
    L(A) + L(V) is prod d(A) / prod d(A; V) over the invariant factors, so
    every vector is a member exactly when they do not change."""
    rows = list(rows)
    return smith_normal_form(rows) == smith_normal_form(rows + list(vectors))


# ---------------------------------------------------------------------------
# homology


@dataclass(frozen=True)
class HomologyClass:
    free_rank: int
    torsion: tuple[int, ...]

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        groups: dict[int, int] = {}
        for d in self.torsion:
            groups[d] = groups.get(d, 0) + 1
        for d in sorted(groups):
            c = groups[d]
            parts.append(f"Z_{d}" if c == 1 else f"Z_{d}^{c}")
        return " (+) ".join(parts) if parts else "0"


def homology_h1(p: FPGroup, warn_unexpected_torsion: bool = False) -> HomologyClass:
    """Cokernel of the abelianization matrix as free rank plus torsion."""
    factors = smith_normal_form(abelianization_rows(p.relators))
    torsion = tuple(d for d in factors if d > 1)
    if warn_unexpected_torsion and any(d != 2 for d in torsion):
        warnings.warn(f"unexpected torsion factors {torsion}; graph pipelines "
                      "should only produce Z_2 torsion", stacklevel=2)
    return HomologyClass(len(p.generators) - len(factors), torsion)
