"""Word rewriting through the Morse matching and presentation assembly.

The discrete gradient flow is a homomorphism of free groups: a critical
1-cell maps to itself, a collapsible one to the empty word, and a redundant
one to the image of the rest of the boundary square it is matched with.
The image of a word is the free reduction of its letters' images.  Every
1-cell's image is computed once per complex and kept in the complex's
`flow_cache`, the one memo on the rewrite path, so every relator, loop image
and stability lift shares it; a cell is classified only when it first
enters that memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cells import (COLLAPSIBLE, CRITICAL, REDUNDANT, Cell, CellWord,
                    CubeComplex, inverse_word, word_str)
from .errors import MatchingError, RewriteLimitError, ValidationError

DEFAULT_MAX_STEPS = 10**6


@dataclass
class RewriteStep:
    move: str                   # free_cancel | collapse | simple_homotopy
    position: int
    cells: tuple[Cell, ...]


@dataclass
class RewriteTrace:
    input: CellWord
    output: CellWord
    steps: list[RewriteStep] = field(default_factory=list)


def _free_reduce(letters, steps: list[RewriteStep] | None = None) -> CellWord:
    out: list = []
    for c, s in letters:
        if out and out[-1] == (c, -s):
            out.pop()
            if steps is not None:
                steps.append(RewriteStep("free_cancel", len(out), (c,)))
        else:
            out.append((c, s))
    return tuple(out)


def _square_rest(cx: CubeComplex, sigma: Cell, tau: Cell) -> CellWord:
    """The word equal to sigma across its matched square tau."""
    boundary = cx.boundary_word(tau)
    occ = [i for i, (c, _) in enumerate(boundary) if c == sigma]
    if len(occ) != 1:
        raise MatchingError(
            f"{sigma} occurs {len(occ)} times in the boundary of its "
            f"matched 2-cell {tau}")
    i = occ[0]
    rest = boundary[i + 1:] + boundary[:i]
    # sigma^eps * rest is null-homotopic, so sigma = rest^(-eps)
    return rest if boundary[i][1] < 0 else inverse_word(rest)


def rewrite_word(cx: CubeComplex, word, max_steps: int = DEFAULT_MAX_STEPS) -> RewriteTrace:
    """Reduce `word` to the invariant word over critical 1-cells.  The trace
    holds the move applied to each input letter and each free cancellation
    of the final reduction; `max_steps` bounds the redundant cells whose
    image this call has to expand."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be at least 0, got {max_steps}")
    expansions = 0
    open_cells: set[Cell] = set()

    def expand(letters, out: list):
        """Append the images of `letters` to `out`.  Redundant cells are
        expanded depth first on an explicit stack of frames (cell, its sign,
        letters of its square still to read, its image so far), not by
        recursion, so a flow line of any length fits."""
        nonlocal expansions
        stack = [(None, 1, iter(letters), out)]
        while stack:
            top, top_sign, letters, out = stack[-1]
            for cell, sign in letters:
                got = cx.flow_cache.get(cell)
                if got is None:
                    cls = cx.classify(cell)
                    if cls.kind == REDUNDANT:
                        if cell in open_cells:
                            raise MatchingError(
                                f"the matching flow returns to {cell} while expanding "
                                "it; the matching has a cycle")
                        expansions += 1
                        if expansions > max_steps:
                            raise RewriteLimitError(
                                f"rewriting exceeded the bound of {max_steps} flow "
                                "expansions (raise --max-steps only if you are sure)")
                        open_cells.add(cell)
                        stack.append((cell, sign, iter(_square_rest(cx, cell, cls.partner)), []))
                        break
                    got = cx.flow_cache[cell] = ((cell, 1),) if cls.kind == CRITICAL else ()
                out.extend(got if sign > 0 else inverse_word(got))
            else:
                stack.pop()
                if top is not None:
                    open_cells.discard(top)
                    got = cx.flow_cache[top] = _free_reduce(out)
                    stack[-1][3].extend(got if top_sign > 0 else inverse_word(got))

    trace = RewriteTrace(input=tuple(word), output=())
    images = []
    for j, (cell, sign) in enumerate(trace.input):
        cls = cx.classify(cell)
        if cls.kind == COLLAPSIBLE:
            trace.steps.append(RewriteStep("collapse", j, (cell,)))
        elif cls.kind == REDUNDANT:
            trace.steps.append(RewriteStep("simple_homotopy", j, (cell, cls.partner)))
        expand(((cell, sign),), images)
    trace.output = _free_reduce(images, trace.steps)
    return trace


@dataclass
class MorsePresentation:
    generators: list[Cell]                      # critical 1-cells, canonical order
    relators: list[tuple[tuple[int, ...], Cell]]  # (signed index word, source 2-cell)

    def __str__(self) -> str:
        gens = ", ".join(map(str, self.generators))
        rels = ", ".join(word_str(self.index_word_to_cells(w)) for w, _ in self.relators)
        return f"⟨{gens} | {rels}⟩"

    def index_word_to_cells(self, word) -> CellWord:
        return tuple((self.generators[abs(x) - 1], 1 if x > 0 else -1) for x in word)


def cell_word_to_indices(word: CellWord, generators: list[Cell]) -> tuple[int, ...]:
    index = {c: i + 1 for i, c in enumerate(generators)}
    out = []
    for c, s in word:
        if c not in index:
            raise MatchingError(f"{c} is not a critical generator")
        out.append(s * index[c])
    return tuple(out)


def morse_presentation(cx: CubeComplex, max_steps: int = DEFAULT_MAX_STEPS) -> MorsePresentation:
    """Generators are the critical 1-cells; every critical 2-cell contributes
    its rewritten boundary word as a relator."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be at least 0, got {max_steps}")
    cx.assert_unique_critical_zero_cell()
    generators = cx.critical_cells(1)
    relators = []
    for tau in cx.critical_cells(2):
        reduced = rewrite_word(cx, cx.boundary_word(tau), max_steps).output
        relators.append((cell_word_to_indices(reduced, generators), tau))
    return MorsePresentation(generators, relators)
