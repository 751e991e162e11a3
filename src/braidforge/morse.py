"""Word rewriting through the Morse matching and presentation assembly.

The discrete gradient flow is a homomorphism of free groups: a critical
1-cell maps to itself, a collapsible one to the empty word, and a redundant
one to the image of the rest of the boundary square it is matched with.
The image of a word is the free reduction of its letters' images.  The flow
runs on the complex's integer codes (see `cells`): a letter is a 1-cell code
or its complement, and an image is a word of signed generator indices, the
critical 1-cells numbered in canonical order.  Every 1-cell's image is
computed once per complex and kept in the complex's `flow_cache`, keyed by
code, the one memo on the rewrite path, so every relator, loop image and
stability lift shares it; a cell is classified only when it first enters
that memo.  A redundant cell's image is that of the rest of its square,
which `CubeComplex.square_rest` gives.  Cells are decoded only for the
trace, the output and errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import words as W
from .cells import COLLAPSIBLE, CRITICAL, REDUNDANT, Cell, CellWord, CubeComplex, word_str
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
    indices: tuple[int, ...] = ()   # the output as signed generator indices


def index_word_to_cells(word, generators: list[Cell]) -> CellWord:
    return tuple((generators[abs(x) - 1], 1 if x > 0 else -1) for x in word)


def rewrite_word(cx: CubeComplex, word, max_steps: int = DEFAULT_MAX_STEPS) -> RewriteTrace:
    """Reduce `word` to the invariant word over critical 1-cells.  The trace
    holds the move applied to each input letter and each free cancellation
    of the final reduction; `max_steps` bounds the redundant cells whose
    image this call has to expand."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be at least 0, got {max_steps}")
    trace = RewriteTrace(input=tuple(word), output=())
    letters = [cx.encode(cell) if sign > 0 else ~cx.encode(cell)
               for cell, sign in trace.input]
    cache, index, match = cx.flow_cache, cx.generator_index, cx.match_letter
    for j, ((cell, _), x) in enumerate(zip(trace.input, letters)):
        kind, tau = match(x if x >= 0 else ~x)
        if kind == COLLAPSIBLE:
            trace.steps.append(RewriteStep("collapse", j, (cell,)))
        elif kind == REDUNDANT:
            trace.steps.append(RewriteStep("simple_homotopy", j, (cell, cx.cell_of(tau))))

    # Redundant cells are expanded depth first on an explicit stack of frames
    # [code, whether it is read positively, letters of its square still to
    # read, its image so far], not by recursion, so a flow line of any
    # length fits.  The bottom frame reads the input word.
    images: list[int] = []
    stack = [[None, True, iter(letters), images]]
    open_codes: set[int] = set()
    expansions = 0
    square_rest = cx.square_rest
    while stack:
        frame = stack[-1]
        out = frame[3]
        for x in frame[2]:
            code = x if x >= 0 else ~x
            got = cache.get(code)
            if got is None:
                kind, tau = match(code)
                if kind == REDUNDANT:
                    if code in open_codes:
                        raise MatchingError(
                            f"the matching flow returns to {cx.decode(code)} while "
                            "expanding it; the matching has a cycle")
                    expansions += 1
                    if expansions > max_steps:
                        raise RewriteLimitError(
                            f"rewriting exceeded the bound of {max_steps} flow "
                            "expansions (raise --max-steps only if you are sure)")
                    open_codes.add(code)
                    stack.append([code, x >= 0, iter(square_rest(code, tau)), []])
                    break
                if kind == CRITICAL and code not in index:
                    raise MatchingError(f"critical cell {cx.decode(code)} is not "
                                        "among the generated critical cells")
                got = cache[code] = (index[code],) if kind == CRITICAL else ()
            if got:
                out.extend(got if x >= 0 else [-y for y in got[::-1]])
        else:
            stack.pop()
            if frame[0] is not None:
                open_codes.discard(frame[0])
                got = cache[frame[0]] = W.free_reduce(out)
                stack[-1][3].extend(got if frame[1] else [-y for y in got[::-1]])

    generators = cx.generators
    reduced: list[int] = []
    for x in images:
        if reduced and reduced[-1] == -x:
            reduced.pop()
            trace.steps.append(RewriteStep("free_cancel", len(reduced),
                                           (generators[abs(x) - 1],)))
        else:
            reduced.append(x)
    trace.indices = tuple(reduced)
    trace.output = index_word_to_cells(reduced, generators)
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
        return index_word_to_cells(word, self.generators)


def morse_presentation(cx: CubeComplex, max_steps: int = DEFAULT_MAX_STEPS) -> MorsePresentation:
    """Generators are the critical 1-cells; every critical 2-cell contributes
    its rewritten boundary word as a relator."""
    if max_steps < 0:
        raise ValidationError(f"max_steps must be at least 0, got {max_steps}")
    cx.assert_unique_critical_zero_cell()
    generators = list(cx.generators)
    relators = [(rewrite_word(cx, cx.boundary_word(tau), max_steps).indices, tau)
                for tau in cx.critical_cells(2)]
    return MorsePresentation(generators, relators)
