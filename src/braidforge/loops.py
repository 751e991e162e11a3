"""Exchange loops, their Morse images, and physical presentations.

A loop system is a list of loops from two families: a pair exchange at a
tree junction (Y loop, six letters) and a single particle driven around a
simple cycle with all other particles parked (O loop).  The solver expresses
the critical-cell generators of a minimized presentation as words in the
given loops and rewrites all relators through that dictionary.  The two
families do not always suffice: an O loop cannot park a particle on its own
cycle, so a deleted-edge cell with a blocked vertex on that cycle can stay
unsolved (it does on the lasso at n = 2-4, K4 and K5 at n = 2 and theta at
n = 5 with one O loop per deleted edge).  An unsolved generator raises
PhysicalSolveError naming it, with the Y loops that would reach it when there
are any.  One resolver reads every other cell through its Tietze
elimination.  A loop's image is the flow image of the closed loop itself:
the falling path that would base it consists of collapsible cells, which
flow to the empty word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import words as W
from .cells import Cell, CellWord, CubeComplex, letter_endpoints
from .errors import PhysicalSolveError, ValidationError
from .graph import OrderedGraph
from .morse import DEFAULT_MAX_STEPS, MorsePresentation, rewrite_word
from .presentation import FPGroup, TietzeResult, abelianization_rows, in_row_lattice


@dataclass(frozen=True)
class YLoopSpec:
    """Exchange of two particles over the junction above m and n; k sits
    below the junction l, which is inferred as the common tree parent of m
    and n.  Spectators are parked vertices, one per remaining particle."""
    k: int
    m: int
    n: int
    spectators: tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return f"Y({self.k},{self.m},{self.n};{','.join(map(str, sorted(self.spectators)))})"


@dataclass(frozen=True)
class OLoopSpec:
    """One particle around an oriented simple cycle, spectators parked."""
    cycle: tuple[int, ...]
    spectators: tuple[int, ...] = ()

    @property
    def name(self) -> str:
        return f"O({'-'.join(map(str, self.cycle))};{','.join(map(str, sorted(self.spectators)))})"


LoopSpec = YLoopSpec | OLoopSpec


def _spectators(spec: LoopSpec, route, where: str) -> tuple[int, ...]:
    """The spectators, sorted; none may repeat or sit on the loop's route."""
    sv = set(spec.spectators)
    if sv & set(route):
        raise ValidationError(f"{spec.name}: spectators {sorted(sv & set(route))} "
                              f"collide with {where}")
    if len(sv) != len(spec.spectators):
        raise ValidationError(f"{spec.name}: duplicate spectators")
    return tuple(sorted(sv))


def y_loop_word(og: OrderedGraph, spec: YLoopSpec) -> CellWord:
    k, m, n = spec.k, spec.m, spec.n
    l = og.parent.get(m)
    if l is None or og.parent.get(n) != l:
        raise ValidationError(f"{spec.name}: {m} and {n} are not tree siblings; no junction")
    if og.parent.get(l) != k:
        raise ValidationError(f"{spec.name}: {k} is not the tree parent of junction {l}")
    if not (k < l < m < n):
        raise ValidationError(f"{spec.name}: need k < l < m < n, got {k} < {l} < {m} < {n}")
    vs = _spectators(spec, (k, l, m, n), "the junction")
    ekl, elm, eln = (k, l), (l, m), (l, n)
    mk = lambda e, v: Cell((e,), vs + (v,))
    return (
        (mk(eln, k), +1), (mk(elm, k), -1), (mk(ekl, m), -1),
        (mk(eln, m), -1), (mk(elm, n), +1), (mk(ekl, n), +1),
    )


def o_loop_word(og: OrderedGraph, spec: OLoopSpec) -> CellWord:
    cyc = spec.cycle
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValidationError(f"{spec.name}: cycle must be simple with at least 3 vertices")
    vs = _spectators(spec, cyc, "the cycle")
    edge_set = set(og.edges)
    word = []
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        e = (min(a, b), max(a, b))
        if e not in edge_set:
            raise ValidationError(f"{spec.name}: cycle step {a}->{b} is not an edge")
        # positive direction of a 1-cell is iota -> tau
        sign = +1 if a == e[1] else -1
        word.append((Cell((e,), vs), sign))
    return tuple(word)


def loop_word(og: OrderedGraph, spec: LoopSpec) -> CellWord:
    if isinstance(spec, YLoopSpec):
        return y_loop_word(og, spec)
    return o_loop_word(og, spec)


def check_closed(word: CellWord):
    """Every letter must start where the previous one ended, and the word
    must return to its starting configuration."""
    if not word:
        return
    start = letter_endpoints(word[0])[0]
    cur = start
    for letter in word:
        s, e = letter_endpoints(letter)
        if s != cur:
            raise ValidationError(
                f"letters do not chain: expected configuration {sorted(cur)}, "
                f"letter {letter[0]} starts at {sorted(s)}")
        cur = e
    if cur != start:
        raise ValidationError("word is not a closed loop")


def loop_image(cx: CubeComplex, word: CellWord,
               max_steps: int = DEFAULT_MAX_STEPS) -> CellWord:
    """Image of a closed loop in the quotient complex.  Basing the loop
    would conjugate it by the falling path to the base configuration, but
    every letter of that path is a collapsible 1-cell, whose flow image is
    empty, so the loop is rewritten as it stands."""
    check_closed(word)
    return rewrite_word(cx, word, max_steps).output


# ---------------------------------------------------------------------------
# physical presentations


@dataclass
class LoopGenerator:
    name: str
    kind: str                      # "Y" or "O"
    image: tuple[tuple[str, int], ...]   # over critical-cell names


@dataclass
class PhysicalPresentation:
    loops: list[LoopGenerator]
    dictionary: list[tuple[str, tuple[int, ...]]]   # cell name -> loop word
    relators: list[tuple[str, tuple[int, ...]]]     # (origin, loop word)
    group: FPGroup


def _suggest_loops(cx: CubeComplex, cell: Cell) -> list[YLoopSpec]:
    """Y-loop specs whose closed-form image hits the given critical cell."""
    og = cx.og
    (e,) = cell.edges
    if e not in og.tree:
        return []
    l, n_v = e
    k = og.parent.get(l)
    if k is None:
        return []
    out = []
    for m in cell.vertices:
        if og.parent.get(m) == l and m < n_v:
            spect = tuple(v for v in cell.vertices if v != m)
            out.append(YLoopSpec(k, m, n_v, spect))
    return out


def solve_physical_presentation(cx: CubeComplex, minimized: TietzeResult,
                                specs, mp: MorsePresentation,
                                max_steps: int = DEFAULT_MAX_STEPS) -> PhysicalPresentation:
    """Express minimized generators as loop words and rewrite the relators.

    Iteratively picks a loop equation in which exactly one not-yet-solved
    critical cell occurs, solves for it, and substitutes known cells.  The
    remaining relators are the minimized ones, one dependency relator per
    auxiliary solved cell (its eliminating relator), and one defining
    relator per loop equation that was never needed for solving.

    `to_loops` is the one resolver from cell names to loop words: a solved
    name reads its dictionary entry, any other name its Tietze elimination
    expression, resolved in turn and kept in a local memo.  Those names stay
    out of the dictionary, which lists solved cells only."""
    og = cx.og
    loop_gens: list[LoopGenerator] = []
    for spec in specs:
        kind = "Y" if isinstance(spec, YLoopSpec) else "O"
        need = cx.n - (2 if kind == "Y" else 1)
        if need < 0:
            raise ValidationError(f"{spec.name}: a Y loop exchanges two particles; "
                                  f"there is {cx.n}")
        if len(spec.spectators) != need:
            raise ValidationError(f"{spec.name}: a {kind} loop for {cx.n} particles "
                                  f"takes {need} spectators, got {len(spec.spectators)}")
        strays = [v for v in spec.spectators if not 1 <= v <= og.n]
        if strays:
            raise ValidationError(f"{spec.name}: spectators {strays} are not vertices")
        word = loop_word(og, spec)
        img = loop_image(cx, word, max_steps=max_steps)
        loop_gens.append(LoopGenerator(spec.name, kind,
                                       tuple((str(c), s) for c, s in img)))
    names = [lg.name for lg in loop_gens]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate loop specs")

    cell_by_name = {str(c): c for c in mp.generators}
    minimal_gens = list(minimized.group.generators)
    unknowns = set(minimal_gens)
    for lg in loop_gens:
        unknowns.update(name for name, _ in lg.image)

    elim_by_gen = {e.generator: e for e in minimized.eliminations}
    dictionary: dict[str, tuple[int, ...]] = {}
    eliminated: dict[str, tuple[int, ...]] = {}

    def to_loops(named_word) -> tuple[int, ...]:
        out: list[int] = []
        for name, sign in named_word:
            expr = dictionary.get(name)
            if expr is None:
                expr = eliminated.get(name)
                if expr is None:
                    expr = eliminated[name] = to_loops(elim_by_gen[name].expression)
            out.extend(expr if sign > 0 else W.inverse(expr))
        return W.free_reduce(out)

    used = [False] * len(loop_gens)
    progress = True
    while progress:
        progress = False
        for i, lg in enumerate(loop_gens):
            if used[i]:
                continue
            open_pos = [j for j, (name, _) in enumerate(lg.image)
                        if name not in dictionary]
            if len(open_pos) != 1:
                continue
            j = open_pos[0]
            name, sign = lg.image[j]
            pre, post = lg.image[:j], lg.image[j + 1:]
            # pre * c^sign * post = L  =>  c^sign = pre^-1 L post^-1
            loop_letter = (i + 1,)
            expr = W.concat(W.inverse(to_loops(pre)), loop_letter,
                            W.inverse(to_loops(post)))
            dictionary[name] = expr if sign > 0 else W.inverse(expr)
            used[i] = True
            progress = True

    unsolved = sorted(unknowns - set(dictionary),
                      key=lambda nm: cell_by_name[nm].sort_key())
    if unsolved:
        suggestions = []
        for nm in unsolved:
            suggestions.extend(_suggest_loops(cx, cell_by_name[nm]))
        raise PhysicalSolveError(
            "loop system is not invertible; unsolved critical cells: "
            + ", ".join(unsolved)
            + (("; try adding loops " + ", ".join(s.name for s in suggestions))
               if suggestions else ""),
            unsolved=unsolved, suggestions=suggestions)

    relators: list[tuple[str, tuple[int, ...]]] = []

    # minimized relators through the dictionary
    for ri, rel in enumerate(minimized.group.relators):
        origin = minimized.group.provenance[ri] or f"relator {ri + 1}"
        relators.append((f"minimal:{origin}",
                         to_loops(W.labelled(rel, minimized.group.generators))))

    # dependency relators for auxiliary solved cells: every solved name is a
    # Morse generator, so one missing from the minimized group was eliminated
    aux = sorted((nm for nm in dictionary if nm not in minimal_gens),
                 key=lambda nm: cell_by_name[nm].sort_key())
    for nm in aux:
        relators.append((f"dependency:{nm}", to_loops(elim_by_gen[nm].relator)))

    # defining relators for loops never needed by the solver
    for i, lg in enumerate(loop_gens):
        if used[i]:
            continue
        word = W.concat((-(i + 1),), to_loops(lg.image))
        if word:
            relators.append((f"defining:{lg.name}", word))

    group = FPGroup(tuple(names), tuple(w for _, w in relators),
                    tuple(origin for origin, _ in relators))
    pp = PhysicalPresentation(loop_gens, list(dictionary.items()), relators, group)
    _validate_consequences(mp, pp)
    return pp


def _validate_consequences(mp: MorsePresentation, pp: PhysicalPresentation):
    """Physical relators, read back through the loop images, must be
    consequences of the Morse relators: free triviality when the Morse
    presentation is relator-free, abelianized membership otherwise.  One
    lattice comparison checks every relator; only when it fails is each
    checked in turn, to name the first that is not a consequence."""
    index = {str(c): i for i, c in enumerate(mp.generators, 1)}
    images = [tuple(s * index[name] for name, s in lg.image) for lg in pp.loops]

    def image(x):
        return images[x - 1] if x > 0 else W.inverse(images[-x - 1])

    if not mp.relators:
        for origin, rel in pp.relators:
            if W.concat(*map(image, rel)):
                raise PhysicalSolveError(
                    f"physical relator {origin} is not freely trivial over a "
                    "free Morse presentation")
        return
    # exponent sums add up along a word, so a relator's row over the Morse
    # generators is its row over the loops times the loops' image rows: no
    # relator is expanded or freely reduced
    image_rows = abelianization_rows(images)
    vectors = []
    for loop_row in abelianization_rows(rel for _, rel in pp.relators):
        sums = Counter()
        for i, c in loop_row.items():
            for j, s in image_rows[i].items():
                sums[j] += c * s
        vectors.append({j: s for j, s in sums.items() if s})
    rows = abelianization_rows(w for w, _ in mp.relators)
    if in_row_lattice(rows, vectors):
        return
    for (origin, _), vector in zip(pp.relators, vectors):
        if not in_row_lattice(rows, [vector]):
            raise PhysicalSolveError(
                f"physical relator {origin} is not an abelianized consequence "
                "of the Morse relators")
