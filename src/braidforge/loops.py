"""Exchange loops, their Morse images, and physical presentations.

Two families of loops generate everything of physical interest: a pair
exchange at a tree junction (Y loop, six letters) and a single particle
driven around a simple cycle with all other particles parked (O loop).  The
solver expresses the critical-cell generators of a minimized presentation as
words in such loops and rewrites all relators through that dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words as W
from .cells import Cell, CellWord, CubeComplex, inverse_word, letter_endpoints
from .errors import PhysicalSolveError, ValidationError
from .graph import OrderedGraph
from .morse import DEFAULT_MAX_STEPS, MorsePresentation, rewrite_word
from .presentation import (FPGroup, TietzeResult, _named, abelianization_matrix,
                           from_morse, in_row_lattice, named_word_to_indices)


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


def y_loop_word(og: OrderedGraph, spec: YLoopSpec) -> CellWord:
    k, m, n = spec.k, spec.m, spec.n
    l = og.parent.get(m)
    if l is None or og.parent.get(n) != l:
        raise ValidationError(f"{m} and {n} are not tree siblings; no junction")
    if og.parent.get(l) != k:
        raise ValidationError(f"{k} is not the tree parent of junction {l}")
    if not (k < l < m < n):
        raise ValidationError(f"need k < l < m < n, got {k} < {l} < {m} < {n}")
    sv = set(spec.spectators)
    if sv & {k, l, m, n}:
        raise ValidationError(f"spectators {sorted(sv & {k, l, m, n})} collide with the junction")
    if len(sv) != len(spec.spectators):
        raise ValidationError("duplicate spectators")
    ekl, elm, eln = (k, l), (l, m), (l, n)
    vs = tuple(sorted(sv))
    mk = lambda e, v: Cell((e,), vs + (v,))
    word = (
        (mk(eln, k), +1), (mk(elm, k), -1), (mk(ekl, m), -1),
        (mk(eln, m), -1), (mk(elm, n), +1), (mk(ekl, n), +1),
    )
    return word


def o_loop_word(og: OrderedGraph, spec: OLoopSpec) -> CellWord:
    cyc = spec.cycle
    if len(cyc) < 3 or len(set(cyc)) != len(cyc):
        raise ValidationError("cycle must be simple with at least 3 vertices")
    sv = set(spec.spectators)
    if sv & set(cyc):
        raise ValidationError(f"spectators {sorted(sv & set(cyc))} collide with the cycle")
    if len(sv) != len(spec.spectators):
        raise ValidationError("duplicate spectators")
    edge_set = set(og.edges)
    vs = tuple(sorted(sv))
    word = []
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        e = (min(a, b), max(a, b))
        if e not in edge_set:
            raise ValidationError(f"cycle step {a}->{b} is not an edge")
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
    """Image of a closed loop in the quotient complex: conjugate to the base
    configuration along the falling path, then rewrite."""
    check_closed(word)
    path = cx.path_to_base(letter_endpoints(word[0])[0]) if word else ()
    return rewrite_word(cx, path + tuple(word) + inverse_word(path), max_steps).output


# ---------------------------------------------------------------------------
# physical presentations


@dataclass
class LoopGenerator:
    spec: LoopSpec
    name: str
    kind: str                      # "Y" or "O"
    image: tuple[tuple[str, int], ...]   # over critical-cell names


@dataclass
class PhysicalPresentation:
    loops: list[LoopGenerator]
    dictionary: list[tuple[str, tuple[int, ...]]]   # cell name -> loop word
    relators: list[tuple[str, tuple[int, ...]]]     # (origin, loop word)
    group: FPGroup

    @property
    def loop_names(self) -> list[str]:
        return [lg.name for lg in self.loops]

    def word_str(self, word) -> str:
        return self.group.word_str(word)


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
        if og.parent.get(m) == l and k < l < m < n_v:
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
    relator per loop equation that was never needed for solving."""
    og = cx.og
    loop_gens: list[LoopGenerator] = []
    for spec in specs:
        kind = "Y" if isinstance(spec, YLoopSpec) else "O"
        need = cx.n - (2 if kind == "Y" else 1)
        if len(spec.spectators) != need:
            raise ValidationError(f"{spec.name}: a {kind} loop for {cx.n} particles "
                                  f"takes {need} spectators, got {len(spec.spectators)}")
        strays = [v for v in spec.spectators if not 1 <= v <= og.n]
        if strays:
            raise ValidationError(f"{spec.name}: spectators {strays} are not vertices")
        word = loop_word(og, spec)
        img = loop_image(cx, word, max_steps=max_steps)
        loop_gens.append(LoopGenerator(spec, spec.name,
                                       kind, tuple((str(c), s) for c, s in img)))
    names = [lg.name for lg in loop_gens]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate loop specs")

    cell_by_name = {str(c): c for c in mp.generators}
    minimal_gens = list(minimized.group.generators)
    unknowns = set(minimal_gens)
    for lg in loop_gens:
        unknowns.update(name for name, _ in lg.image)

    dictionary: dict[str, tuple[int, ...]] = {}
    dict_order: list[str] = []

    def to_loops(named_word) -> tuple[int, ...]:
        out: list[int] = []
        for name, sign in named_word:
            expr = dictionary[name]
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
            if sign < 0:
                expr = W.inverse(expr)
            dictionary[name] = expr
            dict_order.append(name)
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
                         to_loops(_named(rel, minimized.group.generators))))

    # dependency relators for auxiliary solved cells
    elim_by_gen = {e.generator: e for e in minimized.eliminations}
    aux = [nm for nm in dict_order if nm not in minimal_gens]
    aux.sort(key=lambda nm: cell_by_name[nm].sort_key())
    for nm in aux:
        elim = elim_by_gen.get(nm)
        if elim is None:
            continue
        rel = _expand_to_known(elim.relator, elim_by_gen, set(dictionary))
        relators.append((f"dependency:{nm}", to_loops(rel)))

    # defining relators for loops never needed by the solver
    for i, lg in enumerate(loop_gens):
        if used[i]:
            continue
        word = W.concat((-(i + 1),), to_loops(lg.image))
        if word:
            relators.append((f"defining:{lg.name}", word))

    group = FPGroup(tuple(names), tuple(w for _, w in relators),
                    tuple(origin for origin, _ in relators))
    pp = PhysicalPresentation(loop_gens, [(nm, dictionary[nm]) for nm in dict_order],
                              relators, group)
    _validate_consequences(mp, pp)
    return pp


def _expand_to_known(named_word, elim_by_gen, known: set[str]):
    """Rewrite eliminated generators that are not in the dictionary through
    their elimination expressions until only known names remain."""
    word = list(named_word)
    for _ in range(1 + len(elim_by_gen)):
        todo = [nm for nm, _ in word if nm not in known]
        if not todo:
            return tuple(word)
        out = []
        for nm, sign in word:
            if nm in known or nm not in elim_by_gen:
                out.append((nm, sign))
                continue
            expr = elim_by_gen[nm].expression
            out.extend(expr if sign > 0 else
                       tuple((m, -s) for m, s in reversed(expr)))
        word = out
    raise PhysicalSolveError("could not expand dependency relator to known cells")


def _validate_consequences(mp: MorsePresentation, pp: PhysicalPresentation):
    """Physical relators, read back through the loop images, must be
    consequences of the Morse relators: abelianized membership always, free
    triviality when the Morse presentation is relator-free."""
    morse_fp = from_morse(mp)
    matrix = abelianization_matrix(morse_fp)
    images = [named_word_to_indices(lg.image, morse_fp.generators)
              for lg in pp.loops]
    for origin, rel in pp.relators:
        expanded: list[int] = []
        for x in rel:
            img = images[abs(x) - 1]
            expanded.extend(img if x > 0 else W.inverse(img))
        reduced = W.free_reduce(expanded)
        if not morse_fp.relators:
            if reduced:
                raise PhysicalSolveError(
                    f"physical relator {origin} is not freely trivial over a "
                    "free Morse presentation")
            continue
        vec = W.exponent_sums(reduced, len(morse_fp.generators))
        if not in_row_lattice(matrix, vec):
            raise PhysicalSolveError(
                f"physical relator {origin} is not an abelianized consequence "
                "of the Morse relators")
