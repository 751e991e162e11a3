"""Free-group words as tuples of signed 1-based generator indices.

Index i stands for the i-th generator, -i for its inverse.  The empty
tuple is the identity.  All functions are pure; words come back as tuples.
"""

from __future__ import annotations

from operator import add

Word = tuple[int, ...]


def free_reduce(word) -> Word:
    word = tuple(word)
    if 0 not in word and 0 not in map(add, word, word[1:]):
        return word                 # no neighbours cancel: already reduced
    out: list[int] = []
    for x in word:
        if x == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word) -> Word:
    return tuple(-x for x in reversed(word))


def labelled(word, labels) -> tuple:
    """The word as (label, sign) pairs, letter x reading labels[|x| - 1]."""
    return tuple((labels[abs(x) - 1], 1 if x > 0 else -1) for x in word)


def concat(*parts) -> Word:
    out: list[int] = []
    for p in parts:
        out.extend(p)
    return free_reduce(out)


def substitute(word, gen: int, expr) -> Word:
    """Replace every occurrence of generator `gen` by the word `expr`: splice
    `expr` or its inverse into the reduced word at each occurrence, so that
    letters can cancel only at the seams, where two reduced pieces meet."""
    if gen <= 0:
        raise ValueError("gen must be a positive index")
    word, expr = free_reduce(word), free_reduce(expr)
    pieces = {gen: expr, -gen: inverse(expr)}
    cuts = [i for i, x in enumerate(word) if x in pieces]
    out = list(word[:cuts[0]] if cuts else word)
    for i, j in zip(cuts, cuts[1:] + [len(word)]):
        for piece in (pieces[word[i]], word[i + 1:j]):
            k = 0
            while out and k < len(piece) and out[-1] == -piece[k]:
                out.pop()
                k += 1
            out.extend(piece[k:])
    return tuple(out)


def solve_for(relator, gen: int) -> Word:
    """Given relator == 1 containing `gen` exactly once, express gen as a word
    in the other generators: pre gen^s post = 1  =>  gen^s = pre^-1 post^-1."""
    pos = [i for i, x in enumerate(relator) if abs(x) == gen]
    if len(pos) != 1:
        raise ValueError(f"generator {gen} occurs {len(pos)} times, need exactly 1")
    i = pos[0]
    expr = concat(inverse(relator[:i]), inverse(relator[i + 1:]))
    return expr if relator[i] > 0 else inverse(expr)


def cyclic_reduce(word) -> Word:
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def cyclically_equal(a, b, up_to_inversion: bool = False) -> bool:
    """Equality of relators as cyclic words, optionally up to inversion."""
    a = cyclic_reduce(a)
    b = cyclic_reduce(b)
    if len(a) != len(b):
        return False
    if not a:
        return True
    candidates = [a, inverse(a)] if up_to_inversion else [a]
    for c in candidates:
        for i in range(len(c)):
            if c[i:] + c[:i] == b:
                return True
    return False

