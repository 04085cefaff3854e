"""Small helpers over the klcells API that only the tests use."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import klcells
from klcells.characters import CharacterTable
from klcells.cherednik_rank1 import AlgebraElt, CMCellData, Rank1Params
from klcells.coxeter import ConjugacyClasses, CoxeterGroup, WeightFunction
from klcells.cyclotomic import Cyclotomic, CyclotomicField
from klcells.ordered_coeffs import (RATIONAL, LaurentElt, ModeMismatchError,
                                    OrderedExponent)


def longest_element(W: CoxeterGroup) -> int:
    return max(range(len(W)), key=W.length)


def generators(W: CoxeterGroup) -> List[int]:
    return [W.generator(g) for g in range(W.rank)]


def element_by_name(W: CoxeterGroup, text: str) -> int:
    """The element with reduced word `text`, generator names split by
    spaces, or "e"."""
    text = text.strip()
    if text == "e":
        return W.identity
    gen_of = {nm: i for i, nm in enumerate(W.gen_names)}
    return W.element_by_word(gen_of[t] for t in text.split())


def orbit_representatives(W: CoxeterGroup, weights: WeightFunction) -> List[int]:
    """The elements that are the smallest index in their orbit under
    w -> w^-1 and the automorphisms s_1 ... s_k -> pi(s_1) ... pi(s_k) of W,
    for every permutation pi of the generators that keeps each m_st and
    each weight and maps each connected component of the Coxeter graph
    (bonds m_st > 2) to itself: the rows a KL cache writes.  The search
    tries all rank! permutations, so it is for small ranks only."""
    m, rank, n = W.matrix.entries, W.rank, len(W)
    component = []
    for s in range(rank):
        seen, todo = {s}, [s]
        while todo:
            x = todo.pop()
            for t in range(rank):
                if m[x][t] > 2 and t not in seen:
                    seen.add(t)
                    todo.append(t)
        component.append(seen)
    maps = [[W.inv(w) for w in range(n)]]
    for pi in itertools.permutations(range(rank)):
        if (all(pi[s] in component[s] and weights[pi[s]] == weights[s] for s in range(rank))
                and all(m[pi[s]][pi[t]] == m[s][t] for s in range(rank) for t in range(rank))):
            maps.append([W.element_by_word(pi[g] for g in W.word(w)) for w in range(n)])
    root = list(range(n))  # union-find, each root the smallest index of its class

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x
    for g in maps:
        for w in range(n):
            a, b = find(w), find(g[w])
            root[max(a, b)] = min(a, b)
    return [w for w in range(n) if find(w) == w]


def right_descents(W: CoxeterGroup, w: int) -> List[int]:
    return [g for g in range(W.rank) if W.length(W.mul(w, W.generator(g))) < W.length(w)]


def descents(W: CoxeterGroup, w: int, side: str = "left") -> List[int]:
    if side == "left":
        return W.left_descents(w)
    if side == "right":
        return right_descents(W, w)
    raise ValueError("side must be 'left' or 'right'")


def class_members(classes: ConjugacyClasses, cid: int) -> List[int]:
    return classes.blocks[cid]


def reflections(W: CoxeterGroup) -> List[int]:
    """The conjugates of the generators, sorted."""
    classes = W.conjugacy_classes()
    out = set()
    for g in range(W.rank):
        out.update(class_members(classes, classes.class_of[W.generator(g)]))
    return sorted(out)


def lex_generic(rank: int) -> WeightFunction:
    """One independent lex coordinate per generator: fully generic weights."""
    return WeightFunction(tuple(
        OrderedExponent.lex(tuple(1 if j == i else 0 for j in range(rank)))
        for i in range(rank)))


def from_coeffs(field: CyclotomicField, coeffs: Iterable) -> Cyclotomic:
    """sum_i coeffs[i] zeta^i for rationals coeffs, of any length."""
    return sum((field.zeta(i) * Fraction(x) for i, x in enumerate(coeffs)), field.zero())


def from_integers(table: CharacterTable, values: Sequence[int]) -> List[Cyclotomic]:
    return [table.field.from_fraction(v) for v in values]


def regular_character(table: CharacterTable) -> List[Cyclotomic]:
    n = sum(table.classes.sizes)
    return from_integers(table, [n] + [0] * (len(table.classes) - 1))


def trivial_character(table: CharacterTable) -> List[Cyclotomic]:
    return from_integers(table, [1] * len(table.classes))


def laurent_zero(mode: str = RATIONAL, arity: Optional[int] = None) -> LaurentElt:
    return LaurentElt((mode, arity, 1), {})


def laurent_integer(n: int, mode: str = RATIONAL, arity: Optional[int] = None) -> LaurentElt:
    return LaurentElt((mode, arity, 1), {0: int(n)} if n else {})


def laurent_one(mode: str = RATIONAL, arity: Optional[int] = None) -> LaurentElt:
    return laurent_integer(1, mode, arity)


def laurent_from_terms(pairs: Iterable[Tuple[OrderedExponent, int]],
               mode: str = RATIONAL, arity: Optional[int] = None) -> LaurentElt:
    """The sum of coeff * v^exp over `pairs`."""
    pairs = list(pairs)
    if any((e.mode, e.arity) != (mode, arity) for e, _ in pairs):
        raise ModeMismatchError("term exponent does not match element mode")
    grid = OrderedExponent.grid_of(mode, arity, [e for e, _ in pairs])
    acc: dict = {}
    for exp, coeff in pairs:
        key = exp.encode(grid)
        acc[key] = acc.get(key, 0) + int(coeff)
    return LaurentElt(grid, {g: c for g, c in acc.items() if c})


def laurent_terms(x: LaurentElt) -> Iterator[Tuple[OrderedExponent, int]]:
    """(exponent, coefficient) pairs of `x`, lowest exponent first."""
    for g in sorted(x._terms):
        yield OrderedExponent.decode(g, x.grid), x._terms[g]


def laurent_coefficient(x: LaurentElt, exp: OrderedExponent) -> int:
    try:
        return x._terms.get(exp.encode(x.grid), 0)
    except ValueError:  # another exponent group, or off the grid
        return 0


def support_size(x: LaurentElt) -> int:
    return sum(1 for _ in laurent_terms(x))


def epsilon_idempotent(params: Rank1Params, i: int) -> AlgebraElt:
    """eps_i = (1/d) sum_j zeta^{ij} s^j."""
    field = params.field
    terms = {(0, 0, j): field.zeta((i * j) % params.d) / params.d
             for j in range(params.d)}
    return AlgebraElt(params, terms)


def cell_of_exponent(data: CMCellData, j: int) -> int:
    """The index of the cell holding the exponent j of s^j."""
    for idx, block in enumerate(data.cells):
        if j in block:
            return idx
    raise KeyError(j)


def fresh_python(code: str) -> str:
    """The stdout of `code` run by a fresh interpreter that imports klcells
    from this source tree."""
    src = os.path.dirname(os.path.dirname(klcells.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    return run.stdout
