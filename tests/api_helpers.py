"""Small helpers over the klcells API that only the tests use."""

from typing import List

from klcells.characters import CharacterTable
from klcells.cherednik_rank1 import AlgebraElt, CMCellData, Rank1Params
from klcells.coxeter import CoxeterGroup, WeightFunction
from klcells.cyclotomic import Cyclotomic
from klcells.ordered_coeffs import LaurentElt, OrderedExponent


def longest_element(W: CoxeterGroup) -> int:
    return max(range(len(W)), key=W.length)


def reflections(W: CoxeterGroup) -> List[int]:
    """The conjugates of the generators, sorted."""
    classes = W.conjugacy_classes()
    out = set()
    for g in range(W.rank):
        out.update(classes.class_members(classes.class_of[W.generator(g)]))
    return sorted(out)


def lex_generic(rank: int) -> WeightFunction:
    """One independent lex coordinate per generator: fully generic weights."""
    return WeightFunction(tuple(
        OrderedExponent.lex(tuple(1 if j == i else 0 for j in range(rank)))
        for i in range(rank)))


def regular_character(table: CharacterTable) -> List[Cyclotomic]:
    n = sum(table.classes.sizes)
    return table.from_integers([n] + [0] * (len(table.classes) - 1))


def trivial_character(table: CharacterTable) -> List[Cyclotomic]:
    return table.from_integers([1] * len(table.classes))


def support_size(x: LaurentElt) -> int:
    return sum(1 for _ in x.terms())


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
