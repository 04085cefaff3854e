"""Left, right and two-sided Kazhdan-Lusztig cells and cell characters.

The left preorder is generated by w -> y whenever C_y appears in some
C_s C_w; cells are the strongly connected components of that graph (with
its reflexive closure).  Its inverse-conjugated copy (edge w^-1 -> y^-1
for each edge w -> y) gives the right cells, and its union with the
left graph gives the two-sided cells.  The order between the cells of a
partition is reachability in the condensation, closed in one pass over
the components in the order Tarjan's algorithm emits them (each after
every component it reaches); the Hasse diagram is read off the same
reachability sets.

Cell characters come from the quotient module spanned by {C_w : w in the
cell}, with every v^g specialized to 1.  For each generator s, the sparse
rows of T_s are read off the C-basis expansions of C_s C_w that the KL
table derives from its corrections (less the identity when L(s) > 0).
The trace on one representative per conjugacy class gives the character
value: the product along the representative's word is formed on rows
packed into Python ints, one base-2^B digit per entry, with B wide
enough for the product of the generators' row norms.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set, Tuple

from .characters import CharacterTable, decompose
from .coxeter import CoxeterGroup
from .hecke import KLTable


class NonIntegerMultiplicity(ArithmeticError):
    """A cell character whose multiplicities are not all nonnegative
    integers (always an implementation bug, never valid input)."""


class PreorderGraph:
    """Directed graph on W; an edge w -> y means y precedes w."""

    def __init__(self, size, succ):
        self.size: int = size
        self.succ: List[Set[int]] = succ


def left_preorder(table: KLTable) -> PreorderGraph:
    group = table.group
    n = len(group)
    succ: List[Set[int]] = [{w} for w in range(n)]  # reflexive closure
    for s in range(group.rank):
        for w in range(n):
            for y in table.cs_product_in_c(s, w):
                succ[w].add(y)
    return PreorderGraph(n, succ)


def _tarjan_scc(size: int, succ: Sequence[Set[int]]) -> List[List[int]]:
    """Strongly connected components, iterative Tarjan; each component is
    emitted after every component it reaches."""
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if index[u] < 0:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack[u] = True
                    work.append((u, iter(succ[u])))
                    advanced = True
                    break
                if on_stack[u]:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comps.append(sorted(comp))
    return comps


class CellPartition:
    """Blocks of W with the Hasse diagram of the induced partial order:
    ``hasse`` holds the pairs (a, b) where block b is covered by block a
    (b strictly precedes a, with no block between them).
    """

    def __init__(self, blocks, block_of, hasse):
        self.blocks: List[List[int]] = blocks
        self.block_of: List[int] = block_of
        self.hasse: List[Tuple[int, int]] = hasse

    def as_sets(self) -> Set[FrozenSet[int]]:
        return {frozenset(b) for b in self.blocks}


def _canonical_blocks(comps: List[List[int]], size: int):
    blocks = sorted((sorted(c) for c in comps), key=lambda b: b[0])
    block_of = [0] * size
    for i, b in enumerate(blocks):
        for w in b:
            block_of[w] = i
    return blocks, block_of


def _block_order(comps: List[List[int]], block_of: List[int],
                 succ: Sequence[Set[int]]) -> List[Tuple[int, int]]:
    """Hasse diagram between blocks; ``comps`` in the emission order of
    `_tarjan_scc`, so each block's reach is closed in one pass."""
    nb = len(comps)
    direct: List[Set[int]] = [set() for _ in range(nb)]
    for w, ys in enumerate(succ):
        bw = block_of[w]
        for y in ys:
            by = block_of[y]
            if by != bw:
                direct[bw].add(by)
    reach: List[Set[int]] = [set() for _ in range(nb)]
    for comp in comps:
        b = block_of[comp[0]]
        for c in direct[b]:
            reach[b].add(c)
            reach[b] |= reach[c]
    # a covers b iff b is a direct successor that no other direct successor reaches.
    return [(a, b) for a in range(nb) for b in sorted(direct[a])
            if not any(b in reach[c] for c in direct[a])]


def cells(graph: PreorderGraph, kind: str, group: CoxeterGroup) -> CellPartition:
    """Cell partition of the requested kind from the left preorder graph."""
    if kind not in ("left", "right", "two-sided"):
        raise ValueError("kind must be left, right or two-sided")
    succ = graph.succ
    if kind != "left":
        inverted: List[Set[int]] = [set() for _ in range(graph.size)]
        for w, ys in enumerate(graph.succ):
            inverted[group.inv(w)].update(group.inv(y) for y in ys)
        succ = inverted if kind == "right" else [a | b for a, b in zip(succ, inverted)]
    comps = _tarjan_scc(graph.size, succ)
    blocks, block_of = _canonical_blocks(comps, graph.size)
    return CellPartition(blocks, block_of, _block_order(comps, block_of, succ))


class CellCharacter:
    """Integer character of the W-module carried by one left cell."""

    def __init__(self, values, multiplicities):
        self.values: List[int] = values  # per conjugacy class, in class order
        self.multiplicities: List[int] = multiplicities  # per irreducible, in table row order


def left_cell_character(table: KLTable, cell: Sequence[int],
                        chars: CharacterTable) -> CellCharacter:
    """Character of the cell module and its multiplicities in `chars`.

    rows[s][j] lists (i, m): C_(cell[i]) has coefficient m in T_s C_(cell[j])
    at v = 1, i.e. the rows of the transpose N_s of the matrix of T_s.  The
    trace on g = g_1 ... g_n is that of N_(g_n) ... N_(g_1), formed from the
    right; each of its rows is one int whose base-2^B digit i is entry i.
    Every entry is bounded by the product of the row norms of the factors,
    so B = 1 + bit_length(that bound) reads every final digit; the int sums
    are exact, so intermediate digits may pass the bound harmlessly."""
    group = table.group
    pos = {w: i for i, w in enumerate(cell)}
    k = len(cell)
    rows = []
    for s in range(group.rank):
        # T_s = C_s - v^{-L(s)}: subtract the identity part at v=1.
        shift = 1 if table.algebra.positive[s] else 0
        rows_s = []
        for j, w in enumerate(cell):
            row = {j: -shift}
            for y, c in table.cs_product_in_c(s, w).items():
                i = pos.get(y)
                if i is not None:
                    row[i] = row.get(i, 0) + c.evaluate_at_one()
            rows_s.append([(i, m) for i, m in row.items() if m])
        rows.append(rows_s)
    norms = [max(sum(abs(m) for _, m in row) for row in rows_s) for rows_s in rows]
    values = []
    for rep in group.conjugacy_classes().representatives:
        word = group.word(rep)
        bound = 1
        for g in word:
            bound *= norms[g]
        width = 1 + bound.bit_length()
        rho = [1 << (width * i) for i in range(k)]
        for g in word:
            rho = [sum(m * rho[i] for i, m in row) for row in rows[g]]
        # Adding half to every digit makes each one a non-negative base-2^B digit.
        half, mask = 1 << (width - 1), (1 << width) - 1
        offset = half * ((1 << (width * k)) - 1) // mask
        values.append(sum((((r + offset) >> (width * j)) & mask) - half
                          for j, r in enumerate(rho)))
    coeffs, ok = decompose([chars.field.from_fraction(v) for v in values], chars)
    if not ok:
        raise NonIntegerMultiplicity(
            f"cell {sorted(cell)} decomposes with non-integer or negative multiplicities")
    return CellCharacter(values, [int(c.to_fraction()) for c in coeffs])


def check_refinement(left: CellPartition, two_sided: CellPartition
                     ) -> Optional[Tuple[List[int], List[int], List[int]]]:
    """None if every left block sits inside one two-sided block, else the
    violating (left block, first two-sided block, second two-sided block)."""
    for block in left.blocks:
        targets = {two_sided.block_of[w] for w in block}
        if len(targets) > 1:
            ids = sorted(targets)
            return (block, two_sided.blocks[ids[0]], two_sided.blocks[ids[1]])
    return None


def cells_report(table: KLTable, chars: CharacterTable) -> dict:
    """JSON-ready summary: blocks, block order, characters, multiplicities."""
    group = table.group
    graph = left_preorder(table)
    left = cells(graph, "left", group)
    right = cells(graph, "right", group)
    two_sided = cells(graph, "two-sided", group)
    violation = check_refinement(left, two_sided)
    if violation is not None:
        raise AssertionError(f"left cells do not refine two-sided cells: {violation}")

    def blocks_json(p: CellPartition) -> dict:
        return {
            "blocks": [[group.name(w) for w in b] for b in p.blocks],
            "hasse": [[a, b] for a, b in sorted(p.hasse)],
        }

    classes = group.conjugacy_classes()
    doc = {
        "group": table.algebra.header(),
        "key": table.algebra.content_key(),
        "left_cells": blocks_json(left),
        "right_cells": blocks_json(right),
        "two_sided_cells": blocks_json(two_sided),
        "class_representatives": [group.name(r) for r in classes.representatives],
    }
    cell_chars = []
    for i, block in enumerate(left.blocks):
        cc = left_cell_character(table, block, chars)
        cell_chars.append({
            "cell": i,
            "values": {group.name(r): v
                       for r, v in zip(classes.representatives, cc.values)},
            "multiplicities": cc.multiplicities,
        })
    doc["cell_characters"] = cell_chars
    return doc
