"""Left, right and two-sided Kazhdan-Lusztig cells and cell characters.

The left preorder is generated by w -> y whenever C_y appears in some
C_s C_w; cells are the strongly connected components of that graph (with
its reflexive closure).  Its inverse-conjugated copy (edge w^-1 -> y^-1
for each edge w -> y) is the right graph, so the right cells and their
order are the left ones relabelled by w -> w^-1, and its union with the
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
value: the products along the representatives' words grow along their
common prefixes, on rows packed into Python ints, one base-2^B digit per
entry, with one B per cell wide enough for the product of the
generators' row norms along any of the words.  The multiplicities are
decomposed from the integer values without leaving the ints
(`characters.integer_multiplicities`).

`cells_report` builds every left cell's rows, then computes a character
once per orbit of the left cells under three kinds of map: the right
star operations w -> w* of each s, t with m_st = 3 and L(s), L(t) > 0,
the diagram automorphisms sigma of the table (s -> sigma s), and
w -> w w0.  Kazhdan and Lusztig (Representations of Coxeter groups and
Hecke algebras, 1979, Thm 4.2 and Cor 4.3) show that a star operation
carries a left cell to one with an isomorphic W-graph, and right
multiplication by w0 reverses the left preorder (Lusztig, Hecke algebras
with unequal parameters, ch. 11), so it carries a left cell to a left
cell.  But the rows decide: a cell takes the values of the cell it is
reached from (read at the classes of sigma^-1(g) for sigma, and as
(-1)^l(g) times the value at g^-1 for w w0) only when its rows equal
that cell's rows, entry for entry, under the map (transposed, with
signs, for w w0); otherwise it is computed directly.  Of the left cells
of A4, D4, B4 (1,1,1,2), A5, F4, F4 (1,1,2,2), F4 lex, B5 (1,1,1,1,2)
and A6, that leaves 4 of 26, 5 of 36, 13 of 58, 6 of 76, 10 of 72, 21
of 92, 25 of 112, 27 of 226 and 8 of 232 computed directly.
"""

from __future__ import annotations

from math import prod
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .characters import CharacterTable, integer_multiplicities
from .coxeter import CoxeterGroup, orbit_walks
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


def _inverted(left: CellPartition, group: CoxeterGroup) -> CellPartition:
    """The right cells: the right graph is the left graph relabelled by
    w -> w^-1, so its blocks are the left blocks inverted, put in
    canonical order, and its Hasse diagram is the left one relabelled."""
    inv = group.inv
    inverted = [sorted(inv(w) for w in b) for b in left.blocks]
    blocks = sorted(inverted)  # by first element, as the blocks are disjoint
    index = {b[0]: i for i, b in enumerate(blocks)}
    new = [index[b[0]] for b in inverted]
    block_of = [new[left.block_of[inv(w)]] for w in range(len(left.block_of))]
    return CellPartition(blocks, block_of, sorted((new[a], new[b]) for a, b in left.hasse))


def cells(graph: PreorderGraph, kind: str, group: CoxeterGroup) -> CellPartition:
    """Cell partition of the requested kind from the left preorder graph."""
    if kind not in ("left", "right", "two-sided"):
        raise ValueError("kind must be left, right or two-sided")
    if kind == "right":
        return _inverted(cells(graph, "left", group), group)
    succ = graph.succ
    if kind == "two-sided":
        inverted: List[Set[int]] = [set() for _ in range(graph.size)]
        for w, ys in enumerate(graph.succ):
            inverted[group.inv(w)].update(group.inv(y) for y in ys)
        succ = [a | b for a, b in zip(succ, inverted)]
    comps = _tarjan_scc(graph.size, succ)
    blocks, block_of = _canonical_blocks(comps, graph.size)
    return CellPartition(blocks, block_of, _block_order(comps, block_of, succ))


class CellCharacter:
    """Integer character of the W-module carried by one left cell."""

    def __init__(self, values, multiplicities):
        self.values: List[int] = values  # per conjugacy class, in class order
        self.multiplicities: List[int] = multiplicities  # per irreducible, in table row order


Rows = List[List[Dict[int, int]]]


def _generator_rows(table: KLTable, cell: Sequence[int]) -> Rows:
    """rows[s][j] maps i to m != 0 when C_(cell[i]) has coefficient m in
    T_s C_(cell[j]) at v = 1, i.e. the rows of the transpose N_s of the
    matrix of T_s on the cell module."""
    pos = {w: i for i, w in enumerate(cell)}
    rows = []
    for s in range(table.group.rank):
        # T_s = C_s - v^{-L(s)}: subtract the identity part at v=1.
        shift = 1 if table.algebra.positive[s] else 0
        rows_s = []
        for j, w in enumerate(cell):
            row = {j: -shift}
            for y, c in table.cs_product_in_c(s, w).items():
                i = pos.get(y)
                if i is not None:
                    row[i] = row.get(i, 0) + c.evaluate_at_one()
            rows_s.append({i: m for i, m in row.items() if m})
        rows.append(rows_s)
    return rows


def _decomposed(values: List[int], chars: CharacterTable, cell: Sequence[int]
                ) -> CellCharacter:
    multiplicities = integer_multiplicities(values, chars)
    if multiplicities is None:
        raise NonIntegerMultiplicity(
            f"cell {sorted(cell)} decomposes with non-integer or negative multiplicities")
    return CellCharacter(values, multiplicities)


def left_cell_character(table: KLTable, cell: Sequence[int], chars: CharacterTable,
                        rows: Optional[Rows] = None) -> CellCharacter:
    """Character of the cell module and its multiplicities in `chars`,
    from the cell's `_generator_rows` (built here unless given).

    The trace on g = g_1 ... g_n is that of N_(g_n) ... N_(g_1), formed
    from the right; each of its rows is one int whose base-2^B digit i is
    entry i.  The products of all class representatives' words grow along
    their common prefixes, each prefix formed once.  Every entry of a
    word's product is bounded by the product of the row norms of its
    factors, so B = 1 + bit_length(the largest such bound over the words)
    reads every final digit; the int sums are exact, so intermediate
    digits may pass the bound harmlessly."""
    group = table.group
    if rows is None:
        rows = _generator_rows(table, cell)
    k = len(cell)
    norms = [max(sum(abs(m) for m in row.values()) for row in rows_s) for rows_s in rows]
    words = [group.word(rep) for rep in group.conjugacy_classes().representatives]
    width = 1 + max(prod(norms[g] for g in word) for word in words).bit_length()
    # Adding half to every digit makes each one a non-negative base-2^B digit.
    half, mask = 1 << (width - 1), (1 << width) - 1
    offset = half * ((1 << (width * k)) - 1) // mask
    products = {(): [1 << (width * i) for i in range(k)]}
    values = []
    for word in words:
        n = len(word)
        while word[:n] not in products:
            n -= 1
        rho = products[word[:n]]
        for n in range(n, len(word)):
            rho = products[word[:n + 1]] = [sum(m * rho[i] for i, m in row.items())
                                            for row in rows[word[n]]]
        values.append(sum((((r + offset) >> (width * j)) & mask) - half
                          for j, r in enumerate(rho)))
    return _decomposed(values, chars, cell)


def _cell_moves(table: KLTable) -> List[Tuple[List[int], List[int], List[int], List[int], bool]]:
    """(element map, generator map, source, factor, twisted) for each map
    that may carry a left cell onto one whose rows are its own relabelled,
    and whose character is then chi(k) = factor[k] * chi_x(source[k]) on
    class k, chi_x the character of the cell x it came from:
    - the right star operation of each s, t with m_st = 3 and L(s),
      L(t) > 0 (w -> w*, the one of ws, wt in D_R(s,t) = {w : exactly one
      of s, t is a right descent}, and w -> w off D_R(s,t)), which keeps
      every generator and every class;
    - each diagram automorphism sigma of the table, with s -> sigma s and
      the class of sigma(g) reading the class of g;
    - w -> w w0, twisted: the rows of N_s on the image are those of N_s^T
      on the cell, each entry (i, j) times -(-1)^(l(i) + l(j)), so the
      image's matrices are -E M_s^T E for E = diag((-1)^l(w)), and a
      product along a word g_1 ... g_n has the trace (-1)^n chi_x of
      g_n ... g_1: chi(g) = (-1)^l(g) chi_x(g^-1)."""
    group, algebra = table.group, table.algebra
    rank, rmul, lmul, lengths, words = (group.rank, group._rmul, group._lmul,
                                        group._lengths, group._words)
    m = group.matrix.entries
    classes = group.conjugacy_classes()
    reps = classes.representatives
    gens, same = list(range(rank)), list(range(len(reps)))
    moves = []
    for s in range(rank):
        for t in range(s + 1, rank):
            if m[s][t] == 3 and algebra.positive[s] and algebra.positive[t]:
                in_d = [(lengths[rmul[w][s]] < lw) != (lengths[rmul[w][t]] < lw)
                        for w, lw in enumerate(lengths)]
                star = [(rmul[w][s] if in_d[rmul[w][s]] else rmul[w][t]) if d else w
                        for w, d in enumerate(in_d)]
                moves.append((star, gens, same, [1] * len(reps), False))
    for sigma in algebra.symmetries[1:]:
        source = [0] * len(reps)
        for k, r in enumerate(reps):
            source[classes.class_of[sigma[r]]] = k
        moves.append((sigma, [words[sigma[group.generator(s)]][0] for s in gens], source,
                      [1] * len(reps), False))
    # w w0 = g (u w0) for w = g u, u shorter and so earlier in index order.
    times_w0 = [max(range(len(group)), key=lengths.__getitem__)] * len(group)
    for w in range(1, len(group)):
        g = words[w][0]
        times_w0[w] = lmul[g][times_w0[lmul[g][w]]]
    moves.append((times_w0, gens, [classes.class_of[group.inv(r)] for r in reps],
                  [(-1) ** lengths[r] for r in reps], True))
    return moves


def _moved_rows(rows: Rows, perm: List[int], gens: List[int], signs: Optional[List[int]]
                ) -> Rows:
    """The rows a cell must have to be the image of the cell with `rows`
    under a map of `_cell_moves`: entry (i, m) of row j of N_s goes to row
    perm[j], entry (perm[i], m), of N_(gens[s]), or, twisted, with signs[i]
    = (-1)^l of the cell's i-th element, to row perm[i], entry (perm[j],
    -signs[i] * signs[j] * m), of N_s."""
    out: Rows = [[] for _ in rows]
    for s, rows_s in enumerate(rows):
        moved: List[Dict[int, int]] = [{} for _ in rows_s]
        for j, row in enumerate(rows_s):
            for i, m in row.items():
                if signs is None:
                    moved[perm[j]][perm[i]] = m
                else:
                    moved[perm[i]][perm[j]] = -signs[i] * signs[j] * m
        out[gens[s]] = moved
    return out


def _left_cell_characters(table: KLTable, left: CellPartition,
                          chars: CharacterTable) -> List[CellCharacter]:
    """The character of every left cell, in block order.  The cells are
    walked in the orbits of the maps of `_cell_moves`, each sending a cell
    to the cell of its first element's image.  A cell reached from one
    already done takes that cell's values, read through the map's source
    classes and factors, only when its rows equal `_moved_rows` of that
    cell's rows, entry for entry.  It keeps the multiplicities when its
    values are the same, and decomposes its values again otherwise.  Every
    other cell is computed by `left_cell_character`."""
    blocks = left.blocks
    rows = [_generator_rows(table, b) for b in blocks]
    lengths = table.group._lengths
    moves = _cell_moves(table)
    cell_maps = [[left.block_of[move[0][b[0]]] for b in blocks] for move in moves]
    move_of = {id(cell_map): move for cell_map, move in zip(cell_maps, moves)}
    found: List[Optional[CellCharacter]] = [None] * len(blocks)
    for root, walk in orbit_walks(len(blocks), cell_maps).items():
        found[root] = left_cell_character(table, blocks[root], chars, rows[root])
        for c, x, cell_map in walk:
            elements, gens, source, factor, twisted = move_of[id(cell_map)]
            image = [elements[w] for w in blocks[x]]
            pos = {w: i for i, w in enumerate(blocks[c])}
            perm = [pos.get(w) for w in image]
            signs = [(-1) ** lengths[w] for w in blocks[x]] if twisted else None
            if sorted(image) == blocks[c] and rows[c] == _moved_rows(rows[x], perm, gens, signs):
                done = found[x]
                values = [f * done.values[k] for f, k in zip(factor, source)]
                found[c] = done if values == done.values else _decomposed(values, chars, blocks[c])
            else:
                found[c] = left_cell_character(table, blocks[c], chars, rows[c])
    return found


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
    right = _inverted(left, group)
    two_sided = cells(graph, "two-sided", group)
    violation = check_refinement(left, two_sided)
    if violation is not None:
        raise AssertionError(f"left cells do not refine two-sided cells: {violation}")
    names = [group.name(w) for w in range(len(group))]

    def blocks_json(p: CellPartition) -> dict:
        return {
            "blocks": [[names[w] for w in b] for b in p.blocks],
            "hasse": [[a, b] for a, b in sorted(p.hasse)],
        }

    classes = group.conjugacy_classes()
    rep_names = [names[r] for r in classes.representatives]
    doc = {
        "group": table.algebra.header(),
        "key": table.algebra.content_key(),
        "left_cells": blocks_json(left),
        "right_cells": blocks_json(right),
        "two_sided_cells": blocks_json(two_sided),
        "class_representatives": rep_names,
    }
    found = _left_cell_characters(table, left, chars)
    cell_chars = []
    for i, cc in enumerate(found):
        cell_chars.append({
            "cell": i,
            "values": dict(zip(rep_names, cc.values)),
            "multiplicities": cc.multiplicities,
        })
    doc["cell_characters"] = cell_chars
    return doc
