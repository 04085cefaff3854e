"""Dense cell characters, which the library used before its packed rows.

`klcells.cells.left_cell_character` multiplies sparse generator rows into
rows packed as Python ints; this module keeps the earlier route, k x k
integer matrices of T_s (v -> 1) multiplied out along each class
representative's word, so tests can check the production characters
against it.
"""

from __future__ import annotations

from typing import List, Sequence

from klcells.hecke import KLTable


def specialized_generator_action(table: KLTable, cell: Sequence[int]) -> List[List[List[int]]]:
    """For each generator s, the integer matrix of T_s (v -> 1) on the
    quotient basis {C_w : w in cell}; column j is the image of C_(cell[j])."""
    algebra = table.algebra
    pos = {w: i for i, w in enumerate(cell)}
    k = len(cell)
    mats = []
    for s in range(table.group.rank):
        shift = 1 if algebra.weights[s].sign() > 0 else 0
        mat = [[0] * k for _ in range(k)]
        for j, w in enumerate(cell):
            for y, c in table.cs_product_in_c(s, w).items():
                i = pos.get(y)
                if i is not None:
                    mat[i][j] += c.evaluate_at_one()
            # T_s = C_s - v^{-L(s)}: subtract the identity part at v=1.
            mat[j][j] -= shift
        mats.append(mat)
    return mats


def mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    k = len(a)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(k):
                    oi[j] += c * bt[j]
    return out


def word_matrix(mats: List[List[List[int]]], word: Sequence[int]) -> List[List[int]]:
    """M_(g_1) ... M_(g_n) for word = (g_1, ..., g_n), from the identity."""
    k = len(mats[0])
    rho = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for g in reversed(word):
        rho = mat_mul(mats[g], rho)
    return rho


def column_norm(mat: List[List[int]]) -> int:
    """Largest absolute column sum: the row norm of the transpose, whose
    rows are the C-basis expansions of T_s C_w that the packed code reads."""
    return max(sum(abs(row[j]) for row in mat) for j in range(len(mat)))
