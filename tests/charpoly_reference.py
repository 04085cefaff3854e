"""References for the F_p steps of the character table, each the simple
method the library used before its faster one; test_characters compares
the library with them.

The characteristic polynomial by Faddeev-LeVerrier, before the Hessenberg
reduction of `_charpoly_mod`: O(d^4) but simple, M_k = A M_(k-1) +
c_(k-1) I and c_k = -tr(A M_k) / k, so it needs p > d.

The roots of a polynomial by evaluating it at every x in F_p, before the
scan of `_poly_roots_mod` that stops at the last root.

The eigenspaces of a class matrix on an invariant subspace by one
Gauss-Jordan nullspace of the d x d action per eigenvalue, O(d^3) each,
before `_refine` read them all off one Hessenberg reduction.
"""

from operator import mul
from typing import List

from klcells.characters import _charpoly_mod, _poly_roots_mod, _rref


def charpoly_faddeev_leverrier(a: List[List[int]], p: int) -> List[int]:
    """[1, c1, ..., cd] with x^d + c1 x^(d-1) + ... + cd = det(x - a) mod p."""
    d = len(a)
    coeffs = [1]
    m = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        m = [[sum(a[i][t] * m[t][j] for t in range(d)) % p for j in range(d)]
             for i in range(d)]
        tr = sum(m[i][i] for i in range(d)) % p
        c = (-tr * pow(k, -1, p)) % p
        coeffs.append(c)
        for i in range(d):
            m[i][i] = (m[i][i] + c) % p
    return coeffs


def poly_roots_brute_force(coeffs: List[int], p: int) -> List[int]:
    """Every x in F_p, ascending, at which the polynomial with the given
    coefficients (leading first) vanishes mod p."""
    roots = []
    for x in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _nullspace(a: List[List[int]], p: int) -> List[List[int]]:
    d = len(a)
    rows, pivots = _rref(a, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(d):
        if free in pivot_set:
            continue
        vec = [0] * d
        vec[free] = 1
        for r, pc in zip(rows, pivots):
            vec[pc] = (-r[free]) % p
        basis.append(vec)
    return basis


def refine_by_nullspaces(rows: List[List[int]], mat: List[List[int]], p: int
                         ) -> List[List[List[int]]]:
    """The eigenspaces of mat (acting on columns) on the mat-invariant row
    space with rref basis `rows`, as rref rows, in ascending order of
    eigenvalue mod p."""
    d = len(rows)
    k = len(mat)
    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    images = []
    for row in rows:
        image = [sum(map(mul, mrow, row)) % p for mrow in mat]
        coords = [image[pc] for pc in pivots]
        residual = image
        for c, basis_row in zip(coords, rows):
            residual = [(x - c * y) % p for x, y in zip(residual, basis_row)]
        assert not any(residual), "vector escaped an invariant subspace"
        images.append(coords)
    # action[t][idx] = coefficient of basis row t in the image of row idx
    action = [[images[idx][t] for idx in range(d)] for t in range(d)]
    out = []
    for lam in _poly_roots_mod(_charpoly_mod(action, p)[0], p):
        shifted = [[(action[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                   for i in range(d)]
        ambient = []
        for nv in _nullspace(shifted, p):
            vec = [0] * k
            for coef, row in zip(nv, rows):
                vec = [(x + coef * y) % p for x, y in zip(vec, row)]
            ambient.append(vec)
        if ambient:
            out.append(_rref(ambient, p)[0])
    assert sum(map(len, out)) == d, "eigenspace refinement lost dimensions"
    return out
