"""References for the F_p steps of the character table, each the simple
method the library used before its faster one; test_characters compares
the library with them.

The characteristic polynomial by Faddeev-LeVerrier, before the Hessenberg
reduction of `_charpoly_mod`: O(d^4) but simple, M_k = A M_(k-1) +
c_(k-1) I and c_k = -tr(A M_k) / k, so it needs p > d.

The roots of a polynomial by evaluating it at every x in F_p, before the
scan of `_poly_roots_mod` that stops at the last root.
"""

from typing import List


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
