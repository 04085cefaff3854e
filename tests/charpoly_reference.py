"""The characteristic polynomial mod p by Faddeev-LeVerrier, which the
library used before its Hessenberg reduction.  It is O(d^4) but simple:
M_k = A M_(k-1) + c_(k-1) I and c_k = -tr(A M_k) / k, so it needs p > d.
test_characters compares `_charpoly_mod` with it.
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
