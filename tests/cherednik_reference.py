"""The recursive rank-1 Cherednik normal form, kept as the reference for tests.

`klcells.cherednik_rank1` multiplies by one closed-form rule for right
multiplication by x; this module is the earlier form, which expands
xi^b x^m by recursion on b and m and multiplies monomial by monomial.
It is kept unchanged, except that its memo lives in each call, so the
tests can check the production product against an independent
implementation.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

from klcells.cherednik_rank1 import Rank1Params
from klcells.cyclotomic import Cyclotomic

Monomial = Tuple[int, int, int]  # (a, b, i) <-> x^a xi^b s^i
Memo = Dict[Tuple[int, int], Dict[Monomial, Cyclotomic]]


def _group_part_z(params: Rank1Params) -> Dict[int, Cyclotomic]:
    """[xi, x] = sum c_i s^i as a map i -> coefficient."""
    return {i: params.c[i - 1] for i in range(1, params.d)
            if not params.c[i - 1].is_zero()}


def _xi_x_normal(params: Rank1Params, b: int, m: int,
                 memo: Memo) -> Dict[Monomial, Cyclotomic]:
    """Normal form of xi^b x^m.

    Recursion: xi x^m = x^m xi + x^{m-1} Z_m with
    Z_m = sum_{t<m} twist^t(Z), twist(sum a_i s^i) = sum a_i zeta^-i s^i,
    then xi^b x^m = (xi^{b-1} x^m) xi + (xi^{b-1} x^{m-1}) Z_m.
    """
    cached = memo.get((b, m))
    if cached is not None:
        return cached
    field = params.field
    d = params.d
    if b == 0 or m == 0:
        out = {(m, b, 0): field.one()}
        memo[(b, m)] = out
        return out
    z = _group_part_z(params)
    zm: Dict[int, Cyclotomic] = {}
    for t in range(m):
        for i, a in z.items():
            add = a * field.zeta((-i * t) % d)
            cur = zm.get(i)
            zm[i] = add if cur is None else cur + add
    head = _xi_x_normal(params, b - 1, m, memo)
    tail = _xi_x_normal(params, b - 1, m - 1, memo)
    acc: Dict[Monomial, Cyclotomic] = {}
    # (xi^{b-1} x^m) * xi: right multiplication by xi twists by zeta^k.
    for (a_, b_, k), c in head.items():
        add = c * field.zeta(k)
        mono = (a_, b_ + 1, k)
        cur = acc.get(mono)
        acc[mono] = add if cur is None else cur + add
    # (xi^{b-1} x^{m-1}) * Z_m: right multiplication by group terms.
    for (a_, b_, k), c in tail.items():
        for i, zc in zm.items():
            add = c * zc
            mono = (a_, b_, (k + i) % d)
            cur = acc.get(mono)
            acc[mono] = add if cur is None else cur + add
    out = {mo: c for mo, c in acc.items() if not c.is_zero()}
    memo[(b, m)] = out
    return out


def _mono_product(params: Rank1Params, m1: Monomial, m2: Monomial,
                  memo: Memo) -> Dict[Monomial, Cyclotomic]:
    """(x^a xi^b s^i)(x^c xi^e s^j) in normal form."""
    a, b, i = m1
    c, e, j = m2
    field = params.field
    d = params.d
    # s^i x^c = zeta^{-ic} x^c s^i ; s^i xi^e = zeta^{ie} xi^e s^i.
    scalar = field.zeta((-i * c + i * e) % d)
    out: Dict[Monomial, Cyclotomic] = {}
    for (alpha, beta, k), coeff in _xi_x_normal(params, b, c, memo).items():
        # x^a . (x^alpha xi^beta s^k) . xi^e s^{i+j}
        add = coeff * scalar * field.zeta((k * e) % d)
        mono = (a + alpha, beta + e, (k + i + j) % d)
        cur = out.get(mono)
        out[mono] = add if cur is None else cur + add
    return out


def product(params: Rank1Params, left: Mapping[Monomial, Cyclotomic],
            right: Mapping[Monomial, Cyclotomic]) -> Dict[Monomial, Cyclotomic]:
    """Normal form of (sum left) * (sum right), zero terms dropped."""
    memo: Memo = {}
    acc: Dict[Monomial, Cyclotomic] = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            part = _mono_product(params, m1, m2, memo)
            coeff = c1 * c2
            for m, c in part.items():
                add = c * coeff
                cur = acc.get(m)
                acc[m] = add if cur is None else cur + add
    return {m: c for m, c in acc.items() if not c.is_zero()}


def normal_form(params: Rank1Params, word: Sequence) -> Dict[Monomial, Cyclotomic]:
    """The terms of a word in 'x', 'xi', 's' and scalars, multiplied left
    to right with `product`."""
    field = params.field
    gens = {"x": (1, 0, 0), "xi": (0, 1, 0), "s": (0, 0, 1)}
    out: Dict[Monomial, Cyclotomic] = {(0, 0, 0): field.one()}
    for token in word:
        if isinstance(token, str):
            factor = {gens[token]: field.one()}
        else:
            value = token if isinstance(token, Cyclotomic) else field.from_fraction(token)
            factor = {(0, 0, 0): value}
        out = product(params, out, factor)
    return out
