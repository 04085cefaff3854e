"""General Hecke algebra arithmetic kept as the reference for tests.

`kl_basis` builds every C_s C_w without multiplying out products; the
routines here do it the long way (T-basis products along reduced words,
the bar involution from i(T_w), back-substitution into the C-basis), so
tests can check the production table against an independent route.
"""

from __future__ import annotations

import weakref
from typing import List

from laurent_ring import neg, sub as sub_coeff
from klcells.hecke import HeckeAlgebra, HeckeCoeffs
from klcells.ordered_coeffs import LaurentElt

_I_OF_T: "weakref.WeakKeyDictionary[HeckeAlgebra, list]" = weakref.WeakKeyDictionary()


def clean(h: HeckeCoeffs) -> HeckeCoeffs:
    return {w: c for w, c in h.items() if c}


def zero_coeff(algebra: HeckeAlgebra) -> LaurentElt:
    return LaurentElt(algebra.grid, {})


def t_basis(algebra: HeckeAlgebra, w: int) -> HeckeCoeffs:
    return {w: algebra.one_coeff()}


def unit(algebra: HeckeAlgebra) -> HeckeCoeffs:
    return t_basis(algebra, algebra.group.identity)


def add(a: HeckeCoeffs, b: HeckeCoeffs) -> HeckeCoeffs:
    out = dict(a)
    for w, c in b.items():
        out[w] = out[w] + c if w in out else c
    return clean(out)


def sub(a: HeckeCoeffs, b: HeckeCoeffs) -> HeckeCoeffs:
    return add(a, {w: neg(c) for w, c in b.items()})


def scale(c: LaurentElt, h: HeckeCoeffs) -> HeckeCoeffs:
    return clean({w: c * x for w, x in h.items()})


def equal(a: HeckeCoeffs, b: HeckeCoeffs) -> bool:
    return clean(a) == clean(b)


def xi(algebra: HeckeAlgebra, s: int):
    """v^{L(s)} - v^{-L(s)}; zero when L(s) = 0."""
    L = algebra.weights[s]
    return sub_coeff(LaurentElt.v_power(L), LaurentElt.v_power(-L))


def mul_ts(algebra: HeckeAlgebra, s: int, h: HeckeCoeffs) -> HeckeCoeffs:
    """T_s * h."""
    group = algebra.group
    x = xi(algebra, s)
    out: HeckeCoeffs = {}
    for w, c in h.items():
        sw = group.lmul_gen(s, w)
        out[sw] = out[sw] + c if sw in out else c
        if x and group.length(sw) < group.length(w):
            out[w] = out[w] + x * c if w in out else x * c
    return clean(out)


def mul_ts_right(algebra: HeckeAlgebra, h: HeckeCoeffs, s: int) -> HeckeCoeffs:
    """h * T_s."""
    group = algebra.group
    x = xi(algebra, s)
    out: HeckeCoeffs = {}
    for w, c in h.items():
        ws = group.mul(w, group.generator(s))
        out[ws] = out[ws] + c if ws in out else c
        if x and group.length(ws) < group.length(w):
            out[w] = out[w] + x * c if w in out else x * c
    return clean(out)


def t_inv_times(algebra: HeckeAlgebra, s: int, h: HeckeCoeffs) -> HeckeCoeffs:
    """T_s^{-1} * h, using T_s^{-1} = T_s - (v^{L(s)} - v^{-L(s)})."""
    out = mul_ts(algebra, s, h)
    x = xi(algebra, s)
    if x:
        out = sub(out, scale(x, h))
    return out


def _accumulate(out: HeckeCoeffs, c, h: HeckeCoeffs) -> None:
    """out += c * h in place (zero entries are left for `clean`)."""
    for w, x in h.items():
        term = c * x
        out[w] = out[w] + term if w in out else term


def multiply(algebra: HeckeAlgebra, a: HeckeCoeffs, b: HeckeCoeffs) -> HeckeCoeffs:
    """Bilinear product; T_w * b is computed along the reduced word of w."""
    out: HeckeCoeffs = {}
    for w, c in a.items():
        part = b
        for g in reversed(algebra.group.word(w)):
            part = mul_ts(algebra, g, part)
        _accumulate(out, c, part)
    return clean(out)


def i_of_t_table(algebra: HeckeAlgebra) -> list:
    """i(T_w) for every w, built by length induction (cached per algebra)."""
    table = _I_OF_T.get(algebra)
    if table is None:
        group = algebra.group
        table = [unit(algebra)]
        for w in range(1, len(group)):
            word = group.word(w)
            u = group.element_by_word(word[1:])
            table.append(t_inv_times(algebra, word[0], table[u]))
        _I_OF_T[algebra] = table
    return table


def bar(algebra: HeckeAlgebra, h: HeckeCoeffs) -> HeckeCoeffs:
    """The ring involution with i(v^g) = v^{-g} and i(T_s) = T_s^{-1}."""
    table = i_of_t_table(algebra)
    out: HeckeCoeffs = {}
    for w, c in h.items():
        _accumulate(out, c.bar(), table[w])
    return clean(out)


def c_gen(algebra: HeckeAlgebra, s: int) -> HeckeCoeffs:
    """C_s = T_s + v^{-L(s)} T_e for L(s) > 0, or T_s when L(s) = 0."""
    gen = algebra.group.generator(s)
    if algebra.weights[s].sign() > 0:
        return {gen: algebra.one_coeff(),
                algebra.group.identity: LaurentElt.v_power(-algebra.weights[s])}
    return {gen: algebra.one_coeff()}


def express_in_kl(h: HeckeCoeffs, algebra: HeckeAlgebra, rows: List[HeckeCoeffs]
                  ) -> HeckeCoeffs:
    """Unique expansion of h in the C-basis, with rows[w] = C_w in the
    T-basis, by back-substitution from the longest support element down."""
    group = algebra.group
    rest = clean(dict(h))
    out: HeckeCoeffs = {}
    while rest:
        y = max(rest, key=lambda x: (group.length(x), x))
        c = rest.pop(y)
        out[y] = c
        for z, cz in rows[y].items():
            if z == y:
                continue
            val = sub_coeff(rest.get(z, zero_coeff(algebra)), c * cz)
            if val:
                rest[z] = val
            else:
                rest.pop(z, None)
    return out


def cs_product_reference(algebra: HeckeAlgebra, rows: List[HeckeCoeffs], s: int, w: int
                         ) -> HeckeCoeffs:
    """C_s C_w in the C-basis, with rows[w] = C_w in the T-basis, by
    multiplying out and back-substituting."""
    return express_in_kl(multiply(algebra, c_gen(algebra, s), rows[w]), algebra, rows)
