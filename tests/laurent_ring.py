"""Negation and subtraction of LaurentElt, which the library
does not carry: `kl_basis` works on packed ints, and its dict-ring
construction for wide slot boxes needs only + and *.  hecke_reference
and kl_brute_oracle compute in LaurentElt with these.
"""

from klcells.ordered_coeffs import LaurentElt


def neg(a: LaurentElt) -> LaurentElt:
    return LaurentElt(a.grid, {g: -c for g, c in a.items()})


def sub(a: LaurentElt, b: LaurentElt) -> LaurentElt:
    return a + neg(b)
