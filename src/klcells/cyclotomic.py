"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are polynomial residues modulo the N-th cyclotomic polynomial
Phi_N, stored as int numerators on 1, x, ..., x^(deg-1) over one common
denominator den >= 1.  The pair is kept in lowest terms
(gcd(den, *num) == 1, and zero has den == 1), so equality is a tuple
comparison.  Phi_N is monic with integer coefficients, so reduction
modulo Phi_N never leaves the integers: +, -, *, the Galois maps, the
inverse (a product of Galois conjugates over the rational norm) and the
zero, rationality and equality tests run on ints alone, and each result
is normalised by at most one gcd (none when den == 1).  Fractions appear
only at the boundary (from_fraction, to_fraction, coeffs, render,
sort_key).  One field instance is shared per N (``CyclotomicField.get``).

Used in three places: the ground scalars of the geometric reflection
representation (2cos(pi/m) = zeta_2m + zeta_2m^-1), character table
values in Q(zeta_exponent), and the rank-1 Cherednik algebra over
Q(zeta_d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, Sequence, Tuple


def _int_poly_div_exact(num: Sequence[int], den: Sequence[int]) -> Tuple[int, ...]:
    """Divide integer polynomials (low-to-high coefficients), den monic."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(q)


def _x_to_the(poly: Sequence[int], e: int) -> Tuple[int, ...]:
    """poly(x^e), coefficients constant term first."""
    out = [0] * ((len(poly) - 1) * e + 1)
    out[::e] = poly
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients of Phi_n, constant term first."""
    # From Phi_1 = x - 1: Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for each prime p
    # of n (p not dividing m), which gives Phi_r for r the product of those
    # primes, and Phi_n(x) = Phi_r(x^(n/r)).
    phi: Tuple[int, ...] = (-1, 1)
    r, rest, p = 1, n, 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            phi = _int_poly_div_exact(_x_to_the(phi, p), phi)
            r *= p
            while rest % p == 0:
                rest //= p
        p += 1
    return _x_to_the(phi, n // r)


class CyclotomicField:
    """The field Q(zeta_N), elements reduced modulo Phi_N."""

    _instances: dict = {}

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.phi = cyclotomic_polynomial(order)
        self.degree = len(self.phi) - 1
        # x^deg = -sum_j phi_j x^j, over the nonzero phi_j only.
        self._tail = tuple((j, -c) for j, c in enumerate(self.phi[:-1]) if c)
        # x^m mod Phi_N for 0 <= m < N as int tuples (exact, since Phi_N is
        # monic and integral): powers of zeta, Galois images and long
        # inputs without repeated division.
        self._xpow: List[Tuple[int, ...]] = []
        cur = [1] + [0] * (self.degree - 1)
        for _ in range(order):
            self._xpow.append(tuple(cur))
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                for j, t in self._tail:
                    cur[j] += top * t

    @staticmethod
    def get(order: int) -> "CyclotomicField":
        field = CyclotomicField._instances.get(order)
        if field is None:
            field = CyclotomicField(order)
            CyclotomicField._instances[order] = field
        return field

    def zero(self) -> "Cyclotomic":
        return Cyclotomic(self, (0,) * self.degree)

    def one(self) -> "Cyclotomic":
        return Cyclotomic(self, self._xpow[0])

    def from_fraction(self, x) -> "Cyclotomic":
        x = Fraction(x)
        return Cyclotomic(self, (x.numerator,) + (0,) * (self.degree - 1),
                          x.denominator)

    def from_numerators(self, num: Sequence[int], den: int = 1) -> "Cyclotomic":
        """(sum_i num[i] x^i) / den in lowest terms, for ints with den >= 1
        and len(num) == degree."""
        num = tuple(num)
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
        return Cyclotomic(self, num, den)

    def zeta(self, k: int = 1) -> "Cyclotomic":
        """zeta_N^k as a field element."""
        return Cyclotomic(self, self._xpow[k % self.order])

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"


class Cyclotomic:
    """An element of Q(zeta_N): int numerators on 1, x, ..., x^(deg-1)
    over the common denominator den, in lowest terms."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: Tuple[int, ...], den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(a, self.den) for a in self.num)

    def _check(self, other: "Cyclotomic") -> None:
        if self.field.order != other.field.order:
            raise ValueError("cyclotomic orders differ")

    def _combine(self, other: "Cyclotomic", sign: int) -> "Cyclotomic":
        """self + sign * other, over the lcm of the two denominators."""
        self._check(other)
        da, db = self.den, other.den
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return self.field.from_numerators(
            [a * fa + b * fb for a, b in zip(self.num, other.num)], den)

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self._combine(other, 1)

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return self._combine(other, -1)

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return self.field.from_numerators([a * k for a in self.num],
                                              self.den * other.denominator)
        self._check(other)
        field = self.field
        deg = field.degree
        prod = [0] * (2 * deg - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in enumerate(other.num, i):
                    if b:
                        prod[j] += a * b
        # Reduce modulo Phi_N from the top; Phi_N is monic, so this is exact.
        for m in range(2 * deg - 2, deg - 1, -1):
            c = prod[m]
            if c:
                base = m - deg
                for j, t in field._tail:
                    prod[base + j] += c * t
        return field.from_numerators(prod[:deg], self.den * other.den)

    def __rmul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse: the product P of the Galois conjugates
        sigma_k(self), gcd(k, N) = 1 and k != 1, over the rational norm
        self * P."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        n = self.field.order
        rest = self.field.one()
        for k in range(2, n):
            if gcd(k, n) == 1:
                rest = rest * self.galois(k)
        norm = self * rest
        return rest * norm.den / norm.num[0]

    def __truediv__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("cyclotomic division by zero")
            if p < 0:
                p, q = -p, -q
            return self.field.from_numerators([a * q for a in self.num], self.den * p)
        self._check(other)
        return self * other.inverse()

    def galois(self, k: int) -> "Cyclotomic":
        """Image under zeta -> zeta^k (k coprime to N for an automorphism)."""
        field = self.field
        n = field.order
        out = [0] * field.degree
        for i, c in enumerate(self.num):
            if c:
                for j, t in enumerate(field._xpow[(i * k) % n]):
                    if t:
                        out[j] += c * t
        return field.from_numerators(out, self.den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^-1."""
        return self.galois(self.field.order - 1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclotomic):
            return (self.field.order == other.field.order and self.num == other.num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and self.is_rational())
        return NotImplemented

    def __hash__(self) -> int:
        # A rational element hashes like the Fraction (or int) it equals.
        if self.is_rational():
            a = self.num[0]
            return hash(a) if self.den == 1 else hash(Fraction(a, self.den))
        return hash((self.field.order, self.num, self.den))

    def sort_key(self):
        # ints and Fractions compare exactly, so keys of both forms mix.
        return self.num if self.den == 1 else self.coeffs

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Cyclotomic[{self.field.order}]({self.render()})"

