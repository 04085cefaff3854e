"""The Fraction-tuple cyclotomic field, kept as the reference for tests.

`klcells.cyclotomic` stores each element as int numerators over one
common denominator; this module is the earlier form, where every
coefficient is a `fractions.Fraction`, kept unchanged so the tests can
check the production ring against an independent implementation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Sequence, Tuple


def _divisors(n: int) -> List[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Coefficients of Phi_n, constant term first."""
    # x^n - 1 = prod_{d | n} Phi_d
    num: Sequence[int] = tuple([-1] + [0] * (n - 1) + [1])
    for d in _divisors(n):
        if d < n:
            num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


class CyclotomicField:
    """The field Q(zeta_N), elements reduced modulo Phi_N."""

    _instances: dict = {}

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("cyclotomic order must be >= 1")
        self.order = order
        self.phi = cyclotomic_polynomial(order)
        self.degree = len(self.phi) - 1
        # x^m mod Phi_N for 0 <= m < max(2*degree, N): covers products and
        # Galois images without repeated division.
        self._xpow: List[Tuple[Fraction, ...]] = []
        span = max(2 * self.degree - 1, order)
        cur = [Fraction(0)] * self.degree
        if self.degree > 0:
            cur[0] = Fraction(1)
        for _ in range(span + 1):
            self._xpow.append(tuple(cur))
            top = cur[-1]
            nxt = [Fraction(0)] + cur[:-1]
            if top:
                for j in range(self.degree):
                    nxt[j] -= top * self.phi[j]
            cur = nxt

    @staticmethod
    def get(order: int) -> "CyclotomicField":
        field = CyclotomicField._instances.get(order)
        if field is None:
            field = CyclotomicField(order)
            CyclotomicField._instances[order] = field
        return field

    def zero(self) -> "Cyclotomic":
        return Cyclotomic(self, (Fraction(0),) * self.degree)

    def one(self) -> "Cyclotomic":
        return self.from_fraction(1)

    def from_fraction(self, x) -> "Cyclotomic":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(x)
        return Cyclotomic(self, tuple(coeffs))

    def zeta(self, k: int = 1) -> "Cyclotomic":
        """zeta_N^k as a field element."""
        return Cyclotomic(self, self._xpow[k % self.order])

    def from_coeffs(self, coeffs: Iterable) -> "Cyclotomic":
        vals = [Fraction(x) for x in coeffs]
        if len(vals) > self.degree:
            acc = self.zero()
            for i, c in enumerate(vals):
                if c:
                    acc = acc + Cyclotomic(
                        self, tuple(c * t for t in self._xpow[i % self.order]))
            return acc
        vals += [Fraction(0)] * (self.degree - len(vals))
        return Cyclotomic(self, tuple(vals))

    def __repr__(self) -> str:
        return f"CyclotomicField({self.order})"


class Cyclotomic:
    """An element of Q(zeta_N): tuple of Fractions on 1, x, ..., x^(deg-1)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: Tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other: "Cyclotomic") -> None:
        if self.field.order != other.field.order:
            raise ValueError("cyclotomic orders differ")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.field,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.field,
                          tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return Cyclotomic(self.field, tuple(a * k for a in self.coeffs))
        self._check(other)
        deg = self.field.degree
        prod = [Fraction(0)] * (2 * deg - 1 if deg else 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        out = [Fraction(0)] * deg
        for m, c in enumerate(prod):
            if c:
                for j, t in enumerate(self.field._xpow[m]):
                    out[j] += c * t
        return Cyclotomic(self.field, tuple(out))

    def __rmul__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # Work in Q[x]: gcd(self, Phi_N) = 1 since Phi_N is irreducible.
        a = [Fraction(c) for c in self.phi_poly()]
        b = list(self.coeffs)
        while b and b[-1] == 0:
            b.pop()
        s_prev, s_cur = [Fraction(0)], [Fraction(1)]
        r_prev, r_cur = a, b
        while True:
            if len(r_cur) == 1:
                inv = [c / r_cur[0] for c in s_cur]
                return self.field.from_coeffs(inv)
            q, r = _q_poly_divmod(r_prev, r_cur)
            s_next = _q_poly_sub(s_prev, _q_poly_mul(q, s_cur))
            r_prev, r_cur = r_cur, r
            s_prev, s_cur = s_cur, s_next
            if not r_cur:
                raise ArithmeticError("unexpected zero remainder in inverse")

    def __truediv__(self, other) -> "Cyclotomic":
        if isinstance(other, (int, Fraction)):
            k = Fraction(other)
            return Cyclotomic(self.field, tuple(a / k for a in self.coeffs))
        self._check(other)
        return self * other.inverse()

    def phi_poly(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in self.field.phi)

    def galois(self, k: int) -> "Cyclotomic":
        """Image under zeta -> zeta^k (k coprime to N for an automorphism)."""
        n = self.field.order
        out = [Fraction(0)] * self.field.degree
        for i, c in enumerate(self.coeffs):
            if c:
                for j, t in enumerate(self.field._xpow[(i * k) % n]):
                    out[j] += c * t
        return Cyclotomic(self.field, tuple(out))

    def conj(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^-1."""
        return self.galois(self.field.order - 1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.to_fraction() == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.field.order == other.field.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.field.order, self.coeffs))

    def sort_key(self):
        return tuple(self.coeffs)

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


def _q_poly_divmod(a: List[Fraction], b: List[Fraction]):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] / lb
        q[da - db] = c
        for j in range(db + 1):
            a[da - db + j] -= c * b[j]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _q_poly_mul(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _q_poly_sub(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    while out and out[-1] == 0:
        out.pop()
    return out
