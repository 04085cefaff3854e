"""Exact coefficient arithmetic for Hecke algebras with unequal parameters.

The coefficient ring is Z[G] for a totally ordered free abelian group G,
written multiplicatively.  An OrderedExponent names an element of G: a
Fraction in rational mode (G inside Q), or a vector in lex mode (G = Z^k,
lexicographic order; generic unequal parameters).

LaurentElt keeps {int key: int coefficient} on a grid (mode, arity, scale),
by a key map that is additive and order preserving: rational g is stored
as g * scale (a common denominator), a lex vector is packed in base
_LEX_BASE with balanced digits.  So +, *, bar and split_by_sign are one int
code path; exponents are encoded on entry (v_power, parse) and decoded on
exit (render).  Lex coordinates beyond +-LEX_BOUND raise ValueError on
encode and decode, never wrap: _LEX_BASE leaves room for sums of 32
in-bound exponents.  Operands on different
scales meet on a common one and equality ignores the scale; different
exponent groups raise ModeMismatchError.  All arithmetic is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Tuple, Union

RATIONAL = "rational"
LEX = "lex"
LEX_BOUND = (1 << 15) - 1
_LEX_BASE = 1 << 21

ExpValue = Union[Fraction, Tuple[int, ...]]
Grid = Tuple[str, Optional[int], int]  # (mode, arity, scale)


class ModeMismatchError(ValueError):
    """Operands live over different exponent groups (mode or lex arity)."""


def _pack(vec: Iterable[int]) -> int:
    key = 0
    for x in vec:
        if not -LEX_BOUND <= x <= LEX_BOUND:
            raise ValueError(f"lex exponent coordinate {x} is outside +-{LEX_BOUND}")
        key = key * _LEX_BASE + x
    return key


def _unpack(key: int, arity: int) -> Tuple[int, ...]:
    digits = []
    for _ in range(arity):
        d = (key + _LEX_BASE // 2) % _LEX_BASE - _LEX_BASE // 2
        key = (key - d) // _LEX_BASE
        digits.append(d)
    if key or any(abs(d) > LEX_BOUND for d in digits):
        raise ValueError(f"lex exponent coordinate is outside +-{LEX_BOUND}")
    return tuple(reversed(digits))


@dataclass(frozen=True)
class OrderedExponent:
    """An element g of the totally ordered exponent group G.

    ``value`` is a Fraction in rational mode, or a tuple of ints in lex
    mode (compared lexicographically, which is exactly Python's tuple
    order).  The order is total and compatible with addition, and
    negation reverses it.
    """

    mode: str
    value: ExpValue

    def __post_init__(self) -> None:
        if self.mode == RATIONAL:
            if not isinstance(self.value, Fraction):
                object.__setattr__(self, "value", Fraction(self.value))
        elif self.mode == LEX:
            if not isinstance(self.value, tuple):
                object.__setattr__(self, "value", tuple(int(x) for x in self.value))
        else:
            raise ValueError(f"unknown exponent mode {self.mode!r}")

    @property
    def arity(self) -> Optional[int]:
        return None if self.mode == RATIONAL else len(self.value)

    @staticmethod
    def rational(x) -> "OrderedExponent":
        return OrderedExponent(RATIONAL, Fraction(x))

    @staticmethod
    def lex(vec: Iterable[int]) -> "OrderedExponent":
        return OrderedExponent(LEX, tuple(int(x) for x in vec))

    def _check(self, other: "OrderedExponent") -> None:
        if self.mode != other.mode or self.arity != other.arity:
            raise ModeMismatchError(
                f"exponent groups differ: {self.mode}/{self.arity} vs "
                f"{other.mode}/{other.arity}"
            )

    def __add__(self, other: "OrderedExponent") -> "OrderedExponent":
        self._check(other)
        if self.mode == RATIONAL:
            return OrderedExponent(RATIONAL, self.value + other.value)
        return OrderedExponent(LEX, tuple(a + b for a, b in zip(self.value, other.value)))

    def __neg__(self) -> "OrderedExponent":
        if self.mode == RATIONAL:
            return OrderedExponent(RATIONAL, -self.value)
        return OrderedExponent(LEX, tuple(-a for a in self.value))

    def __sub__(self, other: "OrderedExponent") -> "OrderedExponent":
        return self + (-other)

    def __lt__(self, other: "OrderedExponent") -> bool:
        self._check(other)
        return self.value < other.value

    def sign(self) -> int:
        """-1, 0 or +1 according to the comparison with the group identity."""
        zero = 0 if self.mode == RATIONAL else (0,) * len(self.value)
        return (self.value > zero) - (self.value < zero)

    def render(self) -> str:
        if self.mode == RATIONAL:
            return str(self.value)
        return ",".join(str(a) for a in self.value)

    # -- the int codec -------------------------------------------------

    def encode(self, grid: Grid) -> int:
        """The int key of this exponent on `grid`; ValueError off the grid."""
        mode, arity, scale = grid
        if (self.mode, self.arity) != (mode, arity):
            raise ModeMismatchError(f"exponent group {self.mode}/{self.arity} "
                                    f"is not {mode}/{arity}")
        if mode == LEX:
            return _pack(self.value)
        key = self.value * scale
        if key.denominator != 1:
            raise ValueError(f"exponent {self.value} is not a multiple of 1/{scale}")
        return key.numerator

    @staticmethod
    def decode(key: int, grid: Grid) -> "OrderedExponent":
        mode, arity, scale = grid
        if mode == LEX:
            return OrderedExponent(LEX, _unpack(key, arity))
        return OrderedExponent(RATIONAL, Fraction(key, scale))

    @staticmethod
    def grid_of(mode: str, arity: Optional[int], exps) -> Grid:
        """The coarsest grid holding every exponent of `exps` (all in the
        group mode/arity): scale = lcm of the denominators, 1 in lex mode."""
        return (mode, arity, 1 if mode == LEX else
                math.lcm(*(e.value.denominator for e in exps)))


# Tables repeat few distinct exponents, so the text boundary is memoised.
@lru_cache(maxsize=1 << 12)
def _key_text(key: int, grid: Grid) -> str:
    mode, arity, scale = grid
    if mode == LEX:
        return ",".join(map(str, _unpack(key, arity)))
    return str(key) if scale == 1 else str(Fraction(key, scale))


@lru_cache(maxsize=1 << 12)
def _text_key(text: str, grid: Grid) -> int:
    mode, arity, scale = grid
    if mode == LEX:
        vec = [int(part) for part in text.split(",")]
        if len(vec) != arity:
            raise ValueError(f"lex exponent arity {len(vec)} != {arity}")
        return _pack(vec)
    return OrderedExponent.rational(text).encode(grid)


_TERM_RE = re.compile(r"^(-?\d+)\*v\^\((.+)\)$")


class LaurentElt:
    """A finitely supported Z-combination of symbols v^g, g in G.

    Terms are a dict {int key: nonzero int coefficient} on `grid`; see the
    module docstring for the key map.  Instances are immutable; operators
    return fresh values.
    """

    __slots__ = ("grid", "_terms")

    def __init__(self, grid: Grid, terms: dict):
        """`terms` maps int keys to nonzero coefficients and is not copied."""
        self.grid = grid
        self._terms = terms

    # -- constructors ------------------------------------------------

    @staticmethod
    def v_power(exp: OrderedExponent, coeff: int = 1,
                grid: Optional[Grid] = None) -> "LaurentElt":
        grid = grid or OrderedExponent.grid_of(exp.mode, exp.arity, [exp])
        return LaurentElt(grid, {exp.encode(grid): int(coeff)} if coeff else {})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _reduced(self):
        """(mode, arity, scale, terms) on the coarsest grid: equal elements
        give equal values whatever scale they are stored on."""
        mode, arity, scale = self.grid
        d = math.gcd(scale, *self._terms)
        return mode, arity, scale // d, frozenset((g // d, c) for g, c in self._terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElt):
            return NotImplemented
        if self.grid is other.grid or self.grid == other.grid:
            return self._terms == other._terms
        return self._reduced() == other._reduced()

    def __hash__(self) -> int:
        return hash(self._reduced())

    def _on_common_grid(self, other: "LaurentElt") -> Tuple["LaurentElt", "LaurentElt"]:
        (mode, arity, s1), (mode2, arity2, s2) = self.grid, other.grid
        if (mode, arity) != (mode2, arity2):
            raise ModeMismatchError(f"coefficient rings differ: {mode}/{arity} vs "
                                    f"{mode2}/{arity2}")
        grid = (mode, arity, math.lcm(s1, s2))
        return tuple(LaurentElt(grid, {g * (grid[2] // x.grid[2]): c
                                       for g, c in x._terms.items()})
                     for x in (self, other))

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "LaurentElt") -> "LaurentElt":
        if not (self.grid is other.grid or self.grid == other.grid):
            a, b = self._on_common_grid(other)
            return a + b
        acc = self._terms.copy()
        for g, c in other._terms.items():
            c += acc.get(g, 0)
            if c:
                acc[g] = c
            else:
                del acc[g]
        return LaurentElt(self.grid, acc)

    def __neg__(self) -> "LaurentElt":
        return LaurentElt(self.grid, {g: -c for g, c in self._terms.items()})

    def __sub__(self, other: "LaurentElt") -> "LaurentElt":
        return self + (-other)

    def __mul__(self, other) -> "LaurentElt":
        if isinstance(other, int):
            return LaurentElt(self.grid, {g: c * other for g, c in self._terms.items()}
                              if other else {})
        if not (self.grid is other.grid or self.grid == other.grid):
            a, b = self._on_common_grid(other)
            return a * b
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:  # monomial: shift the keys, nothing can collide
            [(g2, c2)] = b.items()
            return LaurentElt(self.grid, {g + g2: c * c2 for g, c in a.items()})
        acc: dict = {}
        for g1, c1 in a.items():
            for g2, c2 in b.items():
                g = g1 + g2
                acc[g] = acc.get(g, 0) + c1 * c2
        return LaurentElt(self.grid, {g: c for g, c in acc.items() if c})

    def shifted(self, key: int) -> "LaurentElt":
        """v^g * self for the g with int key `key` on this grid: every key
        moves by `key` and no two terms collide."""
        return LaurentElt(self.grid, {g + key: c for g, c in self._terms.items()})

    def bar(self) -> "LaurentElt":
        """The involution v^g -> v^(-g), an exact ring automorphism."""
        return LaurentElt(self.grid, {-g: c for g, c in self._terms.items()})

    def split_by_sign(self) -> Tuple["LaurentElt", int, "LaurentElt"]:
        """Split into (negative-exponent part, coefficient of v^0, positive part)."""
        terms = self._terms
        return (LaurentElt(self.grid, {g: c for g, c in terms.items() if g < 0}),
                terms.get(0, 0),
                LaurentElt(self.grid, {g: c for g, c in terms.items() if g > 0}))

    def nonneg_symmetrized(self) -> "LaurentElt":
        """The bar-invariant element agreeing with self on exponents >= 0:
        each v^g with g > 0 is kept and mirrored to v^-g, v^0 kept once."""
        out = {}
        for g, c in self._terms.items():
            if g >= 0:
                out[g] = out[-g] = c
        return LaurentElt(self.grid, out)

    def evaluate_at_one(self) -> int:
        """The ring homomorphism to Z sending every v^g to 1."""
        return sum(self._terms.values())

    # -- textual form ------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join(f"{self._terms[g]}*v^({_key_text(g, self.grid)})"
                          for g in sorted(self._terms))

    @staticmethod
    def parse(text: str, mode: str = RATIONAL, arity: Optional[int] = None,
              grid: Optional[Grid] = None) -> "LaurentElt":
        """Inverse of render, onto `grid` if given (ValueError for an exponent
        off it), else onto the coarsest grid holding the exponents."""
        text = text.strip()
        terms = [_TERM_RE.match(part.strip()) for part in text.split(" + ")
                 if text != "0"]
        if not all(terms):
            raise ValueError(f"cannot parse Laurent element {text!r}")
        if grid is None and mode == LEX:
            grid = (LEX, arity or (terms[0][2].count(",") + 1 if terms else None), 1)
        elif grid is None:
            grid = (mode, arity, math.lcm(*(int(m[2].partition("/")[2] or 1) for m in terms)))
        acc: dict = {}
        for m in terms:
            key = _text_key(m[2], grid)
            acc[key] = acc.get(key, 0) + int(m[1])
        return LaurentElt(grid, {g: c for g, c in acc.items() if c})

    def __repr__(self) -> str:
        return f"LaurentElt({self.render()!r})"
