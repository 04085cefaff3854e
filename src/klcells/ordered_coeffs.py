"""Exact coefficients for Hecke algebras with unequal parameters: the
exponent group and the boundary type of a coefficient.

The coefficient ring is Z[G] for a totally ordered abelian group G,
written multiplicatively.  An OrderedExponent names an element of G as a
tuple of Fraction coordinates, compared as a Python tuple
(lexicographically): one coordinate in rational mode (G inside Q),
`arity` integer coordinates in lex mode (G = Z^k; generic unequal
parameters).  The mode is only a label: negation, sign and render are one
code path for both.

LaurentElt is the boundary type of a coefficient: what a KL table
decodes its packed ints to (klcells.hecke), and what the text form
parses to and renders from.  It keeps {int key: int coefficient} on a
grid (mode, arity, scale), by one key map that is additive and order
preserving: the coordinates are multiplied by scale (a common
denominator, 1 in lex mode) and packed in base _LEX_BASE with balanced
digits.  A rational key is its single coordinate, unbounded; lex
coordinates beyond +-LEX_BOUND raise ValueError on encode and decode,
never wrap.  Exponents are encoded on entry (v_power, parse) and decoded
on exit (render).  Besides the text form it has bar, split_by_sign,
evaluate_at_one, and an equality that ignores the scale; + and * serve
the dict-ring construction that klcells.hecke keeps for a slot box too
wide to pack (and the kernel probe, perfbench/probe.py, times them on
cached coefficients).  Operands on different scales meet on a common one;
different exponent groups raise ModeMismatchError.  All arithmetic is
exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

RATIONAL = "rational"
LEX = "lex"
LEX_BOUND = (1 << 15) - 1
_LEX_BASE = 1 << 21

Grid = Tuple[str, Optional[int], int]  # (mode, arity, scale)


class ModeMismatchError(ValueError):
    """Operands live over different exponent groups (mode or lex arity)."""


def _arity(mode: str, n: int) -> Optional[int]:
    """The k of G = Z^k for n lex coordinates; None in rational mode."""
    return n if mode == LEX else None


def _pack(coords: Iterable[int], bounded: bool) -> int:
    key = 0
    for x in coords:
        if bounded and not -LEX_BOUND <= x <= LEX_BOUND:
            raise ValueError(f"lex exponent coordinate {x} is outside +-{LEX_BOUND}")
        key = key * _LEX_BASE + x
    return key


def _unpack(key: int, n: int, bounded: bool) -> List[int]:
    """The n coordinates packed in `key`, most significant first: n - 1
    balanced digits and whatever is left as the leading one."""
    digits = []
    for _ in range(n - 1):
        d = (key + _LEX_BASE // 2) % _LEX_BASE - _LEX_BASE // 2
        key = (key - d) // _LEX_BASE
        digits.append(d)
    digits.append(key)
    if bounded and any(abs(d) > LEX_BOUND for d in digits):
        raise ValueError(f"lex exponent coordinate is outside +-{LEX_BOUND}")
    return digits[::-1]


class Frozen:
    """An immutable record: the fields are the names a subclass annotates,
    in order; the positional constructor sets them, equality and hash go
    by their values, and assigning or deleting an attribute raises
    AttributeError.  Not a dataclass: every command is a fresh process,
    and importing dataclasses also imports inspect, ast, dis and tokenize."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(zip(self._fields, values))

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"


class OrderedExponent(Frozen):
    """An element g of the totally ordered exponent group G.

    ``value`` is a tuple of Fraction coordinates: one in rational mode,
    `arity` in lex mode.  Python's order on ``value`` is the order of G;
    it is total and compatible with addition, and negation reverses it.
    Sums and comparisons are made on the int keys of `encode`, which is
    additive and order preserving.
    """

    mode: str
    value: Tuple[Fraction, ...]

    def __init__(self, mode: str, value: Iterable) -> None:
        value = tuple(map(Fraction, value))
        if mode not in (RATIONAL, LEX) or len(value) != (_arity(mode, len(value)) or 1):
            raise ValueError(f"not a {mode} exponent: {value}")
        super().__init__(mode, value)

    @property
    def arity(self) -> Optional[int]:
        return _arity(self.mode, len(self.value))

    @staticmethod
    def rational(x) -> "OrderedExponent":
        return OrderedExponent(RATIONAL, (x,))

    @staticmethod
    def lex(vec: Iterable[int]) -> "OrderedExponent":
        return OrderedExponent(LEX, tuple(vec))

    def __neg__(self) -> "OrderedExponent":
        return OrderedExponent(self.mode, tuple(-a for a in self.value))

    def sign(self) -> int:
        """-1, 0 or +1 according to the comparison with the group identity."""
        zero = (0,) * len(self.value)
        return (self.value > zero) - (self.value < zero)

    def render(self) -> str:
        return ",".join(map(str, self.value))

    # -- the int codec -------------------------------------------------

    def encode(self, grid: Grid) -> int:
        """The int key of this exponent on `grid`; ValueError off the grid."""
        mode, arity, scale = grid
        if (self.mode, self.arity) != (mode, arity):
            raise ModeMismatchError(f"exponent group {self.mode}/{self.arity} "
                                    f"is not {mode}/{arity}")
        coords = [x * scale for x in self.value]
        if any(x.denominator != 1 for x in coords):
            raise ValueError(f"exponent {self.render()} is not a multiple of 1/{scale}")
        return _pack((x.numerator for x in coords), mode == LEX)

    @staticmethod
    def decode(key: int, grid: Grid) -> "OrderedExponent":
        mode, arity, scale = grid
        return OrderedExponent(mode, tuple(Fraction(x, scale) for x in
                                           _unpack(key, arity or 1, mode == LEX)))

    @staticmethod
    def grid_of(mode: str, arity: Optional[int], exps) -> Grid:
        """The coarsest grid holding every exponent of `exps` (all in the
        group mode/arity): scale = lcm of the coordinate denominators."""
        return (mode, arity, math.lcm(*(x.denominator for e in exps for x in e.value)))


# Tables repeat few distinct exponents, so the text boundary is memoised.
@lru_cache(maxsize=1 << 12)
def _key_text(key: int, grid: Grid) -> str:
    return OrderedExponent.decode(key, grid).render()


@lru_cache(maxsize=1 << 12)
def _text_key(text: str, grid: Grid) -> int:
    return OrderedExponent(grid[0], text.split(",")).encode(grid)


_TERM_RE = re.compile(r"^(-?\d+)\*v\^\((.+)\)$")
_DENOMINATOR_RE = re.compile(r"/(\d+)")


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

    def items(self):
        """The (int key, coefficient) pairs on `grid`."""
        return self._terms.items()

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

    def bar(self) -> "LaurentElt":
        """The involution v^g -> v^(-g), an exact ring automorphism."""
        return LaurentElt(self.grid, {-g: c for g, c in self._terms.items()})

    def split_by_sign(self) -> Tuple["LaurentElt", int, "LaurentElt"]:
        """Split into (negative-exponent part, coefficient of v^0, positive part)."""
        terms = self._terms
        return (LaurentElt(self.grid, {g: c for g, c in terms.items() if g < 0}),
                terms.get(0, 0),
                LaurentElt(self.grid, {g: c for g, c in terms.items() if g > 0}))

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
        if grid is None:
            if arity is None and terms:
                arity = _arity(mode, terms[0][2].count(",") + 1)
            grid = (mode, arity, math.lcm(*map(int, _DENOMINATOR_RE.findall(text))))
        acc: dict = {}
        for m in terms:
            key = _text_key(m[2], grid)
            acc[key] = acc.get(key, 0) + int(m[1])
        return LaurentElt(grid, {g: c for g, c in acc.items() if c})

    def __repr__(self) -> str:
        return f"LaurentElt({self.render()!r})"
