"""The Hecke algebra of a finite Coxeter group with unequal parameters.

Elements are finitely supported maps W -> Z[G] in the T-basis.  The
Kazhdan-Lusztig basis {C_w} is the unique basis with i(C_w) = C_w and
C_w - T_w supported on strictly negative exponents.  `kl_basis` builds
it in one pass over w in length order.  Each left descent s of w, with
u = sw, falls into one of four cases:

* construction step: s is the first letter of w's reduced word and
  L(s) > 0.  The bar-invariant product C_s C_u is reduced to C_w by
  subtracting bar-symmetric multiples m_y C_y of shorter elements,
  longest support element first; C_s C_u = C_w + sum_y m_y C_y.
* other ascent pairs, equal parameters: every positive weight is one
  value L.  Then m_y = mu(y,u), the coefficient of v^{-L} in p_{y,u},
  for each y != u with sy < y (Kazhdan and Lusztig, Representations of
  Coxeter groups and Hecke algebras, Invent. Math. 53 (1979), section 2),
  read straight off the known row C_u with no cancellation.  Zero
  weights do not break this: every exponent is then a multiple of L, so
  p_{z,y} lies in v^{-L} Z[v^{-L}] for z != y.  The T_y coefficient of
  C_s C_u is p_{sy,u} + v^L p_{y,u}, whose only term of exponent >= 0 is
  the constant mu(y,u), and by downward induction every m_z subtracted
  before y is an integer, which moves only exponents <= -L.  So the
  cancellation takes m_y = mu(y,u).
* other ascent pairs, unequal parameters: the same cancellation runs on
  C_s C_u and only its corrections m_y are kept, since C_w is already
  known.  (The mu read is false here: 8 of the 48 ascent pairs of B3
  with L = (1,1,3/2) fail it.)
* L(s) = 0: T_s^2 = 1, so C_w = T_s C_u with no cancellation.

Inside the construction a coefficient sum_e c_e v^e is one Python int,
X = sum_e c_e 2^(B (slot(e) + R)) (Kronecker substitution; `_Packing`
has the slot map).  Sums are int + and -, v^(+-L(s)) is a shift, the
zero test is X == 0, and m_y is the rounded high part of X.  Each row
carries a bound on its digits and on its exponents, checked before every
read of a digit; a table whose bound would pass B bits is rebuilt with
the next width of _SLOT_WIDTHS, and past the last one SlotOverflow is
raised, so a digit never wraps.  An exponent that could leave the slot
box raises BoxOverflow, which no width mends.  The ascent corrections
are decoded to LaurentElt once, when the construction ends; the rows of
a built table stay packed and are decoded as they are read
(`c_expansion`, `to_json_dict`).  A packed int spans the whole slot box,
a product over the exponent coordinates, so past _MAX_SLOTS slots (lex
weights on many coordinates, or rational weights of a very large ratio)
the table is built term by term as LaurentElt instead, with the same
cancellation (`_construct_terms`).  A table loaded from the KL cache
holds the LaurentElt it parsed and checked.

The corrections are all the construction knows about the C_s C_w table;
`KLTable.cs_product_in_c` derives every entry from them:

    C_s C_w = C_{sw}                          if L(s) = 0,
    C_s C_w = (v^{L(s)} + v^{-L(s)}) C_w      if sw < w and L(s) > 0,
    C_s C_w = C_{sw} + sum_y m_y C_y          if sw > w and L(s) > 0.

Nothing is multiplied out in the T-basis and then re-expanded.

The KL cache (format 3) stores only what the construction alone knows.
Of the C_s C_w table it writes the corrections of each ascent pair,
`{}` when there are none.  Of C_w = sum_y p_{y,w} T_y it writes only the
rows with index(w) <= index(w^-1): the anti-involution T_w -> T_{w^-1}
commutes with the bar involution, so it maps C_w to C_{w^-1} and

    p_{y,w} = p_{y^-1,w^-1}

and of each written row only the left-extremal coefficients.  For s in
L(w) with L(s) > 0, comparing T_y coefficients in
C_s C_w = (v^{L(s)} + v^{-L(s)}) C_w gives

    p_{y,w} = v^{-L(s)} p_{sy,w}    whenever sy > y

(Lusztig, Hecke algebras with unequal parameters, ch. 5-6), so only the
y with sy < y for every such s are written; the others are derived on
load by shifting exponent keys, walking down from the longest
element of each coset of the parabolic subgroup on those s.  A
zero-weight s is left out: C_s C_w = C_{sw} is not a multiple of C_w.
The rows that are not written are rebuilt from their inverses and share
their coefficients.  The file is compact JSON with a `format` field and
the SHA-256 of its canonical payload, checked before anything is parsed.
`KLTable.from_json_dict` loads only that document, the one
`KLTable.to_cache_text` writes, and lists the checks it makes.  Format 3
halves format 2: A5 (equal parameters) 594 kB -> 268 kB, F4 with
L = (1,1,2,2) 4.77 MB -> 2.50 MB.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from fractions import Fraction
from functools import cached_property
from operator import add, le, mul
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .coxeter import CoxeterGroup, WeightFunction, validate_weights
from .ordered_coeffs import LEX, LaurentElt, OrderedExponent

HeckeCoeffs = Dict[int, LaurentElt]
Packed = Dict[int, int]  # element -> packed coefficient (`_Packing`)

CACHE_FORMAT = 3

# Slot widths B in bits, tried in order: a table is built with the first
# one that its checked digit bound fits.
_SLOT_WIDTHS = (16, 32, 64)

# `kl_basis` builds a table whose slot box has more slots than this in the
# dict ring (`_construct_terms`); the loader never packs.  A packed
# coefficient is about B x (number of slots) bits, and in lex mode the box
# is a product over the coordinates.  On a 2-core Xeon with CPython 3.11,
# A1^7 with L = e_1, ..., e_7 (78 125 slots) took 1.1 s and 176 MB packed
# against 0.03 s and 22 MB in the dict ring, and A1^8 would take
# gigabytes; F4 with L = (e_1, e_1, e_2, e_2) (729 slots) took 5 s packed
# against 11 s, but 306 MB against 176 MB.
_MAX_SLOTS = 1 << 10


class SlotOverflow(ValueError):
    """A packed digit could pass the limit of its slot width: the table is
    rebuilt with the next width (see `_Packing`)."""


class BoxOverflow(ValueError):
    """A packed exponent could leave the slot box, which bounds every
    exponent the construction reaches: no slot width helps."""


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of every field of `doc` but `digest`."""
    return _sha256(_canonical({k: v for k, v in doc.items() if k != "digest"}))


class HeckeAlgebra:
    """Context object: group, validated weights, the grid every decoded
    coefficient keeps its int exponent keys on, and which generators have
    L(s) > 0."""

    def __init__(self, group: CoxeterGroup, weights: WeightFunction):
        validate_weights(group.matrix, weights, group.gen_names)
        self.group = group
        self.weights = weights
        self.grid = OrderedExponent.grid_of(weights.mode, weights.arity, weights.exps)
        self.positive = [L.sign() > 0 for L in weights.exps]

    def header(self) -> dict:
        """Group and weights as JSON: the head of the KL cache and reports."""
        weights = {self.group.gen_names[g]: self.weights[g].render()
                   for g in range(self.group.rank)}
        return {
            "matrix": [list(row) for row in self.group.matrix.entries],
            "generators": list(self.group.gen_names),
            "weights": weights,
            "mode": self.weights.mode,
            "arity": self.weights.arity,
        }

    def content_key(self) -> str:
        """SHA-256 of the header: the KL cache and snapshot key."""
        return _sha256(_canonical(self.header()))

    def one_coeff(self) -> LaurentElt:
        return LaurentElt(self.grid, {0: 1})

    @cached_property
    def equal_parameters(self) -> bool:
        """Every positive weight is the same: the ascent corrections are
        the mu(y,u) of the rows (module docstring)."""
        return len({L for L, p in zip(self.weights.exps, self.positive) if p}) == 1

    @cached_property
    def descent_masks(self) -> List[int]:
        """Bit s of entry w is set when s is in L(w) and L(s) > 0: the
        descents that relate the coefficients of C_w (module docstring).
        y is left-extremal for w when mask[w] is a subset of mask[y]."""
        group, positive = self.group, self.positive
        return [sum(1 << s for s in group.left_descents(w) if positive[s])
                for w in range(len(group))]


def _slot_box(algebra: HeckeAlgebra) -> Tuple[List[Fraction], List[int]]:
    """unit_i and box_i for every exponent coordinate (`_Packing`)."""
    group, exps = algebra.group, algebra.weights.exps
    w0_word = group.word(len(group) - 1)  # ShortLex: the last element is w0
    units: List[Fraction] = []
    box: List[int] = []
    for col in zip(*(L.value for L in exps)):
        den = math.lcm(*(x.denominator for x in col))
        unit = Fraction(math.gcd(*(x.numerator * (den // x.denominator) for x in col)),
                        den) or Fraction(1)
        units.append(unit)
        box.append(int((sum(abs(col[s]) for s in w0_word) + max(map(abs, col))) / unit))
    return units, box


def _packs(algebra: HeckeAlgebra) -> bool:
    """Whether a table of `algebra` is packed: its slot box has at most
    _MAX_SLOTS slots."""
    return math.prod(2 * b + 1 for b in _slot_box(algebra)[1]) <= _MAX_SLOTS


class _Packing:
    """The packed coefficients of one KL table, `bits` = B bits a slot.

    An exponent e has coordinates x_i = e_i / unit_i, with unit_i the gcd
    of the weights' i-th coordinates, so that L = 2 or L = 1/2 leaves no
    empty slot.  Every exponent the construction reaches lies in the box
    |x_i| <= box_i = (sum of |L(s)_i| along w0 + max_s |L(s)_i|) / unit_i,
    one coordinate L(w0) + max L for rational weights.  slot(e) =
    sum_i x_i place_i is a balanced mixed radix over the box: additive
    and order preserving on it.  R is one more than the largest |slot| in
    the box, so every position slot + R is positive and a shift by
    B slot(L(s)) multiplies by v^(+-L(s)) exactly.

    Digits are read (zero test, high part, mu, decode) only while a bound
    below `limit` = 2^(B-2) holds for every digit: then X has one balanced
    base-2^B expansion and every read is exact.  `check` raises
    SlotOverflow (BoxOverflow for an exponent) before a read that the
    bounds do not cover.
    """

    def __init__(self, algebra: HeckeAlgebra, bits: int):
        exps = algebra.weights.exps
        self.units, self.box = _slot_box(algebra)
        self.places: List[int] = []
        radix = 1
        for b in reversed(self.box):
            self.places.insert(0, radix)
            radix *= 2 * b + 1
        self.grid, self.mode = algebra.grid, algebra.weights.mode
        self.bits, self.R = bits, radix // 2 + 1
        self.BR = bits * self.R
        self.one = 1 << self.BR
        self.limit = 1 << (bits - 2)
        self.zero_reach = (0,) * len(self.box)
        # the weights are multiples of the units, so x / unit is exact
        coords = [[int(x / unit) for x, unit in zip(L.value, self.units)] for L in exps]
        self.shift = [bits * sum(map(mul, x, self.places)) for x in coords]
        self.abs_weight = [tuple(map(abs, x)) for x in coords]
        self._slot_key: Dict[int, int] = {}
        self._slot_reach: Dict[int, Tuple[int, ...]] = {}
        self._decoded: Dict[int, LaurentElt] = {}
        self._masks: Dict[int, Tuple[int, int]] = {}
        self._reaches: Dict[int, Tuple[int, ...]] = {}

    # -- exponents: grid keys, slots, coordinates -----------------------

    def _slot_coords(self, slot: int) -> Tuple[int, ...]:
        """The balanced mixed-radix digits of `slot`, most significant first."""
        out = []
        for place in self.places:
            q = (slot + place // 2) // place
            out.append(q)
            slot -= q * place
        return tuple(out)

    def _key(self, slot: int) -> int:
        key = self._slot_key.get(slot)
        if key is None:
            value = tuple(map(mul, self._slot_coords(slot), self.units))
            key = self._slot_key[slot] = OrderedExponent(self.mode, value).encode(self.grid)
        return key

    def _reach(self, slot: int) -> Tuple[int, ...]:
        """max |x_i| per coordinate of the exponent at `slot`."""
        reach = self._slot_reach.get(slot)
        if reach is None:
            reach = self._slot_reach[slot] = tuple(map(abs, self._slot_coords(slot)))
        return reach

    # -- digits ----------------------------------------------------------

    def check(self, reach: Tuple[int, ...], bound: int = 0) -> None:
        """SlotOverflow unless every exponent bounded by `reach` is in the
        box and every digit bounded by `bound` is below the limit."""
        if bound >= self.limit:
            raise SlotOverflow(f"a KL coefficient may not fit {self.bits}-bit slots")
        if not all(map(le, reach, self.box)):
            raise BoxOverflow("a KL exponent may leave the slot box")

    def _digits(self, x: int) -> List[Tuple[int, int]]:
        """(position, digit) for the nonzero balanced base-2^B digits of x."""
        bits, mask, half = self.bits, (1 << self.bits) - 1, 1 << (self.bits - 1)
        out, pos = [], 0
        while x:
            low = ((x & -x).bit_length() - 1) // bits
            x >>= low * bits  # exact: the digits below are zero
            pos += low
            d = x & mask
            if d >= half:
                d -= 1 << bits
            out.append((pos, d))
            x = (x - d) >> bits
            pos += 1
        return out

    def mirror(self, hi: int) -> Tuple[int, List[Tuple[int, int]], int, Tuple[int, ...]]:
        """For the high part hi = sum_{e>=0} c_e 2^(B e) of a coefficient,
        the bar-invariant m = sum c_e (v^e + v^-e) (v^0 once): packed, as
        (k, c) terms with m x = sum c (x << k) (a negative k a right shift)
        for a packed x, its sum of |digits|, and max |x_i| over its
        exponents."""
        bits, R = self.bits, self.R
        m, terms, norm, reach = 0, [], 0, self.zero_reach
        for slot, d in self._digits(hi):
            m += d << (bits * (R + slot))
            terms.append((bits * slot, d))
            norm += abs(d)
            if slot:
                m += d << (bits * (R - slot))
                terms.append((-bits * slot, d))
                norm += abs(d)
            reach = tuple(map(max, reach, self._reach(slot)))
        return m, terms, norm, reach

    def row_reach(self, row: Iterable[int]) -> Tuple[int, ...]:
        """max |x_i| per coordinate over the exponents of the packed
        coefficients `row`, which are all at most 0.  With one coordinate
        that is the lowest nonzero position, read off the lowest set bit;
        in lex mode a later coordinate of a higher position can be larger,
        so every digit is read (memoised per coefficient)."""
        bits, R = self.bits, self.R
        if len(self.box) == 1:
            return (R - min(((x & -x).bit_length() - 1) // bits for x in row),)
        memo, found = self._reaches, set()
        for x in row:
            r = memo.get(x)
            if r is None:
                r = memo[x] = tuple(map(max, self.zero_reach, *(
                    self._reach(pos - R) for pos, _ in self._digits(x))))
            found.add(r)
        return tuple(map(max, self.zero_reach, *found))

    def tighten(self, values: Iterable[int], bound: int) -> int:
        """A digit bound for `values`, all of whose digits are bounded by
        `bound` < limit: the least 2^t, t = 4, 6, ..., that holds for every
        digit, else `bound`.  x + (2^t on every position) has no bit
        between t + 1 and B - 1 of a position set exactly when every digit
        of x is in [-2^t, 2^t)."""
        values = list(values)
        t = 4
        while 1 << t < bound:
            offset, high = self._mask(t)
            acc = 0
            for x in values:
                acc |= x + offset
            if not acc & high:
                return 1 << t
            t += 2
        return bound

    def _mask(self, t: int) -> Tuple[int, int]:
        masks = self._masks.get(t)
        if masks is None:
            bits = self.bits
            every = ((1 << (bits * (2 * self.R + 1))) - 1) // ((1 << bits) - 1)
            masks = self._masks[t] = (every << t, every * ((1 << bits) - (1 << (t + 1))))
        return masks

    # -- the boundary ----------------------------------------------------

    def decode(self, x: int) -> LaurentElt:
        elt = self._decoded.get(x)
        if elt is None:
            R = self.R
            elt = self._decoded[x] = LaurentElt(
                self.grid, {self._key(pos - R): d for pos, d in self._digits(x)})
        return elt


class KLTable:
    """The KL basis: the T-expansion of every C_w, and the corrections
    {y: m_y} of C_s C_u = C_su + sum_y m_y C_y for every ascent pair
    (s, u), su > u and L(s) > 0, from which the C_s C_w table is derived.
    The corrections are LaurentElt, and so are the rows unless `decode`
    is given: then they are the packed ints of `kl_basis` (`_Packing`),
    decoded as they are read."""

    def __init__(self, algebra: HeckeAlgebra, c_exp: List[dict],
                 corrections: Dict[Tuple[int, int], HeckeCoeffs],
                 decode: Optional[Callable[[int], LaurentElt]] = None):
        self.algebra = algebra
        self.group = algebra.group
        self._c_exp = c_exp
        self._corrections = corrections
        self._decode = decode
        grid = algebra.grid
        self._one = algebra.one_coeff()
        # v^L(s) + v^-L(s): C_s C_w is this multiple of C_w when sw < w
        self._scalar = [LaurentElt.v_power(L, grid=grid) + LaurentElt.v_power(-L, grid=grid)
                       for L in algebra.weights.exps]

    def c_expansion(self, w: int) -> HeckeCoeffs:
        """C_w in the T-basis."""
        decode = self._decode
        if decode is None:
            return dict(self._c_exp[w])
        return {y: decode(x) for y, x in self._c_exp[w].items()}

    def cs_product_in_c(self, s: int, w: int) -> HeckeCoeffs:
        """C_s C_w in the C-basis, derived from the stored corrections by
        the three rules in the module docstring."""
        sw = self.group.lmul_gen(s, w)
        if not self.algebra.positive[s]:
            return {sw: self._one}
        if sw < w:
            return {w: self._scalar[s]}
        return {sw: self._one, **self._corrections[(s, w)]}

    # -- serialization ---------------------------------------------------

    def to_json_dict(self, stored_only: bool = False) -> dict:
        """The table as JSON: the `klbasis` output.  With `stored_only`, the
        part the KL cache keeps: the C_w rows with index(w) <= index(w^-1),
        each with its left-extremal coefficients only, and the corrections
        of each ascent pair in place of the C_s C_w table."""
        group, algebra = self.group, self.algebra
        n = len(group)
        names = [group.name(w) for w in range(n)]
        # Tables share few distinct coefficient objects, so each is rendered
        # once.  The memo holds the object with its text: no id is reused.
        texts: Dict[int, Tuple[LaurentElt, str]] = {}

        def render(c: LaurentElt) -> str:
            hit = texts.get(id(c))
            if hit is None:
                hit = texts[id(c)] = (c, c.render())
            return hit[1]

        row_text, decode = render, self._decode
        if decode is not None:
            # Equal packed ints are often distinct objects, and an int hashes
            # cheaply (a LaurentElt does not): memoised by value.
            packed_texts: Dict[int, str] = {}

            def row_text(x: int) -> str:
                text = packed_texts.get(x)
                if text is None:
                    text = packed_texts[x] = render(decode(x))
                return text

        def to_json(h: dict, text: Callable[..., str] = render) -> dict:
            return {names[y]: text(h[y]) for y in sorted(h)}

        doc = algebra.header()
        doc["key"] = algebra.content_key()
        if stored_only:
            masks, inv = algebra.descent_masks, group.inv
            c_basis = {}
            for w in range(n):
                if inv(w) >= w:
                    m = masks[w]
                    c_basis[names[w]] = to_json(
                        {y: x for y, x in self._c_exp[w].items() if masks[y] & m == m},
                        row_text)
            products = sorted(self._corrections.items())
        else:
            c_basis = {names[w]: to_json(self._c_exp[w], row_text) for w in range(n)}
            products = [((s, w), self.cs_product_in_c(s, w))
                        for s in range(group.rank) for w in range(n)]
        doc["c_basis"] = c_basis
        doc["cs_products"] = {f"{group.gen_names[s]}|{names[w]}": to_json(h)
                              for (s, w), h in products}
        return doc

    def to_cache_text(self) -> str:
        """The format-3 KL cache file: compact canonical JSON of the stored
        part of the table plus `format`, then `digest` (payload_digest of
        the rest) appended as the last field."""
        doc = self.to_json_dict(stored_only=True)
        doc["format"] = CACHE_FORMAT
        body = _canonical(doc)
        return f'{body[:-1]},"digest":"{_sha256(body)}"}}'

    @staticmethod
    def from_json_dict(doc: dict, algebra: HeckeAlgebra) -> "KLTable":
        """Load the KL cache document that `to_cache_text` writes, and
        nothing else.

        The top-level fields must be exactly the writer's: `format` equal
        to CACHE_FORMAT, the header of `algebra`, its content `key`, and a
        `digest` equal to the payload digest.  Each row held must be one
        with index(w) <= index(w^-1), all of them must be present, and
        each must hold p_{w,w} = 1 and, elsewhere, only left-extremal,
        shorter y (smaller index) with negative exponents.  Each product
        key must be an ascent pair, all of them must be present, and each
        correction must be nonzero, bar-invariant and sit at a y with
        sy < y shorter than su.  In lex mode each derived exponent must
        keep the coordinate bound.  Anything else raises ValueError (or
        KeyError, TypeError, ... on a document of the wrong shape).  The
        table holds the LaurentElt parsed and checked here; the rows that
        are not stored, and the coefficients that are not left-extremal,
        are derived from them by exponent key shifts and share them.
        """
        header = dict(algebra.header(), format=CACHE_FORMAT, key=algebra.content_key())
        if (set(doc) != {*header, "c_basis", "cs_products", "digest"}
                or _canonical({k: doc[k] for k in header}) != _canonical(header)):
            raise ValueError(f"not a format-{CACHE_FORMAT} KL cache of this algebra")
        if doc["digest"] != payload_digest(doc):
            raise ValueError("KL cache digest mismatch")
        group, grid = algebra.group, algebra.grid
        inv, lmul, length = group.inv, group.lmul_gen, group.length
        names = [group.name(w) for w in range(len(group))]
        index = {nm: w for w, nm in enumerate(names)}
        parsed: Dict[str, LaurentElt] = {}  # the file repeats few distinct coefficients

        def coeffs(obj: dict) -> HeckeCoeffs:
            out = {}
            for nm, txt in obj.items():
                c = parsed.get(txt)
                if c is None:
                    c = parsed[txt] = LaurentElt.parse(txt, grid=grid)
                out[index[nm]] = c
            return out

        stored: Dict[int, HeckeCoeffs] = {}
        for name, obj in doc["c_basis"].items():
            w = index[name]
            if inv(w) < w:
                raise ValueError(f"row {name} is derived, not stored")
            stored[w] = _check_row(algebra, w, coeffs(obj))
        for w in range(len(group)):
            if inv(w) > w and w not in stored:
                raise ValueError(f"stored row {names[w]} is missing")

        products: Dict[Tuple[int, int], HeckeCoeffs] = {}
        for key, obj in doc["cs_products"].items():
            sname, uname = key.split("|", 1)
            s, u = group.gen_names.index(sname), index[uname]
            su = lmul(s, u)
            if not (algebra.positive[s] and su > u):
                raise ValueError(f"C_s C_w for {key} is derived, not stored")
            h = coeffs(obj)
            for y, m in h.items():
                if (not m or m.bar() != m or lmul(s, y) > y
                        or length(y) >= length(su)):
                    raise ValueError(f"bad correction at y = {names[y]} for {key}")
            products[(s, u)] = h
        if len(products) != sum(algebra.positive) * len(group) // 2:
            raise ValueError("an ascent pair of the C_s C_w table is missing")

        c_exp: List[HeckeCoeffs] = [None] * len(group)
        walks: Dict[int, list] = {}
        shifted: Dict[Tuple[int, int], LaurentElt] = {}
        for w, row in stored.items():
            c_exp[w] = _complete_row(algebra, w, row, walks, shifted)
        if grid[0] == LEX:
            # A derived exponent is a stored one less L(u), and a lex
            # coordinate has a bound that decode checks.
            for key in {g for c in shifted.values() for g, _ in c.items()}:
                OrderedExponent.decode(key, grid)
        for w, row in enumerate(c_exp):
            if row is None:
                c_exp[w] = {inv(y): c for y, c in c_exp[inv(w)].items()}
        return KLTable(algebra, c_exp, products)


def _check_row(algebra: HeckeAlgebra, w: int, stored: HeckeCoeffs) -> HeckeCoeffs:
    """`stored`, a stored row of C_w, if it has p_{w,w} = 1 and, elsewhere,
    only shorter y with negative exponents, each left-extremal: the longest
    element of its coset Pz, for P the parabolic subgroup on the s in L(w)
    with L(s) > 0."""
    group = algebra.group
    if stored.get(w) != algebra.one_coeff():
        raise ValueError(f"p_(w,w) != 1 for w = {group.name(w)}")
    masks = algebra.descent_masks
    m = masks[w]
    for y, c in stored.items():
        _, const, pos = c.split_by_sign()
        if y != w and (y > w or not c or const or pos):
            raise ValueError(f"p_(y,w) is not a shorter element's coefficient with "
                             f"negative exponents: y = {group.name(y)}, w = {group.name(w)}")
        if masks[y] & m != m:
            raise ValueError(f"p_(y,w) for y = {group.name(y)}, w = {group.name(w)} "
                             f"is stored but not left-extremal")
    return stored


def _parabolic_walk(algebra: HeckeAlgebra, gens: Tuple[int, ...]) -> List[Tuple[int, int, int]]:
    """The elements u != e of the parabolic subgroup on `gens`, shortest
    first, each as (i, s, key): u = s u_i with l(u) = l(u_i) + 1, where
    u_i is the i-th element of the walk counting e as 0, and key is the
    grid key of L(u)."""
    group, grid = algebra.group, algebra.grid
    weight_keys = [L.encode(grid) for L in algebra.weights.exps]
    elems, keys = [group.identity], [0]
    seen = {group.identity}
    walk = []
    for i, u in enumerate(elems):  # grows while it is read
        for s in gens:
            su = group.lmul_gen(s, u)
            if su > u and su not in seen:
                seen.add(su)
                elems.append(su)
                keys.append(keys[i] + weight_keys[s])
                walk.append((i, s, keys[-1]))
    return walk


def _complete_row(algebra: HeckeAlgebra, w: int, stored: HeckeCoeffs,
                  walks: Dict[int, list], shifted: Dict[Tuple[int, int], LaurentElt]
                  ) -> HeckeCoeffs:
    """C_w from its checked stored coefficients.  With P the parabolic
    subgroup on the s in L(w) with L(s) > 0, a left-extremal z is the
    longest element of its coset Pz, and p_{uz,w} = v^{-L(u)} p_{z,w} for
    u in P, by the identity in the module docstring along a reduced word
    of u: the exponent keys of p_{z,w} less the key of L(u).  `walks`
    memoises _parabolic_walk per descent mask, and `shifted` each
    v^{-L(u)} p_{z,w} per stored coefficient (by id: the loader keeps
    them all) and key, so that equal coefficients share one object."""
    group, grid = algebra.group, algebra.grid
    m = algebra.descent_masks[w]
    if not m:
        return stored
    walk = walks.get(m)
    if walk is None:
        gens = tuple(s for s in range(group.rank) if m >> s & 1)
        walk = walks[m] = _parabolic_walk(algebra, gens)
    lmul = group.lmul_gen
    row: HeckeCoeffs = {}
    for z, c in stored.items():
        row[z] = c
        coset = [z]  # coset[i] = u_i z, walking down from z
        for i, s, key in walk:
            y = lmul(s, coset[i])
            coset.append(y)
            x = shifted.get((id(c), key))
            if x is None:
                x = shifted[id(c), key] = LaurentElt(grid, {g - key: k for g, k in c.items()})
            row[y] = x
    return row


def _cancel(pk: _Packing, s: int, left: List[int], u: int, w: int,
            c_exp: List[Packed], digits: List[int], reach: List[Tuple[int, ...]]
            ) -> Tuple[Packed, Packed, int]:
    """For an ascent w = su > u with L(s) > 0, return (C_w, {y: m_y}) with
    C_s C_u = C_w + sum_y m_y C_y, packed, and a bound on the digits of
    C_w.

    C_s C_u = T_s C_u + v^{-L(s)} C_u is bar-invariant; the non-negative
    part of each lower coefficient is cancelled by subtracting a
    bar-symmetric multiple m_y C_y, longest support element first (highest
    index among equal lengths).  Subtracting m_y C_y changes only y and
    elements shorter than y, so a heap of pending indices gives that
    order: element indices are in ShortLex order, so a larger index is
    never shorter.  m_y is the rounded high part of the coefficient, and
    m_y C_y is an int multiply when m_y is a constant, else one shift and
    multiply per term of m_y: cheaper than a Kronecker product of whole
    ints, as m_y has few terms and lex slots are wide.  left[y] is sy.

    Only y with sy < y are visited: C_s C_u lies in the span of the C_y
    with sy < y (Lusztig, Hecke algebras with unequal parameters,
    Theorem 6.6; the argument needs only L(s) > 0), so m_y = 0 for the
    others and their coefficients are already strictly negative.
    """
    sh, BR, one = pk.shift[s], pk.BR, pk.one
    half, small = one >> 1, pk.limit << 1
    # Each coefficient of C_s C_u is the sum of two of C_u's.
    bound = 2 * digits[u]
    top = tuple(map(add, reach[u], pk.abs_weight[s]))
    pk.check(top, bound)
    # C_s T_y = T_{sy} + v^{L(s)} T_y when sy < y, else T_{sy} + v^{-L(s)} T_y.
    cand: Packed = {}
    for y, x in c_exp[u].items():
        sy = left[y]
        cand[sy] = cand.get(sy, 0) + x
        cand[y] = cand.get(y, 0) + (x << sh if sy < y else x >> sh)
    heap = [-y for y in cand if y != w and left[y] < y]
    heapq.heapify(heap)
    correction: Packed = {}
    while heap:
        y = -heapq.heappop(heap)
        hi = (cand[y] + half) >> BR
        if not hi:
            continue
        if -small <= hi < small:  # the constant hi
            m, terms, norm, ext = hi * one, None, abs(hi), pk.zero_reach
        else:
            m, terms, norm, ext = pk.mirror(hi)
        bound += norm * digits[y]
        top = tuple(map(max, top, map(add, ext, reach[y])))
        pk.check(top, bound)
        correction[y] = m
        for z, cz in c_exp[y].items():
            if terms is None:
                term = hi * cz
            else:
                term = 0
                for k, d in terms:
                    term += d * (cz << k if k >= 0 else cz >> -k)
            x = cand.get(z)
            if x is not None:
                cand[z] = x - term
            else:  # new to the heap's view of cand
                cand[z] = -term
                if left[z] < z:
                    heapq.heappush(heap, -z)
    return {y: x for y, x in cand.items() if x}, correction, bound


def _read_mu(pk: _Packing, s: int, left: List[int], u: int, row: Packed) -> Packed:
    """The corrections of the ascent pair (s, u) for equal parameters:
    mu(y,u), the digit of p_{y,u} at v^{-L(s)}, for y != u with sy < y
    (left[y] = sy).  p_{y,u} has no exponent above -L(s), so the digit is
    the rounded high part of its packed int at that position."""
    shift = pk.BR - pk.shift[s]
    half = 1 << (shift - 1)
    out: Packed = {}
    for y, x in row.items():
        if y != u and left[y] < y:
            mu = (x + half) >> shift
            if mu:
                out[y] = mu * pk.one
    return out


def _construct(algebra: HeckeAlgebra, pk: _Packing) -> KLTable:
    group, positive = algebra.group, algebra.positive
    n = len(group)
    left = [[group.lmul_gen(s, y) for y in range(n)] for s in range(group.rank)]
    c_exp: List[Packed] = [{group.identity: pk.one}] + [None] * (n - 1)
    digits = [1] * n  # bound on every digit of C_w's coefficients
    reach = [pk.zero_reach] * n  # bound on |x_i| over their exponents
    corrections: Dict[Tuple[int, int], Packed] = {}
    for w in range(1, n):
        first = group.word(w)[0]
        for s in group.left_descents(w):
            u = left[s][w]
            if not positive[s]:
                # T_s^2 = 1, so T_s T_y = T_{sy}: C_w = T_s C_u is C_u
                # relabelled, with no cancellation.
                if s == first:
                    c_exp[w] = {left[s][y]: x for y, x in c_exp[u].items()}
                    digits[w], reach[w] = digits[u], reach[u]
            elif s == first:
                c_exp[w], corrections[(s, u)], bound = _cancel(
                    pk, s, left[s], u, w, c_exp, digits, reach)
                digits[w] = pk.tighten(c_exp[w].values(), bound)
                reach[w] = pk.row_reach(c_exp[w].values())
            elif algebra.equal_parameters:
                corrections[(s, u)] = _read_mu(pk, s, left[s], u, c_exp[u])
            else:
                corrections[(s, u)] = _cancel(pk, s, left[s], u, w, c_exp, digits, reach)[1]
    decode = pk.decode
    return KLTable(algebra, c_exp, {pair: {y: decode(m) for y, m in h.items()}
                                    for pair, h in corrections.items()}, decode)


def _add_into(h: HeckeCoeffs, y: int, c: LaurentElt) -> None:
    """h[y] += c in place, dropping the entry if it cancels."""
    total = h[y] + c if y in h else c
    if total:
        h[y] = total
    else:
        del h[y]


def _cancel_terms(algebra: HeckeAlgebra, s: int, u: int, w: int, c_exp: List[HeckeCoeffs],
                  v_plus: LaurentElt, v_minus: LaurentElt) -> Tuple[HeckeCoeffs, HeckeCoeffs]:
    """`_cancel` in the dict ring: (C_w, {y: m_y}) with C_s C_u = C_w +
    sum_y m_y C_y, each m_y the bar-symmetric extension of the part of the
    T_y coefficient with exponents >= 0 (v^0 once); v_plus and v_minus
    are v^(+-L(s))."""
    group, grid = algebra.group, algebra.grid
    cand: HeckeCoeffs = {}
    for y, c in c_exp[u].items():
        sy = group.lmul_gen(s, y)
        _add_into(cand, sy, c)
        _add_into(cand, y, (v_plus if sy < y else v_minus) * c)
    heap = [-y for y in cand if y != w and group.lmul_gen(s, y) < y]
    heapq.heapify(heap)
    queued = set(cand)
    correction: HeckeCoeffs = {}
    while heap:
        y = -heapq.heappop(heap)
        c = cand.get(y)
        if c is None:
            continue
        terms = {}
        for g, k in c.items():
            if g >= 0:
                terms[g] = terms[-g] = k
        if not terms:
            continue
        m = correction[y] = LaurentElt(grid, terms)
        minus_m = m * -1
        for z, cz in c_exp[y].items():
            _add_into(cand, z, minus_m * cz)
            if z not in queued:
                queued.add(z)
                if group.lmul_gen(s, z) < z:
                    heapq.heappush(heap, -z)
    return cand, correction


def _construct_terms(algebra: HeckeAlgebra) -> KLTable:
    """`_construct` in the dict ring, for a slot box too wide to pack:
    every ascent pair by the full cancellation."""
    group, grid = algebra.group, algebra.grid
    n = len(group)
    v_pm = [(LaurentElt.v_power(L, grid=grid), LaurentElt.v_power(-L, grid=grid))
            for L in algebra.weights.exps]
    c_exp: List[HeckeCoeffs] = [{group.identity: algebra.one_coeff()}] + [None] * (n - 1)
    corrections: Dict[Tuple[int, int], HeckeCoeffs] = {}
    for w in range(1, n):
        first = group.word(w)[0]
        for s in group.left_descents(w):
            u = group.lmul_gen(s, w)
            if not algebra.positive[s]:
                if s == first:
                    c_exp[w] = {group.lmul_gen(s, y): c for y, c in c_exp[u].items()}
                continue
            cw, corrections[(s, u)] = _cancel_terms(algebra, s, u, w, c_exp, *v_pm[s])
            if s == first:
                c_exp[w] = cw
    return KLTable(algebra, c_exp, corrections)


def kl_basis(algebra: HeckeAlgebra) -> KLTable:
    """Compute the full KL basis and the corrections of every ascent pair.

    Every left descent s of w with L(s) > 0, with u = sw, gives the
    corrections of the ascent pair (s, u); see the module docstring.  The
    table is built with the first slot width of _SLOT_WIDTHS whose checked
    bounds hold; SlotOverflow if none does, BoxOverflow at once if an
    exponent could leave the slot box.  A slot box of more than
    _MAX_SLOTS slots is not packed: the table is built in the dict ring.
    """
    if not _packs(algebra):
        return _construct_terms(algebra)
    for bits in _SLOT_WIDTHS[:-1]:
        try:
            return _construct(algebra, _Packing(algebra, bits))
        except SlotOverflow:
            pass
    return _construct(algebra, _Packing(algebra, _SLOT_WIDTHS[-1]))
