"""The Hecke algebra of a finite Coxeter group with unequal parameters.

Elements are finitely supported maps W -> Z[G] in the T-basis.  The
Kazhdan-Lusztig basis {C_w} is the unique basis with i(C_w) = C_w and
C_w - T_w supported on strictly negative exponents.  `kl_basis` builds
it in one pass over w in length order.  Each left descent s of w, with
u = sw, falls into one of four cases:

* construction step: s is the first letter of w's reduced word and
  L(s) > 0.  The bar-invariant product C_s C_u is reduced to C_w by
  subtracting bar-symmetric multiples m_y C_y of shorter elements,
  longest support element first, each C_y within the support of C_s C_u
  (`_cancel`); C_s C_u = C_w + sum_y m_y C_y.
* other ascent pairs, equal parameters: every positive weight is one
  value L.  Then m_y = mu(y,u), the coefficient of v^{-L} in p_{y,u},
  for each y != u with sy < y (Kazhdan and Lusztig, Representations of
  Coxeter groups and Hecke algebras, Invent. Math. 53 (1979), section 2),
  at every ascent pair, construction steps included.  Zero weights do
  not break this: every exponent is then a multiple of L, so p_{z,y}
  lies in v^{-L} Z[v^{-L}] for z != y.  The T_y coefficient of C_s C_u
  is p_{sy,u} + v^L p_{y,u}, whose only term of exponent >= 0 is the
  constant mu(y,u), and by downward induction every m_z subtracted
  before y is an integer, which moves only exponents <= -L.  So the
  cancellation takes m_y = mu(y,u).  The mu follow from the stored part
  of the table (below), so the construction keeps no correction and
  does no work for these pairs: `_mu_corrections` derives every one,
  for a built and a loaded table alike.
* other ascent pairs, unequal parameters: the same cancellation runs on
  C_s C_u and only its corrections m_y are kept, since C_w is already
  known.  (The mu rule is false here: 8 of the 48 ascent pairs of B3
  with L = (1,1,3/2) fail it.)
* L(s) = 0: T_s^2 = 1, so C_w = T_s C_u with no cancellation.

Inside the construction a coefficient sum_e c_e v^e is one Python int,
X = sum_e c_e 2^(B (slot(e) + R)) (Kronecker substitution, B = _BITS;
`_Packing` has the slot map).  Sums are int + and -, v^(+-L(s)) is a
shift, the zero test is X == 0, and m_y is the rounded high part of X.
Each row carries a bound on its digits and on its exponents, checked
before every read of a digit, so a digit never wraps.  A row's exponent
bound is the one its construction step carried out of the cancellation:
C_w is a sum of the terms of C_s C_u and of the m_y C_y, and `_cancel`
bounds and checks the exponents of each before it adds them, so the
bound may be looser than the exact one but never tighter.  On every
input checked (A4, A5, D4, D5, H3, B3, B4, B5, F4, I2(m) and A1^4, with
equal, zero, integer, rational and lex weights) it was L(w), per
coordinate, at every step.  When the construction ends, the part of the
table that the KL cache stores (below) is decoded to LaurentElt once,
and no packed int leaves it.  A table that does not pack (a slot box of
more than _MAX_SLOTS slots, or a digit or exponent bound its slots do
not hold) is built term by term as LaurentElt instead, with the same
cancellation (`_construct_terms`).

The corrections are all the construction needs to know about the C_s C_w
table; `KLTable.cs_product_in_c` derives every entry from them:

    C_s C_w = C_{sw}                          if L(s) = 0,
    C_s C_w = (v^{L(s)} + v^{-L(s)}) C_w      if sw < w and L(s) > 0,
    C_s C_w = C_{sw} + sum_y m_y C_y          if sw > w and L(s) > 0.

Nothing is multiplied out in the T-basis and then re-expanded.

The KL cache (format 7) stores a part of the table from which the rest
is cheap to derive.  Of the C_s C_w table it writes, with unequal
parameters, the corrections of each ascent pair, `{}` when there are
none, and with equal parameters none at all (below).  Of C_w = sum_y
p_{y,w} T_y it writes one row per orbit of W under the symmetries of the
table, and of each written row only the coefficients extremal on both
sides.

The symmetries are w -> w^-1 and the diagram automorphisms.  The
anti-involution T_w -> T_{w^-1} commutes with the bar involution, so it
maps C_w to C_{w^-1} and

    p_{y,w} = p_{y^-1,w^-1}.

A permutation pi of the generators with m_{pi s, pi t} = m_st and
L(pi s) = L(s) extends to an automorphism sigma of W, sigma(s_1 ... s_k)
= pi(s_1) ... pi(s_k), and T_w -> T_{sigma(w)} to an automorphism of the
Hecke algebra that commutes with the bar involution, so

    p_{sigma(y),sigma(w)} = p_{y,w}

(Lusztig, Hecke algebras with unequal parameters, CRM Monograph Series
18, 2003, ch. 5-6).  `diagram_automorphisms` finds every such pi that
moves the generators of one connected component of the Coxeter graph:
none for B3, H3, F4 with L = (1,1,2,2) or I2(4) with L = (1,2), the five
of triality for D4, one flip for A_n (n > 1), D_n (n > 4), E6 and, with
equal weights, B2, F4 and I2(m).  The orbits of W under the group that
these and w -> w^-1 generate are walked breadth-first, and the smallest
index in each is its representative (`HeckeAlgebra.orbits`, through
`coxeter.orbit_walks`); the rows
written are exactly the representatives'.  Every other member w = g(x),
for g a generator and x a member walked before w, has p_{g(y),w} =
p_{y,x}: its row is x's relabelled.  So the ShortLex order and the set
of symmetries the search finds are part of the format: a change to
either must bump CACHE_FORMAT.  With equal parameters `kl_basis` builds
the representatives' rows alone and relabels the others; with unequal
ones it builds every row, as w -> w^-1 does not carry the corrections
of C_s C_u (it turns left products into right ones).

Of each written row only the coefficients extremal on both sides are
kept.  For s in L(w) with L(s) > 0, comparing T_y coefficients in
C_s C_w = (v^{L(s)} + v^{-L(s)}) C_w gives

    p_{y,w} = v^{-L(s)} p_{sy,w}    whenever sy > y

(Lusztig, ch. 5-6), and for s in R(w) with L(s) > 0, from C_w C_s =
(v^{L(s)} + v^{-L(s)}) C_w,

    p_{y,w} = v^{-L(s)} p_{ys,w}    whenever ys > y.

So with I and J the generators of positive weight in L(w) and R(w),
p_{y,w} = v^{-(L(z) - L(y))} p_{z,w} on each double coset P_I z P_J of
the parabolic subgroups, z its longest element (Geck and Pfeiffer,
Characters of finite Coxeter groups and Iwahori-Hecke algebras, 2.1),
and only those z are kept: the y with sy < y for every s in I and
ys < y for every s in J.  A zero-weight s is left out: C_s C_w = C_{sw}
is not a multiple of C_w.  Of them, p_{w,w} = 1 is not written: the
loader restores it.

With equal parameters these kept coefficients give every mu(y,u), L
the weight: mu(y,u) is the v^-L coefficient of p_{y,u}.  On a double
coset P_I z P_J with z != u, p_{y,u} = v^{-(L(z) - L(y))} p_{z,u} has
no exponent above -2L unless y = z, so only the kept z can have
mu != 0.  On the double coset of u itself p_{y,u} = v^{-(L(u) - L(y))},
so mu(y,u) = 1 exactly at y = tu (t in I) and y = ut (t in J).  A row u
not written, u = g(x), reads mu(g(y),u) = mu(y,x) off the row of x.  So
the corrections of (s, u) are the mu(y,u) at the y with s in L(y) but
not in L(u) (`_mu_corrections`), and the cache does not write them.

A KLTable holds just that stored part, p_{w,w} included, built
(`kl_basis`) or loaded (`KLTable.from_json_dict`, which checks it), and
`KLTable._row` derives the rest of a written row when it is read, down
each double coset by exponent key shifts, and `KLTable._orbit_rows`
relabels it along its orbit.
With equal parameters the table derives its corrections when it is made,
from the stored rows and the group tables alone.  `cells` reads only
the corrections and derives no row.  The
file is compact JSON with a `format` field and the SHA-256 of its
canonical payload, checked before anything is parsed; `to_cache_text`
renders what the table holds and `from_json_dict` loads only that.  It
keys element w by its index as a decimal string, str(w) (`"57"`, and
`"s|57"` for a product); the loader knows no other spelling.  That index is the ShortLex order that
`CoxeterGroup` enumerates in, which picks the orbit representatives too.
These digests, the `content_key` in the file name and the `"key"` of the
`cells` output are SHA-256 from CPython's built-in `_sha256` module
(`_sha2` from 3.12), and from hashlib only where neither exists: the
digest is the same, and `import hashlib` loads OpenSSL, which cost each
`klcells` process about 5 ms and 4 MB (2-core Xeon, CPython 3.11).
A cache holds 3.6 kB for D4, 21 kB for A5 and 227 kB for F4 (equal
parameters), and 655 kB for F4 with L = (1,1,2,2), which no diagram
automorphism keeps.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, le, mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .coxeter import CoxeterGroup, CoxeterMatrix, WeightFunction, orbit_walks, validate_weights
from .ordered_coeffs import LaurentElt, OrderedExponent

HeckeCoeffs = Dict[int, LaurentElt]
Packed = Dict[int, int]  # element -> packed coefficient (`_Packing`)

CACHE_FORMAT = 7

# The slot width B in bits.  The largest checked digit bound measured is
# 1888, on B5 with L = (1,1,1,1,2), against the limit 2^(B-2) = 16 384.
_BITS = 16

# `_Packing` refuses a slot box of more slots than this.  A packed
# coefficient is about B x (number of slots) bits, and in lex mode the box
# is a product over the coordinates.  On a 2-core Xeon with CPython 3.11
# (CPU seconds, peak RSS), A1^7 with L = e_1, ..., e_7 (78 125 slots) took
# 0.88-0.96 s and 170 MB packed against 0.013-0.025 s and 17 MB in the dict
# ring, and A1^8 would take gigabytes; F4 with L = (e_1, e_1, e_2, e_2)
# (729 slots) took 3.3-4.2 s packed against 8.6-9.8 s, but 303 MB against
# 171 MB.
_MAX_SLOTS = 1 << 10


class _Unpackable(ArithmeticError):
    """The table does not pack: its slot box is too wide, or a checked
    digit or exponent bound leaves the slots (`_Packing`)."""


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    """The hex SHA-256 of `text` as UTF-8, without OpenSSL where the
    interpreter has its own (see the module docstring)."""
    try:
        from _sha256 import sha256  # CPython up to 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # CPython from 3.12
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def payload_digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of every field of `doc` but `digest`."""
    return _sha256(_canonical({k: v for k, v in doc.items() if k != "digest"}))


def diagram_automorphisms(matrix: CoxeterMatrix, weights: WeightFunction
                          ) -> List[Tuple[int, ...]]:
    """Every permutation pi != 1 of the generators that moves only those
    of one connected component of the Coxeter graph (bonds m_st > 2), with
    m_{pi s, pi t} = m_st and L(pi s) = L(s) for all s and t: pi[s] is the
    image of s.  Each component is searched by backtracking over its
    generators in breadth-first order from its first, so that each one
    after the first is bonded to an earlier one; an image is tried only
    where every bond to an earlier generator's image matches, and a
    mismatch drops the branch at once, so no search runs over all
    permutations of the generators."""
    m, rank = matrix.entries, matrix.rank
    out: List[Tuple[int, ...]] = []
    seen = [False] * rank
    for root in range(rank):
        if seen[root]:
            continue
        seen[root] = True
        order = [root]
        for s in order:  # grows while it is read
            for t in range(rank):
                if m[s][t] > 2 and not seen[t]:
                    seen[t] = True
                    order.append(t)
        image: Dict[int, int] = {}

        def extend(k: int) -> None:
            if k == len(order):
                if any(t != s for s, t in image.items()):
                    out.append(tuple(image.get(s, s) for s in range(rank)))
                return
            s, used = order[k], set(image.values())
            for t in order:
                if (t not in used and weights[t] == weights[s]
                        and all(m[t][image[x]] == m[s][x] for x in order[:k])):
                    image[s] = t
                    extend(k + 1)
                    del image[s]
        extend(0)
    return out


def _element_map(group: CoxeterGroup, pi: Tuple[int, ...]) -> List[int]:
    """w -> sigma(w) for the automorphism sigma of W with sigma(s) = pi[s],
    built in ShortLex order: w = u g with u shorter, and sigma(u g) =
    sigma(u) pi[g]."""
    rmul, words = group._rmul, group._words
    out = [group.identity] * len(group)
    for w in range(1, len(group)):
        g = words[w][-1]
        out[w] = rmul[out[rmul[w][g]]][pi[g]]
    return out


class HeckeAlgebra:
    """Context object: group, validated weights, the grid every decoded
    coefficient keeps its int exponent keys on, which generators have
    L(s) > 0, the double cosets of the parabolic subgroups along which
    the coefficients of a row are derived, and the orbits of W under the
    symmetries along which rows are relabelled."""

    def __init__(self, group: CoxeterGroup, weights: WeightFunction):
        validate_weights(group.matrix, weights, group.gen_names)
        self.group = group
        self.weights = weights
        self.grid = OrderedExponent.grid_of(weights.mode, weights.arity, weights.exps)
        self.positive = [L.sign() > 0 for L in weights.exps]
        self._cosets: Dict[int, tuple] = {}
        self._double: Dict[Tuple[int, int, int], tuple] = {}
        self._key_tuples: Dict[tuple, tuple] = {}

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
        the mu(y,u), derived from the stored rows (module docstring)."""
        return len({L for L, p in zip(self.weights.exps, self.positive) if p}) == 1

    @cached_property
    def symmetries(self) -> List[List[int]]:
        """The element maps of the symmetry generators of the table (module
        docstring): w -> w^-1, then sigma for each diagram automorphism."""
        group = self.group
        return [group._inv, *(_element_map(group, pi)
                              for pi in diagram_automorphisms(group.matrix, self.weights))]

    @cached_property
    def orbits(self) -> Dict[int, List[Tuple[int, int, List[int]]]]:
        """The orbits of W under `symmetries`, keyed by their
        representatives, each the smallest index in its orbit: orbits[r]
        lists the other members in the breadth-first order of a walk from
        r, as (w, x, g), w = g[x] for the element map g of a generator and
        x either r or a member listed before w, so p_{g[y],w} = p_{y,x}."""
        return orbit_walks(len(self.group), self.symmetries)

    @cached_property
    def descent_masks(self) -> List[int]:
        """Bit s of entry w is set when s is in L(w) and L(s) > 0: the
        descents that relate the coefficients of C_w (module docstring).
        Entry w^-1 holds the same for R(w).  y is extremal for w when
        mask[w] is a subset of mask[y] and mask[w^-1] of mask[y^-1]."""
        group, positive = self.group, self.positive
        return [sum(1 << s for s in group.left_descents(w) if positive[s])
                for w in range(len(group))]

    @cached_property
    def weight_keys(self) -> List[int]:
        """The grid key of L(s) for each generator s."""
        return [L.encode(self.grid) for L in self.weights.exps]

    def _coset_lists(self, mask: int) -> Tuple[Tuple[int, ...], dict]:
        """(keys, cosets) for the parabolic subgroup P on the generators in
        `mask`, with elements u_0 = e, u_1, ... listed shortest first:
        keys[j] is the grid key of L(u_j), and for z the longest element of
        its coset Pz, cosets[z] lists the u_j z.  Memoised per mask; only
        rows read (`KLTable._row`) need the lists, through `double_coset`."""
        hit = self._cosets.get(mask)
        if hit is None:
            group, weight_keys, lmul = self.group, self.weight_keys, self.group._lmul
            elems, keys, steps = [group.identity], [0], []  # u_j = s u_i, (i, s) = steps[j-1]
            seen = {group.identity}
            for i, u in enumerate(elems):  # grows while it is read
                for s in range(group.rank):
                    su = lmul[s][u]
                    if mask >> s & 1 and su > u and su not in seen:
                        seen.add(su)
                        elems.append(su)
                        keys.append(keys[i] + weight_keys[s])
                        steps.append((i, s))
            cosets = {}
            for z, m in enumerate(self.descent_masks):
                if m & mask == mask:
                    coset = [z]  # coset[j] = u_j z, walking down from z
                    for i, s in steps:
                        coset.append(lmul[s][coset[i]])
                    cosets[z] = coset
            hit = self._cosets[mask] = (tuple(keys), cosets)
        return hit

    def double_coset(self, left: int, right: int, z: int) -> Tuple[List[int], Tuple[int, ...]]:
        """(ys, keys) for z the longest element of its double coset
        P_I z P_J, with I and J the generators in `left` and `right`: ys
        lists the double coset and keys[j] is the grid key of
        L(z) - L(ys[j]).  The right coset z P_J is the left coset of z^-1
        under P_J, inverted; each x in it that is the longest in its
        coset P_I x is walked down that coset.  Memoised, and equal key
        tuples are one object, for the memos of `_texts`."""
        hit = self._double.get((left, right, z))
        if hit is None:
            inv = self.group._inv
            lkeys, lcosets = self._coset_lists(left)
            rkeys, rcosets = self._coset_lists(right)
            ys, keys = [], []
            for x, kr in zip(rcosets[inv[z]], rkeys):  # x = u z^-1, x^-1 = z u^-1 in z P_J
                coset = lcosets.get(inv[x])  # P_I x^-1, if x^-1 is the longest in it
                if coset is not None:
                    ys += coset
                    keys += map(kr.__add__, lkeys)
            keys = tuple(keys)
            hit = self._double[left, right, z] = (ys, self._key_tuples.setdefault(keys, keys))
        return hit


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


class _Packing:
    """The packed coefficients of one KL table, B = _BITS bits a slot.

    An exponent e has coordinates x_i = e_i / unit_i, with unit_i the gcd
    of the weights' i-th coordinates, so that L = 2 or L = 1/2 leaves no
    empty slot.  Every exponent the construction reaches lies in the box
    |x_i| <= box_i = (sum of |L(s)_i| along w0 + max_s |L(s)_i|) / unit_i,
    one coordinate L(w0) + max L for rational weights.  slot(e) =
    sum_i x_i place_i is a balanced mixed radix over the box: additive
    and order preserving on it.  R is one more than the largest |slot| in
    the box, so every position slot + R is positive and a shift by
    B slot(L(s)) multiplies by v^(+-L(s)) exactly.  A row's bound on
    max |x_i| over its exponents (its reach) is the one its construction
    step carried (`_cancel`), never read back off its digits: every term
    the step adds to the row lies within it, so the checks stay sound.

    Digits are read (zero test, high part, mu, decode) only while a bound
    below `limit` = 2^(B-2) holds for every digit: then X has one balanced
    base-2^B expansion and every read is exact.  `check` raises
    _Unpackable before a read that the bounds do not cover, and the
    constructor for a box of more than _MAX_SLOTS slots.
    """

    def __init__(self, algebra: HeckeAlgebra):
        exps = algebra.weights.exps
        self.units, self.box = _slot_box(algebra)
        self.places: List[int] = []
        radix = 1
        for b in reversed(self.box):
            self.places.insert(0, radix)
            radix *= 2 * b + 1
        if radix > _MAX_SLOTS:
            raise _Unpackable(f"a slot box of {radix} slots is too wide to pack")
        bits = _BITS
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
        """_Unpackable unless every exponent bounded by `reach` is in the
        box and every digit bounded by `bound` is below the limit."""
        if bound >= self.limit:
            raise _Unpackable(f"a KL coefficient may not fit {self.bits}-bit slots")
        if not all(map(le, reach, self.box)):
            raise _Unpackable("a KL exponent may leave the slot box")

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
    """The KL basis, as the part of it that the construction keeps (module
    docstring): `stored`, the coefficients extremal on both sides of the
    rows C_r of the orbit representatives r, and `corrections`, the {y: m_y}
    of C_s C_u = C_su + sum_y m_y C_y for every ascent pair (s, u), su > u
    and L(s) > 0, all LaurentElt.  With equal parameters `corrections` is
    passed as None and derived from `stored` (`_mu_corrections`), whether
    the table was built or loaded.  `_row` and `_orbit_rows` derive the
    other coefficients and rows as they are read, and `cs_product_in_c`
    the C_s C_w table."""

    def __init__(self, algebra: HeckeAlgebra, stored: Dict[int, HeckeCoeffs],
                 corrections: Optional[Dict[Tuple[int, int], HeckeCoeffs]] = None):
        self.algebra = algebra
        self.group = algebra.group
        self._stored = stored
        self._corrections = (_mu_corrections(algebra, stored) if corrections is None
                             else corrections)
        grid = algebra.grid
        self._one = algebra.one_coeff()
        # v^L(s) + v^-L(s): C_s C_w is this multiple of C_w when sw < w
        self._scalar = [LaurentElt.v_power(L, grid=grid) + LaurentElt.v_power(-L, grid=grid)
                       for L in algebra.weights.exps]

    def _row(self, r: int, derive: Callable[[LaurentElt, Tuple[int, ...]], list]) -> dict:
        """C_r as {y: x}, for a stored row r, with derive(c, keys) listing
        an x for v^-e c, for each grid key of e in `keys`, for a stored
        coefficient c: the one place that derives a coefficient a table
        does not store.  With I and J the s in L(r) and R(r) with
        L(s) > 0, each stored z is the longest in its double coset
        P_I z P_J, on which p_{y,r} = v^{-(L(z) - L(y))} p_{z,r} (module
        docstring)."""
        masks = self.algebra.descent_masks
        left, right = masks[r], masks[self.group._inv[r]]
        row = {}
        for z, c in self._stored[r].items():
            ys, keys = self.algebra.double_coset(left, right, z)
            row.update(zip(ys, derive(c, keys)))
        return row

    def _orbit_rows(self, r: int, derive: Callable[[LaurentElt, Tuple[int, ...]], list]
                    ) -> Iterator[Tuple[int, dict]]:
        """(w, C_w as {y: x}) for each w in the orbit of the stored row r,
        r first, then in the order of its walk (`HeckeAlgebra.orbits`):
        `_row` of r, and each other row relabelled from the row x it is
        walked from, p_{g[y],w} = p_{y,x}."""
        rows = {r: self._row(r, derive)}
        yield r, rows[r]
        for w, x, g in self.algebra.orbits[r]:
            row = rows[x]
            rows[w] = dict(zip(map(g.__getitem__, row), row.values()))
            yield w, rows[w]

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

    def to_json_dict(self) -> dict:
        """The whole table as JSON, the `klbasis` output: every row of C_w,
        derived as it is rendered, and every C_s C_w."""
        n, rank = len(self.group), self.group.rank
        text, texts = _texts()
        rows = (row for r in self._stored for row in self._orbit_rows(r, texts))
        return self._document(rows, (((s, w), self.cs_product_in_c(s, w))
                                       for s in range(rank) for w in range(n)), text,
                              list(map(self.group.name, range(n))))

    def to_cache_text(self) -> str:
        """The KL cache file: compact canonical JSON of what the table
        holds, less what the loader restores (p_{w,w} = 1, and with equal
        parameters every correction), keyed by element index, plus
        `format`, then `digest` (payload_digest of the rest) appended as
        the last field."""
        text, _ = _texts()
        products = () if self.algebra.equal_parameters else self._corrections.items()
        doc = self._document(((w, {y: text(c) for y, c in row.items() if y != w})
                              for w, row in self._stored.items()),
                             products, text, list(map(str, range(len(self.group)))))
        doc["format"] = CACHE_FORMAT
        body = _canonical(doc)
        return f'{body[:-1]},"digest":"{_sha256(body)}"}}'

    def _document(self, rows: Iterable[Tuple[int, Dict[int, str]]],
                  products: Iterable[Tuple[Tuple[int, int], HeckeCoeffs]],
                  text: Callable[[LaurentElt], str], labels: List[str]) -> dict:
        """The header and content key of the algebra, the rows (w, {y:
        text}) as `c_basis` and the products ((s, w), {y: coefficient}) as
        `cs_products`, with element w keyed by `labels[w]`."""
        group, algebra = self.group, self.algebra
        doc = algebra.header()
        doc["key"] = algebra.content_key()
        doc["c_basis"] = {labels[w]: dict(zip(map(labels.__getitem__, row), row.values()))
                          for w, row in rows}
        doc["cs_products"] = {f"{group.gen_names[s]}|{labels[w]}":
                              {labels[y]: text(h[y]) for y in sorted(h)}
                              for (s, w), h in products}
        return doc

    @staticmethod
    def from_json_dict(doc: dict, algebra: HeckeAlgebra) -> "KLTable":
        """Load the KL cache document that `to_cache_text` writes, and
        nothing else.

        The top-level fields must be exactly the writer's: `format` equal
        to CACHE_FORMAT, the header of `algebra`, its content `key`, and a
        `digest` equal to the payload digest.  Every element key must be
        an index as the writer writes it, str(w).  No row may list its
        own p_{w,w}; with it restored to 1, the rows must be exactly the
        stored part (`_stored_rows`), one row for each orbit
        representative of `HeckeAlgebra.orbits` and no other, and pass
        `_check_rows`.  With equal
        parameters `cs_products` must be empty: the corrections are
        derived from the rows (`_mu_corrections`).  Otherwise each product
        key must be an ascent pair, all of them must be present, and each
        correction must be nonzero, bar-invariant and sit at a y with
        sy < y shorter than su.  Anything else raises ValueError (or
        KeyError, TypeError, ... on a document of the wrong shape).  The
        table holds the LaurentElt parsed and checked here; no row is
        derived.
        """
        header = dict(algebra.header(), format=CACHE_FORMAT, key=algebra.content_key())
        if (set(doc) != {*header, "c_basis", "cs_products", "digest"}
                or _canonical({k: doc[k] for k in header}) != _canonical(header)):
            raise ValueError(f"not a format-{CACHE_FORMAT} KL cache of this algebra")
        if doc["digest"] != payload_digest(doc):
            raise ValueError("KL cache digest mismatch")
        group, grid = algebra.group, algebra.grid
        lmul, length = group.lmul_gen, group.length
        index = {str(w): w for w in range(len(group))}
        parsed: Dict[str, LaurentElt] = {}  # the file repeats few distinct coefficients

        def coeffs(obj: dict) -> HeckeCoeffs:
            out = {}
            for nm, txt in obj.items():
                c = parsed.get(txt)
                if c is None:
                    c = parsed[txt] = LaurentElt.parse(txt, grid=grid)
                out[index[nm]] = c
            return out

        one = algebra.one_coeff()
        rows = {}
        for name, obj in doc["c_basis"].items():
            w = index[name]
            if name in obj:
                raise ValueError(f"the row of {group.name(w)} lists its p_(w,w)")
            rows[w] = {**coeffs(obj), w: one}
        stored = _stored_rows(algebra, rows.items())
        if stored != rows or len(stored) != len(algebra.orbits):
            raise ValueError("the rows are not the stored part of a KL table")
        _check_rows(algebra, stored)
        if algebra.equal_parameters:
            if doc["cs_products"] != {}:
                raise ValueError("an equal-parameter cache stores no C_s C_w product")
            return KLTable(algebra, stored)

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
                    raise ValueError(f"bad correction at y = {group.name(y)} for {key}")
            products[(s, u)] = h
        if len(products) != sum(algebra.positive) * len(group) // 2:
            raise ValueError("an ascent pair of the C_s C_w table is missing")
        return KLTable(algebra, stored, products)


def _texts() -> Tuple[Callable[..., str], Callable[..., List[str]]]:
    """(text, texts): text(c, key=0) is the text of v^-e c, for `key` the
    grid key of e, and texts(c, keys) lists text(c, key) for the `keys`.
    Tables share few distinct coefficient objects and key tuples, so both
    are memoised by id; each hit holds its objects, so no id is reused.
    Many (c, key) give one value, so each value is rendered once."""
    one: Dict[Tuple[int, int], Tuple[LaurentElt, str]] = {}
    lists: Dict[Tuple[int, int], Tuple[LaurentElt, tuple, List[str]]] = {}
    rendered: Dict[tuple, str] = {}

    def text(c: LaurentElt, key: int = 0) -> str:
        hit = one.get((id(c), key))
        if hit is None:
            value = (c.grid, *((g - key, k) for g, k in c.items()))
            t = rendered.get(value)
            if t is None:
                t = rendered[value] = LaurentElt(c.grid, dict(value[1:])).render()
            hit = one[id(c), key] = (c, t)
        return hit[1]

    def texts(c: LaurentElt, keys: Tuple[int, ...]) -> List[str]:
        hit = lists.get((id(c), id(keys)))
        if hit is None:
            hit = lists[id(c), id(keys)] = (c, keys, [text(c, key) for key in keys])
        return hit[2]
    return text, texts


def _stored_rows(algebra: HeckeAlgebra, rows: Iterable[Tuple[int, dict]]) -> Dict[int, dict]:
    """Of the rows (w, {y: p_{y,w}}), the part a KL table holds: the rows
    of the orbit representatives, each with only the y extremal on both
    sides, those whose descent mask holds w's and whose inverse's holds
    w^-1's (module docstring), in increasing order, so that a derived row
    comes in one order whatever made it."""
    masks, inv = algebra.descent_masks, algebra.group.inv
    rank, orbits = algebra.group.rank, algebra.orbits
    sides = [m | masks[inv(y)] << rank for y, m in enumerate(masks)]  # L(y) and R(y) as one mask
    out = {}
    for w, row in rows:
        if w in orbits:  # a representative
            m = sides[w]
            out[w] = {y: row[y] for y in sorted(y for y in row if sides[y] & m == m)}
    return out


def _check_rows(algebra: HeckeAlgebra, stored: Dict[int, HeckeCoeffs]) -> None:
    """ValueError unless each stored row C_w has, besides p_{w,w} = 1,
    only shorter y (smaller index) with nonzero coefficients whose
    exponents are negative and, with every exponent that `_row` derives
    from them, in the slot box (`_slot_box`), which holds every exponent
    of a KL table: each of them decodes, so no row read later can fail.

    `_row` derives v^-k p_{z,w} on the double coset of a stored z, for k
    from 0 to D = L(z) - L(d), d the shortest element of the double coset.
    Weights are >= 0 in every coordinate, so each derived exponent lies
    coordinate by coordinate between e and e - D, for e an exponent of
    p_{z,w}, and the box holds all of them when it holds those two.  From
    p_{w,w} = 1 it derives exponents from 0 down to -(L(w) - L(d)), minus
    the weight of letters removed from a reduced word of w: they lie in
    [-L(w0), 0] whatever the file holds, so they need no check."""
    group, grid = algebra.group, algebra.grid
    units, box = _slot_box(algebra)
    bound = [b * unit for b, unit in zip(box, units)]
    masks, inv, lmul, rmul = algebra.descent_masks, group._inv, group._lmul, group._rmul
    weight_keys = algebra.weight_keys

    @lru_cache(maxsize=None)
    def in_box(key: int) -> bool:
        try:
            return all(map(le, map(abs, OrderedExponent.decode(key, grid).value), bound))
        except ValueError:  # a lex coordinate past LEX_BOUND
            return False

    @lru_cache(maxsize=None)
    def depth(left: int, right: int, z: int) -> int:
        """The grid key of L(z) - L(d), d reached from z by descents in the
        generators of `left` on the left and of `right` on the right: the
        shortest element of the double coset P_I z P_J."""
        key = 0
        while True:
            s = masks[z] & left
            if s:
                s = s.bit_length() - 1
                z = lmul[s][z]
            else:
                s = masks[inv[z]] & right
                if not s:
                    return key
                s = s.bit_length() - 1
                z = rmul[z][s]
            key += weight_keys[s]

    checked: Dict[Tuple[int, int], bool] = {}  # (id(c), depth); `stored` keeps each c alive
    for w, row in stored.items():
        left, right = masks[w], masks[inv[w]]
        for y, c in row.items():
            if y != w:
                d = depth(left, right, y)
                ok = checked.get((id(c), d))
                if ok is None:
                    ok = checked[id(c), d] = bool(c) and all(
                        g < 0 and in_box(g) and in_box(g - d) for g, _ in c.items())
                if y > w or not ok:
                    raise ValueError(f"p_(y,w) for y = {group.name(y)}, w = {group.name(w)} "
                                     f"is not a shorter element's, with negative exponents "
                                     f"that stay in the box with every one derived")


def _mu_corrections(algebra: HeckeAlgebra, stored: Dict[int, HeckeCoeffs]
                    ) -> Dict[Tuple[int, int], HeckeCoeffs]:
    """The corrections of every ascent pair (s, u) of an equal-parameter
    table, from its stored part alone: m_y = mu(y,u) at each y with s in
    L(y) but not in L(u), L(s) > 0 and mu(y,u) != 0 (module docstring).
    In a stored row u, mu(y,u) is nonzero only at a stored y, where it is
    the v^-L coefficient, and at y = tu and y = ut for t of positive
    weight in L(u) and R(u), where it is 1; a row u not stored takes
    mu(g[y],u) = mu(y,x) from the row x it is walked from
    (`HeckeAlgebra.orbits`).  Reads no derived row and no coset list."""
    group, masks = algebra.group, algebra.descent_masks
    inv, lmul, rmul, orbits = group._inv, group._lmul, group._rmul, algebra.orbits
    key = -algebra.weight_keys[algebra.positive.index(True)]  # the grid key of -L
    positive = sum(1 << s for s, p in enumerate(algebra.positive) if p)
    gens: Dict[int, Tuple[int, ...]] = {}  # a mask -> its generators
    mus: Dict[int, int] = {}  # id(c) -> mu; `stored` keeps each c alive
    consts: Dict[int, LaurentElt] = {}  # mu -> mu v^0

    def generators(mask: int) -> Tuple[int, ...]:
        hit = gens.get(mask)
        if hit is None:
            hit = gens[mask] = tuple(s for s in range(group.rank) if mask >> s & 1)
        return hit

    out: Dict[Tuple[int, int], HeckeCoeffs] = {}
    for v, row in stored.items():
        near = {}  # y -> mu(y,v), where it is nonzero
        for z, c in row.items():
            mu = mus.get(id(c))
            if mu is None:
                mu = mus[id(c)] = next((k for g, k in c.items() if g == key), 0)
            if mu:
                near[z] = mu
        for t in generators(masks[v]):
            near[lmul[t][v]] = 1
        for t in generators(masks[inv[v]]):
            near[rmul[v][t]] = 1
        nears = {v: near}
        for w, x, g in orbits[v]:
            nears[w] = {g[y]: mu for y, mu in nears[x].items()}
        for u, ys in nears.items():
            ascents = positive & ~masks[u]
            pairs: Dict[int, HeckeCoeffs] = {s: {} for s in generators(ascents)}
            for y, mu in ys.items():
                for s in generators(masks[y] & ascents):
                    c = consts.get(mu)
                    if c is None:
                        c = consts[mu] = LaurentElt(algebra.grid, {0: mu})
                    pairs[s][y] = c
            for s, h in pairs.items():
                out[s, u] = h
    return out


def _cancel(pk: _Packing, s: int, left: List[int], u: int, w: int,
            c_exp: List[Packed], digits: List[int], reach: List[Tuple[int, ...]]
            ) -> Tuple[Packed, Packed, int, Tuple[int, ...]]:
    """For an ascent w = su > u with L(s) > 0, return (C_w, {y: m_y}) with
    C_s C_u = C_w + sum_y m_y C_y, packed, a bound on the digits of C_w
    and one on |x_i| over its exponents.

    C_s C_u = T_s C_u + v^{-L(s)} C_u is bar-invariant; the non-negative
    part of each lower coefficient is cancelled by subtracting a
    bar-symmetric multiple m_y C_y, in one pass down the index order
    (ShortLex, so a larger index is never shorter), as m_y C_y changes
    only y and shorter elements.  m_y is the rounded high part of the
    coefficient, and m_y C_y is an int multiply when m_y is a constant,
    else one shift and multiply per term of m_y: cheaper than a Kronecker
    product of whole ints, as m_y has few terms and lex slots are wide.
    left[y] is sy.  Every term of C_s C_u has |x_i| <= reach[u]_i +
    |L(s)_i|, and every term of m_y C_y at most ext(m_y)_i + reach[y]_i;
    `top`, the max of these, bounds every exponent of C_w, a sum of such
    terms.

    The pass visits the y != w with sy < y among the keys of C_s C_u,
    K = supp(C_u) u s supp(C_u): m_y = 0 at sy > y, as C_s C_u lies in
    the span of the C_y with sy < y (Lusztig, Hecke algebras with unequal
    parameters, Theorem 6.6; the argument needs only L(s) > 0).  No key
    joins K, as every C_y subtracted has supp(C_y) in K = supp(C_w).  For
    positive weights, p_{y,x} = v^{L(y)-L(x)} + higher terms for y <= x in
    the Bruhat order, so supp(C_x) = [e,x], and [e,u] u s[e,u] = [e,su]
    (lifting property): K = [e,w] holds each [e,y].  Zero weights reduce
    to this: with S0 the generators of weight 0, the reflection subgroup
    W~ generated by the W_{S0}-conjugates of the others is a Coxeter group
    with positive weights, W is W~ x| W_{S0}, C_{xz} = C~_x T_z for x in
    W~ and z in W_{S0}, s is a simple reflection of W~, and for u = xz,
    C_s C_u = (C~_s C~_x) T_z.  These three statements are checked, not
    cited (tests/test_hecke.py).  A key outside K would raise KeyError
    (exit 2 from the CLI), never give another table; a zero p_{y,w} is
    legal, so zero entries are dropped on return.
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
    correction: Packed = {}
    for y in sorted((y for y in cand if y != w and left[y] < y), reverse=True):
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
            cand[z] -= term
    return {y: x for y, x in cand.items() if x}, correction, bound, top


def _construct(algebra: HeckeAlgebra) -> KLTable:
    """The KL table, built packed (`_Packing`).  With equal
    parameters only the rows of the orbit representatives are built, and
    each other row is its orbit walk's relabelling (module docstring),
    filled in as soon as its representative is built: every row an
    element of smaller index reads is then there."""
    pk = _Packing(algebra)
    group, positive = algebra.group, algebra.positive
    n = len(group)
    left = group._lmul
    c_exp: List[Packed] = [{group.identity: pk.one}] + [None] * (n - 1)
    digits = [1] * n  # bound on every digit of C_w's coefficients
    reach = [pk.zero_reach] * n  # bound on |x_i| over their exponents
    equal = algebra.equal_parameters  # then the corrections are derived, not kept
    orbits = algebra.orbits
    corrections: Dict[Tuple[int, int], Packed] = {}
    for w in range(1, n):
        if equal and w not in orbits:
            continue  # filled in with its representative
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
                c_exp[w], correction, bound, reach[w] = _cancel(
                    pk, s, left[s], u, w, c_exp, digits, reach)
                digits[w] = pk.tighten(c_exp[w].values(), bound)
                if not equal:
                    corrections[(s, u)] = correction
            elif not equal:
                corrections[(s, u)] = _cancel(pk, s, left[s], u, w, c_exp, digits, reach)[1]
        if equal:
            for v, p, g in orbits[w]:  # v = g[p], p built or filled before v
                c_exp[v] = {g[y]: x for y, x in c_exp[p].items()}
                digits[v], reach[v] = digits[p], reach[p]
    decode = pk.decode
    return KLTable(algebra,
                   {w: {y: decode(x) for y, x in row.items()}
                    for w, row in _stored_rows(algebra, enumerate(c_exp)).items()},
                   None if equal else {pair: {y: decode(m) for y, m in h.items()}
                                       for pair, h in corrections.items()})


def _cancel_terms(algebra: HeckeAlgebra, s: int, u: int, w: int, c_exp: List[HeckeCoeffs],
                  v_plus: LaurentElt, v_minus: LaurentElt) -> Tuple[HeckeCoeffs, HeckeCoeffs]:
    """`_cancel` in the dict ring, with the same candidates and pass: (C_w,
    {y: m_y}) with C_s C_u = C_w + sum_y m_y C_y, each m_y the
    bar-symmetric extension of the part of the T_y coefficient with
    exponents >= 0 (v^0 once); v_plus and v_minus are v^(+-L(s))."""
    left, grid = algebra.group._lmul[s], algebra.grid
    zero = LaurentElt(grid, {})
    cand: HeckeCoeffs = {}
    for y, c in c_exp[u].items():
        sy = left[y]
        cand[sy] = cand.get(sy, zero) + c
        cand[y] = cand.get(y, zero) + (v_plus if sy < y else v_minus) * c
    correction: HeckeCoeffs = {}
    for y in sorted((y for y in cand if y != w and left[y] < y), reverse=True):
        terms = {}
        for g, k in cand[y].items():
            if g >= 0:
                terms[g] = terms[-g] = k
        if not terms:
            continue
        m = correction[y] = LaurentElt(grid, terms)
        minus_m = m * -1
        for z, cz in c_exp[y].items():
            cand[z] += minus_m * cz
    return {y: c for y, c in cand.items() if c}, correction


def _construct_terms(algebra: HeckeAlgebra) -> KLTable:
    """`_construct` in the dict ring, for a table that does not pack: with
    unequal parameters, every ascent pair by the full cancellation."""
    group, grid = algebra.group, algebra.grid
    n = len(group)
    equal = algebra.equal_parameters
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
            elif s == first or not equal:
                cw, correction = _cancel_terms(algebra, s, u, w, c_exp, *v_pm[s])
                if s == first:
                    c_exp[w] = cw
                if not equal:
                    corrections[(s, u)] = correction
    return KLTable(algebra, _stored_rows(algebra, enumerate(c_exp)),
                   None if equal else corrections)


def kl_basis(algebra: HeckeAlgebra) -> KLTable:
    """Compute the full KL basis and the corrections of every ascent pair.

    Every left descent s of w with L(s) > 0, with u = sw, gives the
    corrections of the ascent pair (s, u); see the module docstring.  The
    table is built packed, and in the dict ring if it does not pack.
    """
    try:
        return _construct(algebra)
    except _Unpackable:
        return _construct_terms(algebra)
