"""The Hecke algebra of a finite Coxeter group with unequal parameters.

Elements are finitely supported maps W -> Z[G] in the T-basis.  The
Kazhdan-Lusztig basis {C_w} is the unique basis with i(C_w) = C_w and
C_w - T_w supported on strictly negative exponents.  `kl_basis` builds
it, together with the C-basis expansion of every C_s C_w, in one pass
over w in length order.  Each left descent s of w, with u = sw, falls
into one of four cases:

* construction step: s is the first letter of w's reduced word and
  L(s) > 0.  The bar-invariant product C_s C_u is reduced to C_w by
  subtracting bar-symmetric multiples m_y C_y of shorter elements,
  longest support element first; C_s C_u = C_w + sum_y m_y C_y.
* other ascent pairs: any other left descent s of w with L(s) > 0.  The
  same cancellation runs on C_s C_u and only its corrections m_y are
  kept, since C_w is already known.
* L(s) = 0: T_s^2 = 1, so C_w = T_s C_u with no cancellation, and
  C_s C_u = C_w, C_s C_w = C_u.
* descent pairs with L(s) > 0: C_s C_w = (v^{L(s)} + v^{-L(s)}) C_w.

Nothing is multiplied out in the T-basis and then re-expanded: the
product table comes straight from the construction.

The KL cache (format 2) keeps only part of each C_w = sum_y p_{y,w} T_y.
For s in L(w) with L(s) > 0, comparing T_y coefficients in
C_s C_w = (v^{L(s)} + v^{-L(s)}) C_w gives

    p_{y,w} = v^{-L(s)} p_{sy,w}    whenever sy > y

(Lusztig, Hecke algebras with unequal parameters, ch. 6), so only the
left-extremal y, those with sy < y for every such s, are written; the
others are derived on load by shifting exponent keys, walking down from
the longest element of each coset of the parabolic subgroup on those s.
A zero-weight s is left out: C_s C_w = C_{sw} is not a multiple of C_w,
and p_{y,w} = p_{sy,sw} relates the coefficients of two different rows.
The C_s C_w table is written in full.  The file is compact JSON with a
`format` field and the SHA-256 of its canonical payload, checked before
anything is parsed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from functools import cached_property
from typing import Dict, List, Tuple

from .coxeter import CoxeterGroup, WeightFunction, validate_weights
from .ordered_coeffs import LaurentElt, OrderedExponent

HeckeCoeffs = Dict[int, LaurentElt]

CACHE_FORMAT = 2


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of every field of `doc` but `digest`."""
    return _sha256(_canonical({k: v for k, v in doc.items() if k != "digest"}))


class HeckeAlgebra:
    """Context object: group, validated weights, the grid every coefficient
    keeps its int exponent keys on, and v^{L(s)}, v^{-L(s)} per generator."""

    def __init__(self, group: CoxeterGroup, weights: WeightFunction):
        validate_weights(group.matrix, weights, group.gen_names)
        self.group = group
        self.weights = weights
        self.mode = weights.mode
        self.arity = weights.arity
        self.grid = OrderedExponent.grid_of(self.mode, self.arity, weights.exps)
        self._v_plus = [LaurentElt.v_power(L, grid=self.grid) for L in weights.exps]
        self._v_minus = [LaurentElt.v_power(-L, grid=self.grid) for L in weights.exps]
        self._minus_key = [(-L).encode(self.grid) for L in weights.exps]

    def header(self) -> dict:
        """Group and weights as JSON: the head of the KL cache and reports."""
        weights = {self.group.gen_names[g]: self.weights[g].render()
                   for g in range(self.group.rank)}
        return {
            "matrix": [list(row) for row in self.group.matrix.entries],
            "generators": list(self.group.gen_names),
            "weights": weights,
            "mode": self.mode,
            "arity": self.arity,
        }

    def content_key(self) -> str:
        """SHA-256 of the header: the KL cache and snapshot key."""
        return _sha256(_canonical(self.header()))

    def one_coeff(self) -> LaurentElt:
        return LaurentElt(self.grid, {0: 1})

    def unit(self) -> HeckeCoeffs:
        return {self.group.identity: self.one_coeff()}

    @cached_property
    def descent_masks(self) -> List[int]:
        """Bit s of entry w is set when s is in L(w) and L(s) > 0: the
        descents that relate the coefficients of C_w (module docstring).
        y is left-extremal for w when mask[w] is a subset of mask[y]."""
        group = self.group
        positive = [L.sign() > 0 for L in self.weights.exps]
        return [sum(1 << s for s in group.left_descents(w) if positive[s])
                for w in range(len(group))]


class KLTable:
    """The KL basis: T-expansions of every C_w plus C-expansions of C_s C_w."""

    def __init__(self, algebra: HeckeAlgebra, c_exp: List[HeckeCoeffs],
                 cs_in_c: Dict[Tuple[int, int], HeckeCoeffs]):
        self.algebra = algebra
        self.group = algebra.group
        self._c_exp = c_exp
        self._cs_in_c = cs_in_c

    def c_expansion(self, w: int) -> HeckeCoeffs:
        """C_w in the T-basis."""
        return self._c_exp[w]

    def cs_product_in_c(self, s: int, w: int) -> HeckeCoeffs:
        """C_s C_w in the C-basis (cached)."""
        return self._cs_in_c[(s, w)]

    # -- serialization ---------------------------------------------------

    def _coeffs_to_json(self, h: HeckeCoeffs) -> dict:
        return {self.group.name(w): c.render()
                for w, c in sorted(h.items(), key=lambda kv: kv[0])}

    def to_json_dict(self, extremal_only: bool = False) -> dict:
        """The table as JSON: the `klbasis` output.  With `extremal_only`,
        each C_w keeps only its left-extremal coefficients: the KL cache."""
        group, algebra = self.group, self.algebra
        doc = algebra.header()
        doc["key"] = algebra.content_key()
        masks = algebra.descent_masks if extremal_only else None
        c_basis = {}
        for w in range(len(group)):
            row = self._c_exp[w]
            if extremal_only:
                m = masks[w]
                row = {y: c for y, c in row.items() if masks[y] & m == m}
            c_basis[group.name(w)] = self._coeffs_to_json(row)
        doc["c_basis"] = c_basis
        doc["cs_products"] = {
            f"{group.gen_names[s]}|{group.name(w)}": self._coeffs_to_json(h)
            for (s, w), h in sorted(self._cs_in_c.items())
        }
        return doc

    def to_cache_text(self) -> str:
        """The format-2 KL cache file: compact canonical JSON of the
        extremal-only table plus `format`, then `digest` (payload_digest of
        the rest) appended as the last field."""
        doc = self.to_json_dict(extremal_only=True)
        doc["format"] = CACHE_FORMAT
        body = _canonical(doc)
        return f'{body[:-1]},"digest":"{_sha256(body)}"}}'

    @staticmethod
    def from_json_dict(doc: dict, algebra: HeckeAlgebra) -> "KLTable":
        """Load `to_json_dict()` output or a cache file (a document with a
        `format` field, whose format and digest are checked first).

        Each stored C_w must have p_{w,w} = 1 and, elsewhere, only shorter
        y (smaller index) with negative exponents, and the C_s C_w entries
        must name valid elements and generators and cover every pair.
        Omitted coefficients are derived; a present non-extremal one must
        equal its derived value.  Anything else raises ValueError (or
        KeyError, TypeError, ... on a document of the wrong shape).
        """
        if "format" in doc and (doc["format"] != CACHE_FORMAT
                                or doc.get("digest") != payload_digest(doc)):
            raise ValueError("KL cache format or digest mismatch")
        group, grid = algebra.group, algebra.grid
        one = algebra.one_coeff()
        names = [group.name(w) for w in range(len(group))]
        index = {nm: w for w, nm in enumerate(names)}

        def coeffs(obj: dict) -> HeckeCoeffs:
            return {index[nm]: LaurentElt.parse(txt, grid=grid) for nm, txt in obj.items()}

        c_exp, walks = [], {}
        for w, name in enumerate(names):
            stored = coeffs(doc["c_basis"][name])
            if stored.get(w) != one:
                raise ValueError(f"p_(w,w) != 1 for w = {name}")
            for y, c in stored.items():
                _, const, pos = c.split_by_sign()
                if y != w and (y > w or not c or const or pos):
                    raise ValueError(f"p_(y,w) is not a shorter element's coefficient "
                                     f"with negative exponents: y = {names[y]}, w = {name}")
            c_exp.append(_complete_row(algebra, w, stored, walks))
        cs: Dict[Tuple[int, int], HeckeCoeffs] = {}
        for key, obj in doc["cs_products"].items():
            sname, wname = key.split("|", 1)
            s = group.gen_names.index(sname)
            cs[(s, index[wname])] = coeffs(obj)
        if len(cs) != group.rank * len(group):
            raise ValueError("the C_s C_w table is incomplete")
        return KLTable(algebra, c_exp, cs)


def _parabolic_walk(algebra: HeckeAlgebra, gens: Tuple[int, ...]
                    ) -> List[Tuple[int, int, int]]:
    """The elements u != e of the parabolic subgroup on `gens`, shortest
    first, each as (i, s, key): u = s u_i with l(u) = l(u_i) + 1, where u_i
    is the i-th element of the walk counting e as 0, and `key` is the int
    key of v^{-L(u)}."""
    group, minus_key = algebra.group, algebra._minus_key
    elems, keys, seen = [group.identity], [0], {group.identity}
    walk = []
    for i, u in enumerate(elems):  # grows while it is read
        for s in gens:
            su = group.lmul_gen(s, u)
            if su > u and su not in seen:
                seen.add(su)
                elems.append(su)
                keys.append(keys[i] + minus_key[s])
                walk.append((i, s, keys[-1]))
    return walk


def _complete_row(algebra: HeckeAlgebra, w: int, stored: HeckeCoeffs,
                  walks: Dict[int, List[Tuple[int, int, int]]]) -> HeckeCoeffs:
    """C_w from its stored coefficients.  With P the parabolic subgroup on
    the s in L(w) with L(s) > 0, a left-extremal z is the longest element
    of its coset Pz, and p_{uz,w} = v^{-L(u)} p_{z,w} for u in P, by
    the identity in the module docstring along a reduced word of u.  A
    stored coefficient that is not left-extremal must equal the derived
    one.  `walks` memoises _parabolic_walk per descent mask."""
    masks = algebra.descent_masks
    m = masks[w]
    if not m:
        return stored
    walk = walks.get(m)
    if walk is None:
        gens = tuple(s for s in range(algebra.group.rank) if m >> s & 1)
        walk = walks[m] = _parabolic_walk(algebra, gens)
    lmul = algebra.group.lmul_gen
    row: HeckeCoeffs = {}
    others = []
    for z, c in stored.items():
        if masks[z] & m != m:
            others.append(z)
            continue
        row[z] = c
        coset = [z]  # coset[i] = u_i z, walking down from z
        for i, s, key in walk:
            y = lmul(s, coset[i])
            coset.append(y)
            row[y] = c.shifted(key)
    for y in others:
        if row.get(y) != stored[y]:
            group = algebra.group
            raise ValueError(f"p_(y,w) for y = {group.name(y)}, w = {group.name(w)} "
                             f"disagrees with its derived value")
    return row


def _add_into(h: HeckeCoeffs, y: int, c: LaurentElt) -> None:
    """h[y] += c in place, dropping the entry if it cancels."""
    total = h[y] + c if y in h else c
    if total:
        h[y] = total
    else:
        del h[y]


def _cs_times_c(algebra: HeckeAlgebra, s: int, u: int, w: int,
                c_exp: List[HeckeCoeffs]) -> Tuple[HeckeCoeffs, HeckeCoeffs]:
    """For an ascent w = su > u with L(s) > 0, return (C_w, {y: m_y}) with
    C_s C_u = C_w + sum_y m_y C_y.

    C_s C_u = T_s C_u + v^{-L(s)} C_u is bar-invariant; the non-negative
    part of each lower coefficient is cancelled by subtracting a
    bar-symmetric multiple m_y C_y, longest support element first (highest
    index among equal lengths).  Subtracting m_y C_y changes only y and
    elements shorter than y, so a heap of pending indices gives that
    order: element indices are in ShortLex order, so a larger index is
    never shorter.

    Only y with sy < y are visited: C_s C_u lies in the span of the C_y
    with sy < y (Lusztig, Hecke algebras with unequal parameters,
    Theorem 6.6; the argument needs only L(s) > 0), so m_y = 0 for the
    others and their coefficients are already strictly negative.
    """
    group = algebra.group
    v_plus, v_minus = algebra._v_plus[s], algebra._v_minus[s]
    # C_s T_y = T_{sy} + v^{L(s)} T_y when sy < y, else T_{sy} + v^{-L(s)} T_y.
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
        m = c.nonneg_symmetrized()
        if not m:
            continue
        correction[y] = m
        neg_m = -m
        for z, cz in c_exp[y].items():
            _add_into(cand, z, neg_m * cz)
            if z not in queued:
                queued.add(z)
                if group.lmul_gen(s, z) < z:
                    heapq.heappush(heap, -z)
    return cand, correction


def kl_basis(algebra: HeckeAlgebra) -> KLTable:
    """Compute the full KL basis and the C-basis expansions of C_s C_w.

    Every left descent s of w, with u = sw, gives both table entries
    (s, u) and (s, w); see the module docstring for the four cases.
    """
    group = algebra.group
    n = len(group)
    one = algebra.one_coeff()
    v_sum = [p + m for p, m in zip(algebra._v_plus, algebra._v_minus)]
    c_exp: List[HeckeCoeffs] = [algebra.unit()] + [{}] * (n - 1)
    cs_in_c: Dict[Tuple[int, int], HeckeCoeffs] = {}
    for w in range(1, n):
        first = group.word(w)[0]
        for s in group.left_descents(w):
            u = group.lmul_gen(s, w)
            if algebra.weights[s].sign() == 0:
                # T_s^2 = 1, so T_s T_y = T_{sy}: C_w = T_s C_u = C_s C_u
                # is C_u relabelled, with no cancellation.
                if s == first:
                    c_exp[w] = {group.lmul_gen(s, y): c for y, c in c_exp[u].items()}
                cs_in_c[(s, u)] = {w: one}
                cs_in_c[(s, w)] = {u: one}
                continue
            cw, prod = _cs_times_c(algebra, s, u, w, c_exp)
            if s == first:
                c_exp[w] = cw
            prod[w] = one
            cs_in_c[(s, u)] = prod
            cs_in_c[(s, w)] = {w: v_sum[s]}
    return KLTable(algebra, c_exp, cs_in_c)
