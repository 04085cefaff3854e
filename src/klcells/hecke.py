"""The Hecke algebra of a finite Coxeter group with unequal parameters.

Elements are finitely supported maps W -> Z[G] in the T-basis.  The
Kazhdan-Lusztig basis {C_w} is the unique basis with i(C_w) = C_w and
C_w - T_w supported on strictly negative exponents.  `kl_basis` builds
it in one pass over w in length order.  Each left descent s of w, with
u = sw, falls into one of three cases:

* construction step: s is the first letter of w's reduced word and
  L(s) > 0.  The bar-invariant product C_s C_u is reduced to C_w by
  subtracting bar-symmetric multiples m_y C_y of shorter elements,
  longest support element first; C_s C_u = C_w + sum_y m_y C_y.
* other ascent pairs: any other left descent s of w with L(s) > 0.  The
  same cancellation runs on C_s C_u and only its corrections m_y are
  kept, since C_w is already known.
* L(s) = 0: T_s^2 = 1, so C_w = T_s C_u with no cancellation.

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
load by shifting exponent keys, walking down from the longest element of
each coset of the parabolic subgroup on those s.  A zero-weight s is
left out: C_s C_w = C_{sw} is not a multiple of C_w.  The rows that are
not written are rebuilt from their inverses and share their
coefficients.  The file is compact JSON with a `format` field and the
SHA-256 of its canonical payload, checked before anything is parsed.
`KLTable.from_json_dict` loads only that document, the one
`KLTable.to_cache_text` writes, and lists the checks it makes.  Format 3
halves format 2: A5 (equal parameters) 594 kB -> 268 kB, F4 with
L = (1,1,2,2) 4.77 MB -> 2.50 MB.
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

CACHE_FORMAT = 3


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON of every field of `doc` but `digest`."""
    return _sha256(_canonical({k: v for k, v in doc.items() if k != "digest"}))


class HeckeAlgebra:
    """Context object: group, validated weights, the grid every coefficient
    keeps its int exponent keys on, v^{L(s)}, v^{-L(s)} and their sum per
    generator, and which generators have L(s) > 0."""

    def __init__(self, group: CoxeterGroup, weights: WeightFunction):
        validate_weights(group.matrix, weights, group.gen_names)
        self.group = group
        self.weights = weights
        self.grid = OrderedExponent.grid_of(weights.mode, weights.arity, weights.exps)
        self.positive = [L.sign() > 0 for L in weights.exps]
        self._v_plus = [LaurentElt.v_power(L, grid=self.grid) for L in weights.exps]
        self._v_minus = [LaurentElt.v_power(-L, grid=self.grid) for L in weights.exps]
        self._v_sum = [p + m for p, m in zip(self._v_plus, self._v_minus)]
        self._minus_key = [(-L).encode(self.grid) for L in weights.exps]

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

    def unit(self) -> HeckeCoeffs:
        return {self.group.identity: self.one_coeff()}

    @cached_property
    def descent_masks(self) -> List[int]:
        """Bit s of entry w is set when s is in L(w) and L(s) > 0: the
        descents that relate the coefficients of C_w (module docstring).
        y is left-extremal for w when mask[w] is a subset of mask[y]."""
        group, positive = self.group, self.positive
        return [sum(1 << s for s in group.left_descents(w) if positive[s])
                for w in range(len(group))]


class KLTable:
    """The KL basis: the T-expansion of every C_w, and the corrections
    {y: m_y} of C_s C_u = C_su + sum_y m_y C_y for every ascent pair
    (s, u), su > u and L(s) > 0, from which the C_s C_w table is derived."""

    def __init__(self, algebra: HeckeAlgebra, c_exp: List[HeckeCoeffs],
                 corrections: Dict[Tuple[int, int], HeckeCoeffs]):
        self.algebra = algebra
        self.group = algebra.group
        self._c_exp = c_exp
        self._corrections = corrections
        self._one = algebra.one_coeff()

    def c_expansion(self, w: int) -> HeckeCoeffs:
        """C_w in the T-basis."""
        return self._c_exp[w]

    def cs_product_in_c(self, s: int, w: int) -> HeckeCoeffs:
        """C_s C_w in the C-basis, derived from the stored corrections by
        the three rules in the module docstring."""
        sw = self.group.lmul_gen(s, w)
        if not self.algebra.positive[s]:
            return {sw: self._one}
        if sw < w:
            return {w: self.algebra._v_sum[s]}
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

        def to_json(h: HeckeCoeffs) -> dict:
            return {names[y]: h[y].render() for y in sorted(h)}

        doc = algebra.header()
        doc["key"] = algebra.content_key()
        if stored_only:
            masks, inv = algebra.descent_masks, group.inv
            c_basis = {}
            for w in range(n):
                if inv(w) >= w:
                    m = masks[w]
                    c_basis[names[w]] = to_json(
                        {y: c for y, c in self._c_exp[w].items() if masks[y] & m == m})
            products = sorted(self._corrections.items())
        else:
            c_basis = {names[w]: to_json(self._c_exp[w]) for w in range(n)}
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
        sy < y shorter than su.  Anything else raises ValueError (or
        KeyError, TypeError, ... on a document of the wrong shape).
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

        def coeffs(obj: dict) -> HeckeCoeffs:
            return {index[nm]: LaurentElt.parse(txt, grid=grid) for nm, txt in obj.items()}

        c_exp: List[HeckeCoeffs] = [None] * len(group)
        walks: Dict[int, List[Tuple[int, int, int]]] = {}
        for name, obj in doc["c_basis"].items():
            w = index[name]
            if inv(w) < w:
                raise ValueError(f"row {name} is derived, not stored")
            c_exp[w] = _complete_row(algebra, w, coeffs(obj), walks)
        for w, row in enumerate(c_exp):
            if row is None:
                if inv(w) > w:
                    raise ValueError(f"stored row {names[w]} is missing")
                c_exp[w] = {inv(y): c for y, c in c_exp[inv(w)].items()}

        corrections: Dict[Tuple[int, int], HeckeCoeffs] = {}
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
            corrections[(s, u)] = h
        if len(corrections) != sum(algebra.positive) * len(group) // 2:
            raise ValueError("an ascent pair of the C_s C_w table is missing")
        return KLTable(algebra, c_exp, corrections)


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
    """C_w from its stored coefficients, which must have p_{w,w} = 1 and,
    elsewhere, only shorter y with negative exponents.  With P the
    parabolic subgroup on the s in L(w) with L(s) > 0, a left-extremal z
    is the longest element of its coset Pz, and p_{uz,w} = v^{-L(u)} p_{z,w}
    for u in P, by the identity in the module docstring along a reduced
    word of u.  Every stored y must be left-extremal.  `walks` memoises
    _parabolic_walk per descent mask."""
    group = algebra.group
    if stored.get(w) != algebra.one_coeff():
        raise ValueError(f"p_(w,w) != 1 for w = {group.name(w)}")
    for y, c in stored.items():
        _, const, pos = c.split_by_sign()
        if y != w and (y > w or not c or const or pos):
            raise ValueError(f"p_(y,w) is not a shorter element's coefficient with "
                             f"negative exponents: y = {group.name(y)}, w = {group.name(w)}")
    masks = algebra.descent_masks
    m = masks[w]
    if not m:
        return stored
    walk = walks.get(m)
    if walk is None:
        gens = tuple(s for s in range(group.rank) if m >> s & 1)
        walk = walks[m] = _parabolic_walk(algebra, gens)
    lmul = group.lmul_gen
    row: HeckeCoeffs = {}
    for z, c in stored.items():
        if masks[z] & m != m:
            raise ValueError(f"p_(y,w) for y = {group.name(z)}, w = {group.name(w)} "
                             f"is stored but not left-extremal")
        row[z] = c
        coset = [z]  # coset[i] = u_i z, walking down from z
        for i, s, key in walk:
            y = lmul(s, coset[i])
            coset.append(y)
            row[y] = c.shifted(key)
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
    """Compute the full KL basis and the corrections of every ascent pair.

    Every left descent s of w with L(s) > 0, with u = sw, gives the
    corrections of the ascent pair (s, u); see the module docstring.
    """
    group = algebra.group
    n = len(group)
    c_exp: List[HeckeCoeffs] = [algebra.unit()] + [{}] * (n - 1)
    corrections: Dict[Tuple[int, int], HeckeCoeffs] = {}
    for w in range(1, n):
        first = group.word(w)[0]
        for s in group.left_descents(w):
            u = group.lmul_gen(s, w)
            if not algebra.positive[s]:
                # T_s^2 = 1, so T_s T_y = T_{sy}: C_w = T_s C_u is C_u
                # relabelled, with no cancellation.
                if s == first:
                    c_exp[w] = {group.lmul_gen(s, y): c for y, c in c_exp[u].items()}
                continue
            cw, corrections[(s, u)] = _cs_times_c(algebra, s, u, w, c_exp)
            if s == first:
                c_exp[w] = cw
    return KLTable(algebra, c_exp, corrections)
