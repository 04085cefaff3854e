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
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Dict, List, Tuple

from .coxeter import CoxeterGroup, WeightFunction, validate_weights
from .ordered_coeffs import LaurentElt, OrderedExponent

HeckeCoeffs = Dict[int, LaurentElt]


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
        blob = json.dumps(self.header(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def one_coeff(self) -> LaurentElt:
        return LaurentElt(self.grid, {0: 1})

    def unit(self) -> HeckeCoeffs:
        return {self.group.identity: self.one_coeff()}


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

    def to_json_dict(self) -> dict:
        doc = self.algebra.header()
        doc["key"] = self.algebra.content_key()
        doc["c_basis"] = {self.group.name(w): self._coeffs_to_json(self._c_exp[w])
                          for w in range(len(self.group))}
        doc["cs_products"] = {
            f"{self.group.gen_names[s]}|{self.group.name(w)}":
                self._coeffs_to_json(h)
            for (s, w), h in sorted(self._cs_in_c.items())
        }
        return doc

    @staticmethod
    def from_json_dict(doc: dict, algebra: HeckeAlgebra) -> "KLTable":
        group, grid = algebra.group, algebra.grid

        def coeffs(obj: dict) -> HeckeCoeffs:
            return {group.element_by_name(nm): LaurentElt.parse(txt, grid=grid)
                    for nm, txt in obj.items()}

        c_exp = [coeffs(doc["c_basis"][group.name(w)]) for w in range(len(group))]
        cs: Dict[Tuple[int, int], HeckeCoeffs] = {}
        for key, obj in doc["cs_products"].items():
            sname, wname = key.split("|", 1)
            s = group.gen_names.index(sname)
            cs[(s, group.element_by_name(wname))] = coeffs(obj)
        return KLTable(algebra, c_exp, cs)


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
