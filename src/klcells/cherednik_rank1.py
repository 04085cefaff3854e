"""The rank-1 rational Cherednik algebra at t=0 for the cyclic group mu_d.

Presentation over Q(zeta_d):

    s x s^-1 = zeta^-1 x,   s xi s^-1 = zeta xi,   [xi, x] = sum_i c_i s^i.

Elements are kept in the normal form sum over monomials x^a xi^b s^i with
exact cyclotomic coefficients.  A product is built by right
multiplication: by s^j and xi it only shifts or twists the s-exponent,
and by x it follows one closed form (see `_times_x`) that moves x left
past xi^b, picking up the commutator once per power of xi.

The parameter change c <-> kappa diagonalizes the group-algebra part on
the idempotents eps_i = (1/d) sum_j zeta^{ij} s^j; the Euler element,
the center presentation X Y = prod (Z - kappa_i), inertia subgroup,
cells, multiplicities and families all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclotomic, CyclotomicField

Monomial = Tuple[int, int, int]  # (a, b, i) <-> x^a xi^b s^i


class NonzeroConstantTerm(ValueError):
    """kappa_to_c asked for a kappa vector off the sum-zero slice."""


@dataclass(frozen=True)
class Rank1Params:
    """d, the c-vector (c_1..c_{d-1}) and the kappa-vector (kappa_1..kappa_d).

    The two vectors determine each other; kappa_d doubles as kappa_0 and
    the kappas sum to zero exactly.
    """

    d: int
    c: Tuple[Cyclotomic, ...]
    kappa: Tuple[Cyclotomic, ...]

    @property
    def field(self) -> CyclotomicField:
        return CyclotomicField.get(self.d)

    @staticmethod
    def from_c(d: int, c_values: Sequence) -> "Rank1Params":
        if d < 2:
            raise ValueError("need d >= 2")
        if len(c_values) != d - 1:  # before Q(zeta_d) is built: d may be huge
            raise ValueError(f"c must have {d - 1} entries")
        field = CyclotomicField.get(d)
        c = tuple(v if isinstance(v, Cyclotomic) else field.from_fraction(v)
                  for v in c_values)
        return Rank1Params(d, c, c_to_kappa(d, c))

    @staticmethod
    def from_kappa(d: int, kappa_values: Sequence) -> "Rank1Params":
        if d < 2:
            raise ValueError("need d >= 2")
        if len(kappa_values) != d:  # before Q(zeta_d) is built: d may be huge
            raise ValueError(f"kappa must have {d} entries")
        field = CyclotomicField.get(d)
        kappa = tuple(v if isinstance(v, Cyclotomic) else field.from_fraction(v)
                      for v in kappa_values)
        return Rank1Params(d, kappa_to_c(d, kappa), kappa)

    def kappa_indexed(self, i: int) -> Cyclotomic:
        """kappa_i with the cyclic convention kappa_0 = kappa_d (1-based tuple)."""
        return self.kappa[(i - 1) % self.d]


def c_to_kappa(d: int, c: Sequence[Cyclotomic]) -> Tuple[Cyclotomic, ...]:
    """Solve sum c_i s^i = sum (kappa_i - kappa_{i+1}) eps_i with sum kappa = 0.

    On the s^j basis the identity is a discrete Fourier transform, so the
    differences delta_i = kappa_i - kappa_{i+1} come from the inverse
    transform delta_i = sum_j c_j zeta^{-ij}; the sum-zero normalization
    then pins the telescoping.
    """
    field = CyclotomicField.get(d)
    delta = []
    for i in range(d):
        acc = field.zero()
        for j in range(1, d):
            acc = acc + c[j - 1] * field.zeta((-i * j) % d)
        delta.append(acc)
    # kappa_i = kappa_1 - sum_{t=1}^{i-1} delta_t, normalized to sum zero.
    partial = [field.zero()]
    for i in range(1, d):
        partial.append(partial[-1] + delta[i])
    total = field.zero()
    for x in partial:
        total = total + x
    kappa1 = total / d
    return tuple(kappa1 - partial[i] for i in range(d))


def kappa_to_c(d: int, kappa: Sequence[Cyclotomic]) -> Tuple[Cyclotomic, ...]:
    """Coefficients of s^1..s^{d-1} in sum (kappa_i - kappa_{i+1}) eps_i."""
    field = CyclotomicField.get(d)
    total = field.zero()
    for x in kappa:
        total = total + x
    if not total.is_zero():
        raise NonzeroConstantTerm("kappa values must sum to zero")
    out = []
    for j in range(1, d):
        acc = field.zero()
        for i in range(d):
            acc = acc + (kappa[(i - 1) % d] - kappa[i]) * field.zeta((i * j) % d)
        out.append(acc / d)
    return tuple(out)


class AlgebraElt:
    """A normal-form element: finite map (a, b, i) -> Q(zeta_d) scalar."""

    __slots__ = ("params", "terms")

    def __init__(self, params: Rank1Params, terms: Dict[Monomial, Cyclotomic]):
        self.params = params
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    # constructors ------------------------------------------------------

    @staticmethod
    def zero(params: Rank1Params) -> "AlgebraElt":
        return AlgebraElt(params, {})

    @staticmethod
    def monomial(params: Rank1Params, a: int, b: int, i: int,
                 coeff: Optional[Cyclotomic] = None) -> "AlgebraElt":
        coeff = params.field.one() if coeff is None else coeff
        return AlgebraElt(params, {(a, b, i % params.d): coeff})

    @staticmethod
    def one(params: Rank1Params) -> "AlgebraElt":
        return AlgebraElt.monomial(params, 0, 0, 0)

    @staticmethod
    def x(params: Rank1Params) -> "AlgebraElt":
        return AlgebraElt.monomial(params, 1, 0, 0)

    @staticmethod
    def xi(params: Rank1Params) -> "AlgebraElt":
        return AlgebraElt.monomial(params, 0, 1, 0)

    @staticmethod
    def s(params: Rank1Params, i: int = 1) -> "AlgebraElt":
        return AlgebraElt.monomial(params, 0, 0, i)

    @staticmethod
    def scalar(params: Rank1Params, value) -> "AlgebraElt":
        field = params.field
        c = value if isinstance(value, Cyclotomic) else field.from_fraction(value)
        return AlgebraElt(params, {(0, 0, 0): c})

    # ring structure ------------------------------------------------------

    def __add__(self, other: "AlgebraElt") -> "AlgebraElt":
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add(out, m, c)
        return AlgebraElt(self.params, out)

    def __neg__(self) -> "AlgebraElt":
        return AlgebraElt(self.params, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElt") -> "AlgebraElt":
        return self + (-other)

    def scale(self, coeff: Cyclotomic) -> "AlgebraElt":
        return AlgebraElt(self.params, {m: c * coeff for m, c in self.terms.items()})

    def __mul__(self, other: "AlgebraElt") -> "AlgebraElt":
        """Right-multiply self by each monomial x^c xi^e s^j of other: self x^c
        comes from `_times_x` (once per c), then xi^e twists the s^i part by
        zeta^{ie} and s^j shifts it."""
        params = self.params
        field, d = params.field, params.d
        times_x = [self.terms]  # times_x[c] = terms of self * x^c
        acc: Dict[Monomial, Cyclotomic] = {}
        for (c, e, j), coeff in other.terms.items():
            while len(times_x) <= c:
                times_x.append(_times_x(params, times_x[-1]))
            for (a, b, i), p in times_x[c].items():
                term, twist = p * coeff, i * e % d
                _add(acc, (a, b + e, (i + j) % d),
                     term * field.zeta(twist) if twist else term)
        return AlgebraElt(params, acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElt):
            return NotImplemented
        return self.params.d == other.params.d and self.terms == other.terms

    def __hash__(self):
        return hash((self.params.d, tuple(sorted(self.terms.items(),
                                                 key=lambda kv: kv[0]))))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (a, b, i) in sorted(self.terms):
            c = self.terms[(a, b, i)]
            sym = "".join((f"x^{a} " if a else "", f"xi^{b} " if b else "",
                           f"s^{i} " if i else "")).strip() or "1"
            parts.append(f"({c.render()})*{sym}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"AlgebraElt({self.render()})"


# -- normal ordering --------------------------------------------------------

def _add(acc: Dict[Monomial, Cyclotomic], mono: Monomial, c: Cyclotomic) -> None:
    cur = acc.get(mono)
    acc[mono] = c if cur is None else cur + c


def _times_x(params: Rank1Params, terms: Dict[Monomial, Cyclotomic]
             ) -> Dict[Monomial, Cyclotomic]:
    """Normal form of (sum terms) * x, monomial by monomial:

        x^a xi^b s^i x = zeta^-i (x^{a+1} xi^b s^i
            + sum_k c_k (1 + zeta^k + ... + zeta^{k(b-1)}) x^a xi^{b-1} s^{i+k}),

    from xi^b x = x xi^b + sum_{t<b} xi^t [xi, x] xi^{b-1-t} and the twists
    s x = zeta^-1 x s, s xi = zeta xi s.
    """
    field, d = params.field, params.d
    z = [(k, ck) for k, ck in enumerate(params.c, 1) if not ck.is_zero()]
    # b -> [(k, c_k (1 + zeta^k + ... + zeta^{k(b-1)}))]; none for b = 0.
    commutators: Dict[int, List[Tuple[int, Cyclotomic]]] = {0: []}
    out: Dict[Monomial, Cyclotomic] = {}
    for (a, b, i), coeff in terms.items():
        if i:
            coeff = coeff * field.zeta(-i)
        _add(out, (a + 1, b, i), coeff)
        row = commutators.get(b)
        if row is None:
            row = commutators[b] = [
                (k, ck * sum((field.zeta(k * t) for t in range(b)), field.zero()))
                for k, ck in z]
        for k, w in row:
            _add(out, (a, b - 1, (i + k) % d), coeff * w)
    return out


# -- named elements and checks ------------------------------------------------


def normal_form(params: Rank1Params, word: Sequence) -> AlgebraElt:
    """Rewrite a word in the generators to the x^a xi^b s^i basis.

    Tokens are 'x', 'xi', 's', or any scalar acceptable to the field;
    the result does not depend on how the word is associated.
    """
    out = AlgebraElt.one(params)
    for token in word:
        if token == "x":
            out = out * AlgebraElt.x(params)
        elif token == "xi":
            out = out * AlgebraElt.xi(params)
        elif token == "s":
            out = out * AlgebraElt.s(params)
        else:
            out = out * AlgebraElt.scalar(params, token)
    return out


def euler_element(params: Rank1Params) -> AlgebraElt:
    """eu = xi x - sum_i (1 - zeta^i)^{-1} c_i s^i, in normal form."""
    field = params.field
    eu = AlgebraElt.xi(params) * AlgebraElt.x(params)
    for i in range(1, params.d):
        ci = params.c[i - 1]
        if ci.is_zero():
            continue
        coeff = ci / (field.one() - field.zeta(i))
        eu = eu - AlgebraElt.monomial(params, 0, 0, i, coeff)
    return eu


def commutator(a: AlgebraElt, b: AlgebraElt) -> AlgebraElt:
    return a * b - b * a


def is_central(z: AlgebraElt, params: Rank1Params) -> bool:
    """Commuting with x, xi and s suffices since they generate."""
    for gen in (AlgebraElt.x(params), AlgebraElt.xi(params), AlgebraElt.s(params)):
        if not commutator(z, gen).is_zero():
            return False
    return True


def verify_presentation(params: Rank1Params) -> Optional[AlgebraElt]:
    """Check x^d xi^d = prod_i (eu - kappa_i) exactly; None means it holds,
    otherwise the nonzero residual is returned as a counterexample."""
    lhs = AlgebraElt.monomial(params, params.d, params.d, 0)
    eu = euler_element(params)
    rhs = AlgebraElt.one(params)
    for i in range(1, params.d + 1):
        rhs = rhs * (eu - AlgebraElt.scalar(params, params.kappa_indexed(i)))
    residual = lhs - rhs
    return None if residual.is_zero() else residual


# -- cells, multiplicities, families -----------------------------------------


@dataclass
class CMCellData:
    """Cells of mu_d, inertia generators, fiber and families for one
    parameter point."""

    params: Rank1Params
    cells: List[List[int]]          # exponents j of s^j, each block sorted
    inertia_gens: List[Tuple[int, int]]  # transpositions (i j) of {1..d}
    fiber: List[Cyclotomic]         # distinct kappa values
    families: List[List[int]]       # exponents j of det^j


def _orbit_partition(d: int, gens: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """Orbits of {1..d} under the listed transpositions."""
    parent = list(range(d + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in gens:
        parent[find(i)] = find(j)
    orbits: Dict[int, List[int]] = {}
    for i in range(1, d + 1):
        orbits.setdefault(find(i), []).append(i)
    return sorted((sorted(v) for v in orbits.values()), key=lambda b: b[0])


def inertia_and_cells(params: Rank1Params) -> CMCellData:
    """Cells both as inertia orbits and by kappa equality, with agreement
    asserted; the fiber is the set of distinct kappa values."""
    d = params.d
    # kappa-equality blocks of indices 1..d (s^i pairs with kappa_i, s^d = 1).
    value_blocks: List[Tuple[Cyclotomic, List[int]]] = []
    for i in range(1, d + 1):
        v = params.kappa_indexed(i)
        for val, blk in value_blocks:
            if val == v:
                blk.append(i)
                break
        else:
            value_blocks.append((v, [i]))
    eq_blocks = sorted((sorted(blk) for _, blk in value_blocks), key=lambda b: b[0])

    # Inertia: the Young subgroup stabilizing the kappa tuple, generated by
    # adjacent transpositions inside each block.
    gens: List[Tuple[int, int]] = []
    for _, blk in value_blocks:
        blk = sorted(blk)
        gens.extend((blk[t], blk[t + 1]) for t in range(len(blk) - 1))
    orbit_blocks = _orbit_partition(d, gens)
    if orbit_blocks != eq_blocks:
        raise AssertionError("inertia orbits disagree with kappa equality")

    fiber = [val for val, _ in sorted(value_blocks,
                                      key=lambda vb: vb[0].sort_key())]
    cells = [sorted(i % d for i in blk) for blk in eq_blocks]
    cells.sort(key=lambda b: b[0])
    families = [list(b) for b in cells]
    return CMCellData(params, cells, gens, fiber, families)


def cm_multiplicities(data: CMCellData) -> Dict[Tuple[int, int], int]:
    """(cell index, j) -> multiplicity of det^j: 1 iff s^j lies in the cell."""
    d = data.params.d
    out = {}
    for idx, block in enumerate(data.cells):
        for j in range(d):
            out[(idx, j)] = 1 if j in block else 0
    return out


def cm_report(data: CMCellData) -> dict:
    """JSON-ready rendering of one parameter point."""
    params = data.params
    mult = cm_multiplicities(data)
    cycles = "".join(f"({i} {j})" for i, j in data.inertia_gens) or "()"
    return {
        "d": params.d,
        "c": [v.render() for v in params.c],
        "kappa": [v.render() for v in params.kappa],
        "cells": [[f"s^{j}" for j in b] for b in data.cells],
        "families": [[f"det^{j}" for j in b] for b in data.families],
        "fiber": [v.render() for v in data.fiber],
        "fiber_size": len(data.fiber),
        "inertia_generators": cycles,
        "multiplicities": {
            f"cell_{idx}": {f"det^{j}": mult[(idx, j)] for j in range(params.d)}
            for idx in range(len(data.cells))
        },
    }
