"""Exact complex character tables of finite groups from a multiplication oracle.

Dixon's class-sum approach: the class matrices M_i (class multiplication
constants) commute, and their common eigenvectors are the central
characters.  Modulo a prime p = 1 (mod exponent), p > 2|W|, the space is
split exactly over F_p into eigenspaces of M_1, M_2, ... until every space
is a line; M_i is built only when the split reaches class i, and each
split finds the characteristic polynomial in O(d^3) by a reduction to
Hessenberg form.  On a class closed under its coprime powers every
character value is an integer of size at most chi(1) < p/2, read off its
residue.  On the other classes the eigenvalue multiplicities of rho(g)
are recovered by a discrete Fourier transform over F_p and lifted to the
cyclotomic field Q(zeta_exponent), where all values are exact.

Any group object with mul/inv/identity/name/conjugacy_classes works;
CoxeterGroup is the one the pipeline builds.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclotomic, CyclotomicField


class CharacterTable:
    def __init__(self, group, classes, field, rows, class_orders):
        self.group: object = group
        self.classes: object = classes
        self.field: CyclotomicField = field
        self.rows: List[List[Cyclotomic]] = rows
        self.class_orders: List[int] = class_orders

    @property
    def degrees(self) -> List[int]:
        return [int(row[0].to_fraction()) for row in self.rows]

    @cached_property
    def dual(self) -> Tuple[int, List[List[List[Tuple[int, int]]]]]:
        """(scale, dual) with dual[r][l] the nonzero power-basis coefficients
        of D * |C_l| * conj(chi_r(l)) as (index, int) pairs and
        scale = D * |W|, where D is the lcm of their denominators, so that
        <f, chi_r> = sum_l f(l) * dual[r][l] / scale.  A rational entry is
        one pair at most.  Built on first use, since most tables are never
        used to decompose."""
        sizes = self.classes.sizes
        conj = [[v.conj() * size for v, size in zip(row, sizes)]
                for row in self.rows]
        d = lcm(*(v.den for row in conj for v in row))
        dual = [[[(j, c * (d // v.den)) for j, c in enumerate(v.num) if c]
                 for v in row]
                for row in conj]
        return d * sum(sizes), dual

    def to_json_dict(self) -> dict:
        reps = self.classes.representatives
        name = self.group.name
        return {
            "zeta_order": self.field.order,
            "classes": [
                {"representative": name(r), "size": self.classes.sizes[i],
                 "element_order": self.class_orders[i]}
                for i, r in enumerate(reps)
            ],
            "irreducibles": [
                [[_fraction_text(a, value.den) for a in value.num] for value in row]
                for row in self.rows
            ],
            "degrees": self.degrees,
        }


_ZERO = "0"


def _fraction_text(a: int, den: int) -> str:
    """str(Fraction(a, den)) for den >= 1, without building the Fraction.
    Every zero is the one string _ZERO: most coefficients of a table are."""
    if not a:
        return _ZERO
    g = gcd(a, den)
    return str(a // g) if g == den else f"{a // g}/{den // g}"


# -- F_p linear algebra helpers ------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def dixon_prime(order: int, exponent: int) -> int:
    """Least prime p = 1 (mod exponent) with p > 2*order (deterministic)."""
    p = ((2 * order) // exponent) * exponent + 1
    if p <= 2 * order:
        p += exponent
    while not _is_prime(p):
        p += exponent
    return p


def _primitive_root(p: int) -> int:
    n = p - 1
    factors = []
    m, d = n, 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    g = 2
    while True:
        if all(pow(g, n // q, p) != 1 for q in factors):
            return g
        g += 1


def _charpoly_mod(a: List[List[int]], p: int) -> List[int]:
    """x^d + c1 x^(d-1) + ... + cd mod p, in O(d^3): a similarity
    reduction to upper Hessenberg form H, then the recurrence
    P_(m+1) = x P_m - sum_(r <= m) h_(r,m) h_(r+1,r) ... h_(m,m-1) P_r
    over the characteristic polynomials P_m of the leading m x m blocks."""
    d = len(a)
    h = [[x % p for x in row] for row in a]
    for m in range(1, d - 1):
        piv = next((i for i in range(m, d) if h[i][m - 1]), None)
        if piv is None:
            continue
        h[m], h[piv] = h[piv], h[m]
        for row in h:
            row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], -1, p)
        hm = h[m]
        for i in range(m + 1, d):
            u = h[i][m - 1] * inv % p
            if u:
                # row_i -= u row_m, then col_m += u col_i: H stays similar.
                h[i] = [(x - u * y) % p for x, y in zip(h[i], hm)]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]  # constant term first
    for m in range(d):
        nxt = [0] + polys[m]
        t = 1
        for r in range(m, -1, -1):
            f = t * h[r][m] % p
            for j, c in enumerate(polys[r]):
                nxt[j] = (nxt[j] - f * c) % p
            t = t * h[r][r - 1] % p  # unused after r = 0
        polys.append(nxt)
    return polys[d][::-1]


def _scan_order(p: int) -> Iterator[int]:
    """0, 1, p-1, 2, p-2, ...: every residue mod p, small absolute values
    first."""
    yield 0
    for t in range(1, p // 2 + 1):
        yield t
        if p - t != t:
            yield p - t


def _divide_linear(coeffs: List[int], x: int, p: int) -> Tuple[List[int], int]:
    """(quotient, remainder) of the polynomial by (X - x) mod p, by
    synthetic division; coefficients leading first."""
    acc = 0
    out = []
    for c in coeffs:
        acc = (acc * x + c) % p
        out.append(acc)
    return out[:-1], out[-1]


def _poly_roots_mod(coeffs: List[int], p: int) -> List[int]:
    """The distinct roots in F_p, ascending, of the polynomial with the
    given coefficients (leading first, leading coefficient nonzero mod p).

    x runs in _scan_order, and each root is divided out until the quotient
    is constant, where the scan stops.  The eigenvalues of a class matrix
    M_i are |C_i| chi(g_i) / chi(1), so for a rational table they are
    integers of size at most |C_i|, found among the first 2|C_i| + 1
    values of x, not the p of a full scan."""
    roots = []
    for x in _scan_order(p):
        if len(coeffs) == 1:
            break
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % p
        if acc:
            continue
        roots.append(x)
        quotient, rem = _divide_linear(coeffs, x, p)
        while not rem:  # x may be a repeated root
            coeffs = quotient
            quotient, rem = _divide_linear(coeffs, x, p)
    return sorted(roots)


def _rref(rows: List[List[int]], p: int) -> Tuple[List[List[int]], List[int]]:
    rows = [r[:] for r in rows]
    pivots: List[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(a: List[List[int]], p: int) -> List[List[int]]:
    d = len(a)
    rows, pivots = _rref(a, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(d):
        if free in pivot_set:
            continue
        vec = [0] * d
        vec[free] = 1
        for r, pc in zip(rows, pivots):
            vec[pc] = (-r[free]) % p
        basis.append(vec)
    return basis


class _Subspace:
    """Row space in rref form with pivot bookkeeping."""

    def __init__(self, rows: List[List[int]], p: int):
        self.rows, self.pivots = _rref(rows, p)
        self.p = p

    @property
    def dim(self) -> int:
        return len(self.rows)

    def coords(self, vec: List[int]) -> List[int]:
        p = self.p
        out = [vec[pc] % p for pc in self.pivots]
        residual = vec[:]
        for c, row in zip(out, self.rows):
            if c:
                residual = [(x - c * y) % p for x, y in zip(residual, row)]
        if any(residual):
            raise ArithmeticError("vector escaped an invariant subspace")
        return out


def _refine(space: _Subspace, mat: List[List[int]], p: int) -> List[_Subspace]:
    """Split a mat-invariant subspace into eigenspaces of mat."""
    d = space.dim
    k = len(mat)
    images = [space.coords([sum(map(mul, mrow, row)) % p for mrow in mat])
              for row in space.rows]
    # action[t][idx] = coefficient of basis row t in the image of row idx
    action = [[images[idx][t] for idx in range(d)] for t in range(d)]
    roots = _poly_roots_mod(_charpoly_mod(action, p), p)
    out = []
    for lam in roots:
        shifted = [[(action[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                   for i in range(d)]
        null_basis = _nullspace(shifted, p)
        if not null_basis:
            continue
        ambient = []
        for nv in null_basis:
            vec = [0] * k
            for coef, row in zip(nv, space.rows):
                if coef:
                    vec = [(x + coef * y) % p for x, y in zip(vec, row)]
            ambient.append(vec)
        out.append(_Subspace(ambient, p))
    if sum(s.dim for s in out) != d:
        raise ArithmeticError("eigenspace refinement lost dimensions")
    return out


# -- the table -------------------------------------------------------------


def _class_matrix(group, classes, i: int) -> List[List[int]]:
    """M_i[l][j] = #{(x, y) in C_i x C_l : xy = rep_j}, from the
    |C_i| * k products x^-1 rep_j with x in C_i."""
    k = len(classes.blocks)
    class_of = classes.class_of
    mat = [[0] * k for _ in range(k)]
    for x in classes.blocks[i]:
        xinv = group.inv(x)
        for j, rep in enumerate(classes.representatives):
            mat[class_of[group.mul(xinv, rep)]][j] += 1
    return mat


def character_table(group) -> CharacterTable:
    """Exact character table; rows sorted with the trivial character first,
    then by (degree, value key)."""
    classes = group.conjugacy_classes()
    k = len(classes.blocks)
    n = len(group)
    reps = classes.representatives
    # power_class[l][t] is the class of rep_l^t, for t below its order.
    power_class = []
    for rep in reps:
        row, g = [classes.class_of[group.identity]], rep
        while g != group.identity:
            row.append(classes.class_of[g])
            g = group.mul(g, rep)
        power_class.append(row)
    class_orders = list(map(len, power_class))
    exponent = lcm(*class_orders) if class_orders else 1
    p = dixon_prime(n, exponent)
    field = CyclotomicField.get(exponent)

    # M_i u = omega_i(chi) u on u = (omega_j(chi))_j; the split stops once
    # every space is a line, so M_i is built only for the classes it reaches.
    spaces = [_Subspace([[1 if i == j else 0 for j in range(k)] for i in range(k)], p)]
    for i in range(1, k):
        if all(s.dim == 1 for s in spaces):
            break
        mat = _class_matrix(group, classes, i)
        nxt: List[_Subspace] = []
        for s in spaces:
            if s.dim == 1:
                nxt.append(s)
            else:
                nxt.extend(_refine(s, mat, p))
        spaces = nxt
    if not all(s.dim == 1 for s in spaces):
        raise ArithmeticError("class matrices failed to separate characters")

    inv_class = [classes.class_of[group.inv(r)] for r in reps]
    theta = _primitive_root(p)
    zeta_fp = pow(theta, (p - 1) // exponent, p)

    # A class closed under its coprime powers (rep^t ~ rep for every t prime
    # to its order m) is rational: chi there is fixed by Gal(Q(zeta_m)/Q),
    # so an integer with |chi| <= chi(1) < p/2, read off chi_fp as its
    # symmetric lift.  Only the other classes need the DFT, whose kernel is
    # built once for all rows: kernels[l][e] = zeta_m^(-e) mod p, so
    # zeta_m^(-jt) = kernels[l][jt % m].
    rational = [all(pc[t] == l for t in range(2, len(pc)) if gcd(t, len(pc)) == 1)
                for l, pc in enumerate(power_class)]
    inv_sizes = [pow(size, -1, p) for size in classes.sizes]
    kernels = []
    for l, m in enumerate(class_orders):
        zinv = pow(zeta_fp, -(exponent // m), p)
        kernels.append(None if rational[l] else [pow(zinv, e, p) for e in range(m)])
    zero_tail = (0,) * (field.degree - 1)

    rows_out: List[List[Cyclotomic]] = []
    for s in spaces:
        u = s.rows[0]
        if u[0] % p == 0:
            raise ArithmeticError("central character vanishes on the identity class")
        scale = pow(u[0], -1, p)
        u = [(x * scale) % p for x in u]
        # chi(1)^2 = |G| / sum_l u_l u_{l*} / |C_l|
        acc = sum(u[l] * u[inv_class[l]] * inv_sizes[l] for l in range(k)) % p
        # dixon_prime gives p > 2|G| >= 2 chi(1)^2, so the residue is chi(1)^2
        # itself and chi(1) its integer square root.
        chi1_sq = (n * pow(acc, -1, p)) % p
        chi1 = isqrt(chi1_sq)
        if chi1 * chi1 != chi1_sq:
            raise ArithmeticError("degree residue is not a perfect square")
        chi_fp = [(chi1 * u[l] * inv_sizes[l]) % p for l in range(k)]

        row = []
        for l in range(k):
            kernel = kernels[l]
            if kernel is None:
                c = chi_fp[l]
                if c > p // 2:
                    c -= p
                if abs(c) > chi1:
                    raise ArithmeticError("value on a rational class exceeds the degree")
                row.append(field.from_numerators((c,) + zero_tail))
                continue
            m = class_orders[l]
            minv = pow(m, -1, p)
            powers = [chi_fp[c] for c in power_class[l]]
            mults = [sum(v * kernel[j * t % m] for t, v in enumerate(powers)) * minv % p
                     for j in range(m)]
            if sum(mults) % p != chi1 % p:
                raise ArithmeticError("eigenvalue multiplicities do not sum to the degree")
            value = [0] * field.degree
            for j, c in enumerate(mults):
                if c:
                    for i, t in enumerate(field.zeta(j * (exponent // m)).num):
                        if t:
                            value[i] += c * t
            row.append(field.from_numerators(value))
        rows_out.append(row)

    # Deterministic row order: trivial first, then (degree, value key).
    one = field.one()

    def row_key(row):
        return (int(row[0].to_fraction()), tuple(v.sort_key() for v in row))

    trivial = [r for r in rows_out if all(v == one for v in r)]
    rest = sorted((r for r in rows_out if not all(v == one for v in r)), key=row_key)
    rows_sorted = trivial + rest
    if len(trivial) != 1:
        raise ArithmeticError("expected exactly one trivial character")
    return CharacterTable(group, classes, field, rows_sorted, class_orders)


def inner_product(f: Sequence[Cyclotomic], g: Sequence[Cyclotomic],
                  table: CharacterTable) -> Cyclotomic:
    """(1/|W|) sum over classes of |class| * f * conj(g)."""
    n = sum(table.classes.sizes)
    acc = table.field.zero()
    for size, fv, gv in zip(table.classes.sizes, f, g):
        acc = acc + fv * gv.conj() * size
    return acc / n


def decompose(f: Sequence[Cyclotomic], table: CharacterTable
              ) -> Tuple[List[Cyclotomic], bool]:
    """Multiplicity vector of f against the irreducible rows, plus a flag
    telling whether every entry is a nonnegative rational integer.

    A rational-valued f is decomposed in integers against the cached dual
    table; any other f goes through inner_product."""
    if all(v.is_rational() for v in f):
        e = lcm(*(v.den for v in f))
        scale = table.dual[0]
        coeffs = [table.field.from_numerators(acc, scale * e) for acc in
                  _dual_numerators([v.num[0] * (e // v.den) for v in f], table)]
    else:
        coeffs = [inner_product(f, row, table) for row in table.rows]
    ok = all(c.den == 1 and c.num[0] >= 0 and c.is_rational() for c in coeffs)
    return coeffs, ok


def _dual_numerators(ints: Sequence[int], table: CharacterTable) -> List[List[int]]:
    """Per irreducible row r, the power-basis numerators of
    sum_l ints[l] * dual[r][l], i.e. of scale * <ints, chi_r>."""
    deg = table.field.degree
    out = []
    for drow in table.dual[1]:
        acc = [0] * deg
        for a, dv in zip(ints, drow):
            if a:
                for j, c in dv:
                    acc[j] += a * c
        out.append(acc)
    return out


def integer_multiplicities(values: Sequence[int], table: CharacterTable
                           ) -> Optional[List[int]]:
    """The multiplicities of the integer class function `values` (every
    cell character) against the irreducible rows, or None unless every one
    is a nonnegative integer: `decompose` without leaving the ints."""
    scale = table.dual[0]
    out = []
    for acc in _dual_numerators(values, table):
        m, r = divmod(acc[0], scale)
        if r or m < 0 or any(acc[1:]):
            return None
        out.append(m)
    return out


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact row orthogonality (row i decomposes to the i-th unit vector)
    and the degree sum |W| = sum chi(1)^2."""
    for i, row in enumerate(table.rows):
        coeffs, _ = decompose(row, table)
        if not all(c == (1 if i == j else 0) for j, c in enumerate(coeffs)):
            return False
    n = sum(table.classes.sizes)
    return sum(d * d for d in table.degrees) == n
