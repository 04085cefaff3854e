"""Finite Coxeter groups from Coxeter matrices, with exact root-system action.

The geometric reflection representation is realized over Q(zeta_N) with
Cartan-like entries -2cos(pi/m_st) = -(zeta_2m + zeta_2m^-1), uniformly
for every finite type including I2(m).  Elements act on the (finite) root
system by permutations, and are told apart by their images of the simple
roots, a basis of V; breadth-first enumeration yields
ShortLex-canonical reduced words and the length table, so no sign
decisions on real algebraic numbers are ever needed.
"""

from __future__ import annotations

from math import lcm
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclotomic import Cyclotomic, CyclotomicField
from .ordered_coeffs import Frozen, OrderedExponent

DEFAULT_SIZE_CAP = 10_000

_LETTERS = "stuvwxyz"


class InfiniteOrTooLarge(ValueError):
    """Root system or group enumeration exceeded the size cap."""


class ConjugacyViolation(ValueError):
    """A weight function differs on two conjugate generators."""

    def __init__(self, gen_a: str, gen_b: str):
        self.gen_a = gen_a
        self.gen_b = gen_b
        super().__init__(
            f"generators {gen_a!r} and {gen_b!r} are conjugate in W "
            f"but carry different weights"
        )


def default_gen_names(rank: int) -> Tuple[str, ...]:
    if rank <= len(_LETTERS):
        return tuple(_LETTERS[:rank])
    return tuple(f"s{i + 1}" for i in range(rank))


class CoxeterMatrix(Frozen):
    """Symmetric matrix of bond orders m_st (1 on the diagonal, >=2 off it)."""

    entries: Tuple[Tuple[int, ...], ...]

    def __init__(self, entries: Tuple[Tuple[int, ...], ...]) -> None:
        n = len(entries)
        for i, row in enumerate(entries):
            if len(row) != n:
                raise ValueError("Coxeter matrix must be square")
            if row[i] != 1:
                raise ValueError("diagonal entries must be 1")
            for j in range(n):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("Coxeter matrix must be symmetric")
                if i != j and entries[i][j] < 2:
                    raise ValueError("off-diagonal entries must be >= 2")
        super().__init__(entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "CoxeterMatrix":
        return CoxeterMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def from_upper_triangle(rank: int, upper: Sequence[Sequence[int]]) -> "CoxeterMatrix":
        """Build from rows m_{i,i+1} ... m_{i,rank-1}, one row per i."""
        m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
        if len(upper) != rank - 1:
            raise ValueError(f"expected {rank - 1} upper-triangle rows")
        for i, row in enumerate(upper):
            if len(row) != rank - 1 - i:
                raise ValueError(f"upper-triangle row {i + 1} has wrong length")
            for k, val in enumerate(row):
                j = i + 1 + k
                m[i][j] = m[j][i] = int(val)
        return CoxeterMatrix.from_rows(m)


def named_coxeter_matrix(kind: str, n: int) -> CoxeterMatrix:
    """The classified matrices: A n, B n, D n, I2 m."""
    kind = kind.upper()
    if kind == "A":
        if n < 1:
            raise ValueError("A n needs n >= 1")
        rank = n
        bonds = {(i, i + 1): 3 for i in range(rank - 1)}
    elif kind == "B":
        if n < 2:
            raise ValueError("B n needs n >= 2")
        rank = n
        bonds = {(i, i + 1): 3 for i in range(rank - 2)}
        bonds[(rank - 2, rank - 1)] = 4
    elif kind == "D":
        if n < 3:
            raise ValueError("D n needs n >= 3")
        rank = n
        # Chain on nodes 0..rank-2, fork: node rank-1 also bonds to rank-3.
        bonds = {(i, i + 1): 3 for i in range(rank - 2)}
        bonds[(rank - 3, rank - 1)] = 3
    elif kind == "I2":
        if n < 2:
            raise ValueError("I2 m needs m >= 2")
        rank = 2
        bonds = {(0, 1): n}
    else:
        raise ValueError(f"unknown Coxeter type {kind!r}")
    return CoxeterMatrix.from_upper_triangle(
        rank, [[bonds.get((i, j), 2) for j in range(i + 1, rank)] for i in range(rank - 1)])


def _ground_field(matrix: CoxeterMatrix, cap: int) -> CyclotomicField:
    """Q(zeta_N), N the lcm of 2m over the bonds m other than 2 and 3.

    N <= |W| for every finite W (N = 2m = |W| for I2(m), and the lcm is at
    most the product over the components), so N > cap is rejected before
    the field is built: building it takes time and memory growing with N.
    """
    order = lcm(*(2 * m for row in matrix.entries for m in row if m > 3))
    if order > cap:
        raise InfiniteOrTooLarge(f"the reflection representation needs Q(zeta_{order}): "
                                 f"group is infinite or above the size cap {cap}")
    return CyclotomicField.get(order)


def _cartan_entry(field: CyclotomicField, m: int) -> Cyclotomic:
    """-2cos(pi/m) as an exact field element."""
    if m == 1:
        return field.from_fraction(2)
    if m == 2:
        return field.zero()
    if m == 3:
        return field.from_fraction(-1)
    k = field.order // (2 * m)
    return -(field.zeta(k) + field.zeta(-k))


class CoxeterGroup:
    """A finite Coxeter group, fully enumerated.

    Elements are indices 0..|W|-1 in BFS (ShortLex) order; index 0 is the
    identity.  ``word(i)`` is the ShortLex-least reduced word of element i
    as a tuple of generator indices.
    """

    def __init__(self, matrix: CoxeterMatrix,
                 gen_names: Optional[Sequence[str]] = None,
                 size_cap: int = DEFAULT_SIZE_CAP):
        self.matrix = matrix
        self.rank = matrix.rank
        self.gen_names = tuple(gen_names) if gen_names else default_gen_names(self.rank)
        if len(self.gen_names) != self.rank:
            raise ValueError("generator name count must equal the rank")
        self.field = _ground_field(matrix, size_cap)
        self._cartan = [
            [_cartan_entry(self.field, matrix.entries[i][j]) for j in range(self.rank)]
            for i in range(self.rank)
        ]
        self.roots, self._gen_perms = self._enumerate_roots(size_cap)
        self._enumerate_elements(size_cap)
        self._classes: Optional[ConjugacyClasses] = None

    # -- construction -------------------------------------------------

    def _reflect(self, gen: int, root: Tuple[Cyclotomic, ...]) -> Tuple[Cyclotomic, ...]:
        # s_i changes only coordinate i: x_i -> x_i - sum_j a_ij x_j.
        acc = self.field.zero()
        for j in range(self.rank):
            a = self._cartan[gen][j]
            if not a.is_zero():
                acc = acc + a * root[j]
        out = list(root)
        out[gen] = root[gen] - acc
        return tuple(out)

    def _enumerate_roots(self, cap: int
                         ) -> Tuple[List[Tuple[Cyclotomic, ...]], List[Tuple[int, ...]]]:
        """The root system and each simple reflection's permutation of it.

        Breadth-first from the simple roots: each root is reflected by every
        generator once, in index order, so the images are the permutations.
        """
        one, zero = self.field.one(), self.field.zero()
        roots = [tuple(one if j == i else zero for j in range(self.rank))
                 for i in range(self.rank)]
        seen = {r: idx for idx, r in enumerate(roots)}
        perms: List[List[int]] = [[] for _ in range(self.rank)]
        idx = 0
        while idx < len(roots):
            for g in range(self.rank):
                image = self._reflect(g, roots[idx])
                img = seen.get(image)
                if img is None:
                    img = seen[image] = len(roots)
                    roots.append(image)
                    if len(roots) > cap:
                        raise InfiniteOrTooLarge(
                            f"root system exceeds {cap} vectors; "
                            f"group is infinite or above the size cap")
                perms[g].append(img)
            idx += 1
        return roots, [tuple(p) for p in perms]

    def _enumerate_elements(self, cap: int) -> None:
        # An element is fixed by its images of the simple roots (roots
        # 0..rank-1), which span V: the BFS is keyed by those, and the full
        # root permutation is built only for new elements.  heads[g] reads
        # the key of ws off the permutation of w, and steps[g] the whole
        # permutation of ws (a root system has at least two roots, so a tuple);
        # at rank 1 a key is a bare int, and rank 0 has no heads.
        rank = self.rank
        gen_perms = self._gen_perms
        heads = [itemgetter(*pg[:rank]) for pg in gen_perms]
        steps = [itemgetter(*pg) for pg in gen_perms]
        identity = tuple(range(len(self.roots)))
        perm_index = {itemgetter(*range(rank))(identity) if rank else (): 0}
        perms = [identity]
        words: List[Tuple[int, ...]] = [()]
        lengths = [0]
        rmul: List[List[int]] = []
        queue = [0]
        while queue:
            nxt = []
            for w in queue:
                pw = perms[w]
                row = []
                for g, head in enumerate(heads):
                    key = head(pw)
                    idx = perm_index.get(key)
                    if idx is None:
                        idx = len(perms)
                        if idx >= cap:
                            raise InfiniteOrTooLarge(
                                f"group exceeds {cap} elements")
                        perm_index[key] = idx
                        perms.append(steps[g](pw))
                        words.append(words[w] + (g,))
                        lengths.append(lengths[w] + 1)
                        nxt.append(idx)
                    row.append(idx)
                rmul.append(row)
            queue = nxt
        self.size = len(perms)
        self._words = words
        self._lengths = lengths
        self._rmul = rmul
        self._inv = [self.element_by_word(reversed(wd)) for wd in words]
        # g w = (w^-1 g)^-1.
        self._lmul = [[self._inv[rmul[self._inv[w]][g]] for w in range(self.size)]
                      for g in range(self.rank)]

    # -- queries -------------------------------------------------------

    def __len__(self) -> int:
        return self.size

    @property
    def identity(self) -> int:
        return 0

    def generator(self, g: int) -> int:
        return self._rmul[0][g]

    def word(self, w: int) -> Tuple[int, ...]:
        return self._words[w]

    def length(self, w: int) -> int:
        return self._lengths[w]

    def name(self, w: int) -> str:
        if w == 0:
            return "e"
        return " ".join(self.gen_names[g] for g in self._words[w])

    def element_by_word(self, word) -> int:
        w = 0
        for g in word:
            w = self._rmul[w][g]
        return w

    def lmul_gen(self, g: int, w: int) -> int:
        return self._lmul[g][w]

    def mul(self, a: int, b: int) -> int:
        for g in self._words[b]:
            a = self._rmul[a][g]
        return a

    def inv(self, w: int) -> int:
        return self._inv[w]

    def left_descents(self, w: int) -> List[int]:
        lw = self._lengths[w]
        return [g for g in range(self.rank) if self._lengths[self._lmul[g][w]] < lw]

    def conjugacy_classes(self) -> "ConjugacyClasses":
        if self._classes is None:
            self._classes = ConjugacyClasses(self)
        return self._classes


def orbit_walks(size: int, maps: Sequence[Sequence[int]]
                ) -> Dict[int, List[Tuple[int, int, Sequence[int]]]]:
    """The orbits of 0..size-1 under the element maps `maps`, keyed by
    their smallest elements: orbits[r] lists the other members in the
    breadth-first order of a walk from r, as (w, x, g), w = g[x] for a map
    g and x either r or a member listed before w."""
    seen = [False] * size
    out = {}
    for r in range(size):
        if not seen[r]:
            seen[r] = True
            walk = out[r] = []
            members = [r]
            for x in members:  # grows while it is read
                for g in maps:
                    w = g[x]
                    if not seen[w]:
                        seen[w] = True
                        walk.append((w, x, g))
                        members.append(w)
    return out


class ConjugacyClasses:
    """Orbit partition of W under conjugation, in canonical order."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        rmul = group._rmul
        conj = [[rmul[y][s] for y in row] for s, row in enumerate(group._lmul)]  # w -> s w s
        self.blocks = [sorted([r, *(w for w, _, _ in walk)])
                       for r, walk in orbit_walks(len(group), conj).items()]
        self.class_of = [0] * len(group)
        for cid, block in enumerate(self.blocks):
            for w in block:
                self.class_of[w] = cid
        self.representatives = [b[0] for b in self.blocks]
        self.sizes = [len(b) for b in self.blocks]

    def __len__(self) -> int:
        return len(self.blocks)


class WeightFunction(Frozen):
    """Nonnegative weights L(s) per generator, in a common exponent group."""

    exps: Tuple[OrderedExponent, ...]

    def __init__(self, exps: Tuple[OrderedExponent, ...]) -> None:
        if not exps:
            raise ValueError("weight function needs at least one generator")
        mode, arity = exps[0].mode, exps[0].arity
        for e in exps:
            if e.mode != mode or e.arity != arity:
                raise ValueError("all weights must share one exponent group")
        super().__init__(exps)

    @property
    def mode(self) -> str:
        return self.exps[0].mode

    @property
    def arity(self) -> Optional[int]:
        return self.exps[0].arity

    def __getitem__(self, g: int) -> OrderedExponent:
        return self.exps[g]

    @staticmethod
    def rational(values: Sequence) -> "WeightFunction":
        return WeightFunction(tuple(OrderedExponent.rational(v) for v in values))

    @staticmethod
    def from_lex_units(assignments: Sequence[Optional[int]], arity: int) -> "WeightFunction":
        """Weights e_i (1-based basis vectors) or 0 per generator, in Z^arity."""
        exps = []
        for a in assignments:
            vec = [0] * arity
            if a is not None:
                vec[a - 1] = 1
            exps.append(OrderedExponent.lex(vec))
        return WeightFunction(tuple(exps))


def conjugate_generator_components(matrix: CoxeterMatrix) -> List[int]:
    """Component id per generator under the odd-bond conjugacy criterion.

    Generators s, t are conjugate in a finite Coxeter group exactly when
    they are joined by a path of odd m_st.
    """
    n = matrix.rank
    comp = list(range(n))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if matrix.entries[i][j] % 2 == 1:
                comp[find(i)] = find(j)
    roots = [find(i) for i in range(n)]
    rename: Dict[int, int] = {}
    return [rename.setdefault(r, len(rename)) for r in roots]


def validate_weights(matrix: CoxeterMatrix, weights: WeightFunction,
                     gen_names: Optional[Sequence[str]] = None) -> None:
    """Check nonnegativity and constancy on conjugate generators."""
    names = tuple(gen_names) if gen_names else default_gen_names(matrix.rank)
    if len(weights.exps) != matrix.rank:
        raise ValueError("weight count must equal the rank")
    for g, e in enumerate(weights.exps):
        if e.sign() < 0:
            raise ValueError(f"weight of generator {names[g]!r} is negative")
    comp = conjugate_generator_components(matrix)
    seen: Dict[int, int] = {}
    for g, c in enumerate(comp):
        if c in seen:
            if weights[seen[c]] != weights[g]:
                raise ConjugacyViolation(names[seen[c]], names[g])
        else:
            seen[c] = g


def build_group(matrix: CoxeterMatrix,
                gen_names: Optional[Sequence[str]] = None,
                size_cap: int = DEFAULT_SIZE_CAP) -> CoxeterGroup:
    return CoxeterGroup(matrix, gen_names=gen_names, size_cap=size_cap)
