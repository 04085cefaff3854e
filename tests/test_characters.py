from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from api_helpers import from_integers, regular_character, trivial_character
from charpoly_reference import charpoly_faddeev_leverrier, poly_roots_brute_force
from mn_oracle import coxeter_class_cycle_types, symmetric_group_table
import klcells.characters as characters
from klcells.characters import (CharacterTable, _charpoly_mod,
                                _poly_roots_mod, character_table, decompose,
                                dixon_prime, inner_product, integer_multiplicities,
                                verify_orthogonality)
from klcells.coxeter import CoxeterMatrix, build_group, named_coxeter_matrix
from klcells.specfile import parse_spec
from test_klbasis_golden import SPECS_BY_COMMAND

GOLDEN_CHARACTER_SPECS = SPECS_BY_COMMAND["characters"]

# Groups for the decomposition tests: Weyl groups with rational tables,
# H3, I2(5), I2(8) whose tables have irrational real values, and Z/5,
# whose characters are not real, so that complex conjugation matters.
DECOMPOSE_GROUPS = {
    "A3": lambda: build_group(named_coxeter_matrix("A", 3)),
    "B3": lambda: build_group(named_coxeter_matrix("B", 3)),
    "D4": lambda: build_group(named_coxeter_matrix("D", 4)),
    "H3": lambda: build_group(CoxeterMatrix.from_rows([[1, 5, 2], [5, 1, 3], [2, 3, 1]])),
    "I2(5)": lambda: build_group(named_coxeter_matrix("I2", 5)),
    "I2(8)": lambda: build_group(named_coxeter_matrix("I2", 8)),
    "Z/5": lambda: CyclicGroup(5),
}
IRRATIONAL_TABLES = ("H3", "I2(5)", "I2(8)", "Z/5")


@cache
def decompose_table(name):
    return character_table(DECOMPOSE_GROUPS[name]())


class TrivialGroup:
    identity = 0

    def __len__(self):
        return 1

    def mul(self, a, b):
        return 0

    def inv(self, a):
        return 0

    def name(self, a):
        return "e"

    def conjugacy_classes(self):
        class C:
            blocks = [[0]]
            class_of = [0]
            representatives = [0]
            sizes = [1]

            def __len__(self):
                return 1
        return C()


class CyclicGroup:
    """Z/d with the same element-oracle surface as CoxeterGroup: a group
    that is not a Coxeter group, with characters that are not real."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("cyclic group order must be >= 1")
        self.d = d
        self._classes = _CyclicClasses(d)

    def __len__(self) -> int:
        return self.d

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.d

    def inv(self, a: int) -> int:
        return (-a) % self.d

    def name(self, a: int) -> str:
        return f"s^{a}"

    def conjugacy_classes(self) -> "_CyclicClasses":
        return self._classes


class _CyclicClasses:
    def __init__(self, d: int):
        self.blocks = [[a] for a in range(d)]
        self.class_of = list(range(d))
        self.representatives = list(range(d))
        self.sizes = [1] * d

    def __len__(self) -> int:
        return len(self.blocks)


def test_trivial_group():
    table = character_table(TrivialGroup())
    assert len(table.rows) == 1
    assert table.rows[0][0] == 1


def test_dixon_prime_choice():
    assert dixon_prime(6, 6) == 13       # least p = 1 mod 6 above 12
    assert dixon_prime(24, 12) == 61     # least p = 1 mod 12 above 48
    assert dixon_prime(48, 12) == 97


@pytest.mark.parametrize("name", [*sorted(GOLDEN_CHARACTER_SPECS), "Z/5"])
def test_degree_residue_is_the_square_itself(name):
    """character_table reads chi(1) as the integer square root of the
    residue of chi(1)^2 mod p, which needs chi(1)^2 <= |W| and 2|W| < p."""
    if name == "Z/5":
        group = CyclicGroup(5)
    else:
        spec = parse_spec(GOLDEN_CHARACTER_SPECS[name])
        group = build_group(spec.matrix, gen_names=spec.gen_names)
    table = character_table(group)
    order = len(group)
    assert all(row[0].to_fraction() ** 2 <= order for row in table.rows)
    assert 2 * order < dixon_prime(order, table.field.order)


def test_s3_table():
    W = build_group(named_coxeter_matrix("A", 2))
    table = character_table(W)
    assert sorted(table.degrees) == [1, 1, 2]
    # standard S3 table as row multiset over (e, transpositions, 3-cycles)
    rows = {tuple(int(v.to_fraction()) for v in row) for row in table.rows}
    assert rows == {(1, 1, 1), (1, -1, 1), (2, 0, -1)}


def test_b2_dims():
    W = build_group(named_coxeter_matrix("I2", 4))
    table = character_table(W)
    assert sorted(table.degrees) == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                    ("B", 3), ("I2", 5), ("I2", 6), ("I2", 7),
                                    ("I2", 8)])
def test_orthogonality_exact(kind, n):
    W = build_group(named_coxeter_matrix(kind, n))
    table = character_table(W)
    assert verify_orthogonality(table)
    assert all(d > 0 for d in table.degrees)
    assert sum(d * d for d in table.degrees) == len(W)


def test_column_orthogonality():
    W = build_group(named_coxeter_matrix("B", 2))
    table = character_table(W)
    k = len(table.classes.blocks)
    n = len(W)
    for a in range(k):
        for b in range(k):
            acc = table.field.zero()
            for row in table.rows:
                acc = acc + row[a] * row[b].conj()
            expected = n // table.classes.sizes[a] if a == b else 0
            assert acc == expected


def test_inner_products():
    W = build_group(named_coxeter_matrix("A", 2))
    table = character_table(W)
    triv = trivial_character(table)
    assert inner_product(triv, triv, table) == 1
    sign = next(row for row in table.rows
                if row[0] == 1 and any(v == -1 for v in row))
    assert inner_product(triv, sign, table) == 0
    reg = regular_character(table)
    for row in table.rows:
        assert inner_product(reg, row, table) == int(row[0].to_fraction())


def test_decompose_regular_and_trivial():
    W = build_group(named_coxeter_matrix("A", 2))
    table = character_table(W)
    coeffs, ok = decompose(regular_character(table), table)
    assert ok
    assert [int(c.to_fraction()) for c in coeffs] == table.degrees
    coeffs, ok = decompose(trivial_character(table), table)
    assert ok
    assert [int(c.to_fraction()) for c in coeffs] == [1, 0, 0]
    # non-integral class function is flagged, not an error
    half = [table.field.from_fraction(Fraction(1, 2))] * len(table.classes.blocks)
    _, ok = decompose(half, table)
    assert not ok


@pytest.mark.parametrize("n", [2, 3, 4])
def test_type_a_matches_murnaghan_nakayama(n):
    W = build_group(named_coxeter_matrix("A", n - 1))
    table = character_table(W)
    mn = symmetric_group_table(n)
    types = coxeter_class_cycle_types(W)
    got = set()
    for row in table.rows:
        assert all(v.is_rational() for v in row)
        got.add(frozenset((mu, int(v.to_fraction())) for mu, v in zip(types, row)))
    expected = {frozenset(values.items()) for values in mn.values()}
    assert got == expected


def test_cyclic_group_tables():
    for d in (2, 3, 4, 5, 6):
        G = CyclicGroup(d)
        table = character_table(G)
        assert table.degrees == [1] * d
        assert verify_orthogonality(table)
        # the rows are exactly j -> zeta^{ij}
        F = table.field
        expected_rows = {tuple(F.zeta(i * j) for j in range(d)) for i in range(d)}
        assert {tuple(row) for row in table.rows} == expected_rows


def test_i2_5_has_golden_ratio_values():
    W = build_group(named_coxeter_matrix("I2", 5))
    table = character_table(W)
    two_dims = [row for row in table.rows if row[0] == 2]
    assert len(two_dims) == 2
    # the rotation-class values of the 2-dim characters are 2cos(2 pi k/5),
    # irrational conjugates summing to -1
    F = table.field
    rot_class = next(i for i, r in enumerate(table.classes.representatives)
                     if table.class_orders[i] == 5)
    vals = [row[rot_class] for row in two_dims]
    assert not vals[0].is_rational() and not vals[1].is_rational()
    assert vals[0] + vals[1] == F.from_fraction(-1)


def test_json_rendering_is_integral():
    W = build_group(named_coxeter_matrix("B", 2))
    doc = character_table(W).to_json_dict()
    for row in doc["irreducibles"]:
        for coeff_vec in row:
            for c in coeff_vec:
                assert "/" not in c  # algebraic integers: integer coefficients


def test_json_renders_each_coefficient_as_its_fraction():
    """Table values have integer coefficients, so the rendering of a
    denominator is checked on a table of other values: each power-basis
    coefficient reads as str(Fraction), reduced on its own."""
    table = decompose_table("I2(5)")
    field = table.field
    values = [field.from_numerators(num, den) for num, den in [
        ((2, 1, -6, 3), 4), ((0, 3, 0, -9), 6), ((-5, 0, 10, 1), 15)]]
    # The degrees read the identity column, so it stays rational.
    rows = [[field.from_fraction(Fraction(7, 2))] + values[i:] + values[:i]
            for i in range(len(table.rows))]
    altered = CharacterTable(table.group, table.classes, table.field, rows,
                             table.class_orders)
    assert altered.to_json_dict()["irreducibles"] == [
        [[str(c) for c in value.coeffs] for value in row] for row in rows]


def _ok_flag(coeffs):
    return all(c.is_rational() and c.to_fraction().denominator == 1
               and c.to_fraction() >= 0 for c in coeffs)


@st.composite
def rational_class_functions(draw):
    table = decompose_table(draw(st.sampled_from(sorted(DECOMPOSE_GROUPS))))
    k = len(table.classes.blocks)
    value = st.one_of(st.integers(-60, 60),
                      st.fractions(min_value=-20, max_value=20, max_denominator=12))
    return table, from_integers(table, draw(st.lists(value, min_size=k, max_size=k)))


@settings(max_examples=40, deadline=None, database=None)
@given(rational_class_functions())
def test_decompose_matches_inner_products(case):
    table, f = case
    coeffs, ok = decompose(f, table)
    expected = [inner_product(f, row, table) for row in table.rows]
    assert coeffs == expected
    assert ok == _ok_flag(expected)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(sorted(DECOMPOSE_GROUPS)), st.data())
def test_virtual_characters_decompose_to_their_coefficients(name, data):
    table = decompose_table(name)
    k = len(table.rows)
    n = data.draw(st.lists(st.integers(-2, 3), min_size=k, max_size=k))
    f = [sum((row[l] * m for m, row in zip(n, table.rows)), table.field.zero())
         for l in range(len(table.classes.blocks))]
    coeffs, ok = decompose(f, table)
    assert coeffs == [table.field.from_fraction(m) for m in n]
    assert ok == all(m >= 0 for m in n)


def test_integer_multiplicities_of_a2():
    """The regular character of A2 decomposes to the degrees.  One more at
    the identity leaves a remainder, and the trivial character taken from
    the regular one a negative multiplicity: neither decomposes."""
    W = build_group(named_coxeter_matrix("A", 2))
    table = character_table(W)
    regular = [int(v.to_fraction()) for v in regular_character(table)]
    assert integer_multiplicities(regular, table) == table.degrees == [1, 1, 2]
    trivial = [int(v.to_fraction()) for v in trivial_character(table)]
    assert integer_multiplicities([a - b for a, b in zip(regular, trivial)], table) == [0, 1, 2]
    assert integer_multiplicities([b - a for a, b in zip(regular, trivial)], table) is None
    regular[table.classes.class_of[W.identity]] += 1
    assert integer_multiplicities(regular, table) is None


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(sorted(DECOMPOSE_GROUPS)), st.data())
def test_integer_multiplicities_match_decompose(name, data):
    """On integer class functions, integer_multiplicities gives the
    multiplicities of `decompose` as ints when they are all nonnegative
    integers, and None otherwise.  The functions are integer combinations
    of the integer-valued rows, some with a negative coefficient, and half
    of them with one class value moved by one, so that every outcome
    (integers, a negative one, a remainder) occurs on every table."""
    table = decompose_table(name)
    k = len(table.classes.blocks)
    rows = [[int(v.to_fraction()) for v in row] for row in table.rows
            if all(v.is_rational() for v in row)]
    n = data.draw(st.lists(st.integers(-1, 3), min_size=len(rows), max_size=len(rows)))
    values = [sum(m * row[l] for m, row in zip(n, rows)) for l in range(k)]
    if data.draw(st.booleans()):
        values[data.draw(st.integers(0, k - 1))] += 1
    coeffs, ok = decompose([table.field.from_fraction(v) for v in values], table)
    expected = [int(c.to_fraction()) for c in coeffs] if ok else None
    assert integer_multiplicities(values, table) == expected


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GROUPS))
def test_irreducible_rows_decompose_to_unit_vectors(name):
    table = decompose_table(name)
    k = len(table.rows)
    for i, row in enumerate(table.rows):
        coeffs, ok = decompose(row, table)
        assert ok
        assert coeffs == [table.field.from_fraction(int(i == j)) for j in range(k)]
    # Irrational rows go through the inner_product branch.
    irrational = any(not v.is_rational() for row in table.rows for v in row)
    assert irrational == (name in IRRATIONAL_TABLES)


def rational_classes(table):
    """The classes l whose representative g has g^t in class l for every t
    prime to its order, found by multiplying out the powers of g."""
    group, class_of = table.group, table.classes.class_of
    out = []
    for l, (g, m) in enumerate(zip(table.classes.representatives, table.class_orders)):
        powers = [group.identity]
        for _ in range(1, m):
            powers.append(group.mul(powers[-1], g))
        if all(class_of[powers[t]] == l for t in range(1, m) if gcd(t, m) == 1):
            out.append(l)
    return out


def golden_character_table(name):
    spec = parse_spec(GOLDEN_CHARACTER_SPECS[name])
    return character_table(build_group(spec.matrix, gen_names=spec.gen_names))


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GROUPS.keys() | GOLDEN_CHARACTER_SPECS.keys()))
def test_rational_classes_carry_integers_at_most_the_degree(name):
    """character_table reads the value on a class closed under coprime
    powers off its residue mod p; the symmetric lift must give an integer c
    with |c| <= chi(1), negative ones included.  Every class of a Weyl
    group is such a class, and the irrational entries of H3, I2(5), I2(8)
    and Z/5 lie on the other classes."""
    table = (decompose_table(name) if name in DECOMPOSE_GROUPS
             else golden_character_table(name))
    rational = rational_classes(table)
    values = [(row[0].to_fraction(), row[l]) for row in table.rows for l in rational]
    assert all(v.is_rational() and v.den == 1 and abs(v.num[0]) <= degree
               for degree, v in values)
    # Z/5 has no rational class but the identity; the others have negative
    # values there, so the lift's c - p branch runs.
    assert any(v.num[0] < 0 for _, v in values) == (name != "Z/5")
    irrational = {l for row in table.rows for l, v in enumerate(row) if not v.is_rational()}
    assert irrational.isdisjoint(rational)
    assert bool(irrational) == (name in IRRATIONAL_TABLES)
    if name not in IRRATIONAL_TABLES:
        assert len(rational) == len(table.rows)


def test_dual_table_is_built_on_first_decompose():
    table = character_table(build_group(named_coxeter_matrix("A", 2)))
    assert "dual" not in vars(table)
    decompose(trivial_character(table), table)
    scale, dual = vars(table)["dual"]
    assert scale == 6 and len(dual) == len(table.rows)


def test_dual_of_a_rational_table_is_one_pair_per_entry():
    """A rational table's dual keeps the constant coefficient of each nonzero
    entry and drops the other deg - 1, all zero."""
    table = decompose_table("D4")
    _, dual = table.dual
    assert table.field.degree > 1
    assert all(entry == [] or (len(entry) == 1 and entry[0][0] == 0)
               for drow in dual for entry in drow)
    assert any(entry == [] for drow in dual for entry in drow)
    _, dual = decompose_table("H3").dual
    assert any(len(entry) > 1 for drow in dual for entry in drow)


def test_altered_tables():
    """On tables that are not character tables, decompose still agrees with
    inner_product and verify_orthogonality says no."""
    table = character_table(build_group(named_coxeter_matrix("A", 2)))
    triv, sign, std = table.rows
    # A repeated row keeps every norm and the degree sum, but not
    # orthogonality; a row with value 1/2 needs a denominator in the dual.
    half = [v * Fraction(1, 2) for v in sign]
    f = from_integers(table, [3, -1, Fraction(2, 3)])
    for rows in ([triv, triv, std], [triv, std, half]):
        altered = CharacterTable(table.group, table.classes, table.field, rows,
                                 table.class_orders)
        assert not verify_orthogonality(altered)
        coeffs, _ = decompose(f, altered)
        assert coeffs == [inner_product(f, row, altered) for row in rows]


# Primes above 12, the largest d drawn, as Faddeev-LeVerrier needs p > d;
# 61 and 97 are Dixon primes of small Weyl groups.
CHARPOLY_PRIMES = (13, 17, 61, 97, 10007)


@st.composite
def matrices_mod_p(draw):
    p = draw(st.sampled_from(CHARPOLY_PRIMES))
    d = draw(st.integers(0, 12))
    # Sparse entries too, so that the Hessenberg pivot search meets zeros.
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                         min_size=d, max_size=d))
    return rows, p


@settings(max_examples=200, deadline=None, database=None)
@given(matrices_mod_p())
def test_charpoly_matches_faddeev_leverrier(case):
    a, p = case
    assert _charpoly_mod(a, p) == charpoly_faddeev_leverrier(a, p)


def _poly_mul_mod(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


@st.composite
def split_polynomials_mod_p(draw):
    """Products of (x - r) over drawn roots, some repeated, times an
    irreducible quadratic x^2 + bx + c (b^2 - 4c a non-square) or not."""
    p = draw(st.sampled_from((13, 61, 7681)))
    roots = draw(st.lists(st.integers(0, p - 1), max_size=6))
    roots += draw(st.lists(st.sampled_from(roots), max_size=4)) if roots else []
    coeffs = [1]
    for r in roots:
        coeffs = _poly_mul_mod(coeffs, [1, -r % p], p)
    if draw(st.booleans()):
        b = draw(st.integers(0, p - 1))
        disc = draw(st.integers(1, p - 1).filter(
            lambda n: pow(n, (p - 1) // 2, p) == p - 1))
        c = (b * b - disc) * pow(4, -1, p) % p
        coeffs = _poly_mul_mod(coeffs, [1, b, c], p)
    return coeffs, p


@settings(max_examples=100, deadline=None, database=None)
@given(split_polynomials_mod_p())
@example(([1], 13))
@example(([1, 0, 0, 0], 13))      # x^3
@example(([1, 7, 12, 5], 13))     # (x-2)^3
@example(([1, 0, 11], 13))        # x^2 - 2, irreducible
def test_poly_roots_match_brute_force(case):
    coeffs, p = case
    assert _poly_roots_mod(coeffs, p) == poly_roots_brute_force(coeffs, p)


def test_root_scan_stops_at_the_last_root(monkeypatch):
    """Roots r with |r| <= 3, repeated, are all found among the first
    2 * 3 + 1 values of the scan, which then stops: the loop draws at most
    one more value before it sees the constant quotient."""
    scan = characters._scan_order
    seen = []

    def recorded(p):
        for x in scan(p):
            seen.append(x)
            yield x

    monkeypatch.setattr(characters, "_scan_order", recorded)
    p = 7681
    coeffs = [1]
    for r in (3, -3, 0, 2, 2, -1, -1, -1):
        coeffs = _poly_mul_mod(coeffs, [1, -r % p], p)
    assert _poly_roots_mod(coeffs, p) == [0, 2, 3, p - 3, p - 1]
    assert seen[:7] == [0, 1, p - 1, 2, p - 2, 3, p - 3] and len(seen) <= 8


def _jordan_block(d, lam):
    return [[lam if i == j else int(j == i + 1) for j in range(d)] for i in range(d)]


def _block_triangular(top, bottom, corner):
    """[[top, corner], [0, bottom]]: below the first block, its columns are
    zero, so the pivot search there finds nothing to eliminate."""
    m, n = len(top), len(bottom)
    return ([top[i] + corner[i] for i in range(m)]
            + [[0] * m + bottom[i] for i in range(n)])


STRUCTURED_MATRICES = {
    "empty": [],
    "zero_1": [[0]],
    "zero_6": [[0] * 6 for _ in range(6)],
    "identity_7": [[int(i == j) for j in range(7)] for i in range(7)],
    "nilpotent_jordan_8": _jordan_block(8, 0),
    "jordan_5_eigenvalue_3": _jordan_block(5, 3),
    "transposed_jordan_6": [list(col) for col in zip(*_jordan_block(6, 0))],
    "block_triangular": _block_triangular(
        [[1, 2, 0], [3, 4, 5], [0, 6, 7]], [[2, 1, 1], [0, 3, 1], [5, 0, 4]],
        [[1, 0, 2], [0, 1, 0], [4, 4, 4]]),
    "block_triangular_zero_corner": _block_triangular(
        [[0, 1], [1, 0]], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
        [[0] * 4, [0] * 4]),
    "zero_first_column": [[0, 1, 2, 3], [0, 4, 5, 6], [0, 7, 8, 9], [0, 1, 1, 1]],
    "upper_hessenberg": [[1, 2, 3, 4, 5], [6, 7, 8, 9, 1], [0, 2, 3, 4, 5],
                         [0, 0, 6, 7, 8], [0, 0, 0, 9, 1]],
    "hessenberg_zero_subdiagonal": [[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 9, 1],
                                    [0, 0, 2, 3]],
    "upper_triangular": [[i + j if j >= i else 0 for j in range(6)] for i in range(6)],
    "pivot_below_subdiagonal": [[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 1, 2], [0, 3, 4, 5]],
}


@pytest.mark.parametrize("p", CHARPOLY_PRIMES)
@pytest.mark.parametrize("name", sorted(STRUCTURED_MATRICES))
def test_charpoly_on_structured_matrices(name, p):
    a = STRUCTURED_MATRICES[name]
    assert _charpoly_mod(a, p) == charpoly_faddeev_leverrier(a, p)


def test_charpoly_of_known_matrices():
    assert _charpoly_mod([], 13) == [1]
    assert _charpoly_mod(_jordan_block(8, 0), 13) == [1] + [0] * 8      # x^8
    assert _charpoly_mod(_jordan_block(3, 2), 13) == [1, 7, 12, 5]      # (x-2)^3
    assert _charpoly_mod([[int(i == j) for j in range(4)] for i in range(4)],
                         13) == [1, 9, 6, 9, 1]                           # (x-1)^4
