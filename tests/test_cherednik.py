import random
import sys
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cherednik_reference as reference
from api_helpers import cell_of_exponent, epsilon_idempotent, from_coeffs
from klcells.cherednik_rank1 import (AlgebraElt, NonzeroConstantTerm,
                                     Rank1Params, c_to_kappa,
                                     cm_multiplicities, cm_report, commutator,
                                     euler_element,
                                     inertia_and_cells, is_central, kappa_to_c,
                                     verify_presentation)
from klcells.cyclotomic import CyclotomicField


def rational_params(d, values):
    return Rank1Params.from_c(d, [Fraction(v) for v in values])


def random_c(rng, d):
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d - 1)]


GENERATORS = {"x": AlgebraElt.x, "xi": AlgebraElt.xi, "s": AlgebraElt.s}


def factors(params, word):
    """The element of each token of a word: 'x', 'xi', 's' or a scalar."""
    return [GENERATORS[t](params) if isinstance(t, str) else AlgebraElt.scalar(params, t)
            for t in word]


def word_product(params, word, right=False):
    """The product of a word, associated from the left ((ab)c)..., or from
    the right ...a(b(c)) when `right`."""
    if right:
        return reduce(lambda acc, f: f * acc, reversed(factors(params, word)),
                      AlgebraElt.one(params))
    return reduce(lambda acc, f: acc * f, factors(params, word), AlgebraElt.one(params))


# -- parameter change ---------------------------------------------------------


def test_zero_c_gives_zero_kappa():
    P = rational_params(3, [0, 0])
    assert all(k.is_zero() for k in P.kappa)


def test_d2_kappa_closed_form():
    P = rational_params(2, [1])
    F = P.field
    assert P.kappa == (F.from_fraction(Fraction(-1, 2)), F.from_fraction(Fraction(1, 2)))
    back = kappa_to_c(2, P.kappa)
    assert back == (F.from_fraction(1),)


def test_c_kappa_roundtrips():
    rng = random.Random(40)
    for d in (2, 3, 4, 5):
        F = CyclotomicField.get(d)
        for _ in range(6):
            c = [F.from_fraction(x) for x in random_c(rng, d)]
            kappa = c_to_kappa(d, c)
            total = F.zero()
            for k in kappa:
                total = total + k
            assert total.is_zero()
            assert kappa_to_c(d, kappa) == tuple(c)
        for _ in range(6):
            vals = [Fraction(rng.randint(-4, 4)) for _ in range(d - 1)]
            kappa = [F.from_fraction(v) for v in vals]
            kappa.append(-F.from_fraction(sum(vals)))
            assert c_to_kappa(d, kappa_to_c(d, kappa)) == tuple(kappa)


def test_wrong_length_raises_before_the_field_is_built():
    # Q(zeta_d) for d = 10^6 has degree 400000; the length check comes first.
    with pytest.raises(ValueError, match="999999 entries"):
        Rank1Params.from_c(10**6, [1])
    with pytest.raises(ValueError, match="1000000 entries"):
        Rank1Params.from_kappa(10**6, [1, -1])


def test_kappa_sum_violation_raises():
    F = CyclotomicField.get(3)
    with pytest.raises(NonzeroConstantTerm):
        kappa_to_c(3, [F.one(), F.one(), F.one()])


# -- the algebra --------------------------------------------------------------


def test_defining_relations_in_normal_form():
    P = rational_params(3, [1, -2])
    F = P.field
    x, xi, s = AlgebraElt.x(P), AlgebraElt.xi(P), AlgebraElt.s(P)
    assert (s * x - x * s * AlgebraElt.scalar(P, F.zeta(-1))).is_zero()
    assert (s * xi - xi * s * AlgebraElt.scalar(P, F.zeta(1))).is_zero()
    z = commutator(xi, x)
    expected = (AlgebraElt.monomial(P, 0, 0, 1, F.from_fraction(1))
                + AlgebraElt.monomial(P, 0, 0, 2, F.from_fraction(-2)))
    assert (z - expected).is_zero()
    sd = AlgebraElt.one(P)
    for _ in range(3):
        sd = sd * s
    assert (sd - AlgebraElt.one(P)).is_zero()


def test_normal_form_of_words():
    P = rational_params(3, [1, -2])
    F = P.field
    # s x -> zeta^-1 x s
    got = word_product(P, ["s", "x"])
    assert (got - AlgebraElt.monomial(P, 1, 0, 1, F.zeta(-1))).is_zero()
    # xi x -> x xi + sum c_i s^i
    got = word_product(P, ["xi", "x"])
    expected = (AlgebraElt.monomial(P, 1, 1, 0)
                + AlgebraElt.monomial(P, 0, 0, 1, F.one())
                + AlgebraElt.monomial(P, 0, 0, 2, F.from_fraction(-2)))
    assert (got - expected).is_zero()
    # s^d -> 1, scalars fold in
    assert (word_product(P, ["s"] * 3) - AlgebraElt.one(P)).is_zero()
    assert (word_product(P, [Fraction(2), "x", Fraction(1, 2)])
            - AlgebraElt.x(P)).is_zero()


def test_normal_form_is_confluent_on_associativity():
    # multiplying in different associations must agree
    rng = random.Random(9)
    P = rational_params(3, [Fraction(1, 2), Fraction(-1, 3)])

    def random_elt():
        out = AlgebraElt.zero(P)
        for _ in range(rng.randint(1, 3)):
            mono = AlgebraElt.monomial(P, rng.randint(0, 2), rng.randint(0, 2),
                                       rng.randint(0, 2),
                                       P.field.from_fraction(rng.randint(-3, 3)))
            out = out + mono
        return out

    for _ in range(10):
        a, b, c = random_elt(), random_elt(), random_elt()
        assert ((a * b) * c - a * (b * c)).is_zero()


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def parameter_points(draw):
    d = draw(st.integers(2, 8))
    c = draw(st.lists(st.one_of(st.just(0), RATIONALS), min_size=d - 1, max_size=d - 1))
    return Rank1Params.from_c(d, c)


@st.composite
def elements(draw, params):
    """Up to four terms x^a xi^b s^i with a, b <= 4 and coefficients in
    Q(zeta_d)."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = (draw(st.integers(0, 4)), draw(st.integers(0, 4)),
                draw(st.integers(0, params.d - 1)))
        terms[mono] = from_coeffs(params.field,
                                  draw(st.lists(RATIONALS, min_size=1, max_size=3)))
    return AlgebraElt(params, terms)


@st.composite
def words(draw):
    """Words with at most four x and four xi, plus s and scalars."""
    tokens = (["x"] * draw(st.integers(0, 4)) + ["xi"] * draw(st.integers(0, 4))
              + ["s"] * draw(st.integers(0, 3))
              + draw(st.lists(RATIONALS.filter(bool), max_size=2)))
    return draw(st.permutations(tokens))


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_products_agree_with_recursive_reference(data):
    params = data.draw(parameter_points())
    a, b = data.draw(elements(params)), data.draw(elements(params))
    assert (a * b).terms == reference.product(params, a.terms, b.terms)
    word = data.draw(words())
    expected = reference.normal_form(params, word)
    assert word_product(params, word).terms == expected
    assert word_product(params, word, right=True).terms == expected


def test_epsilon_idempotents():
    for d in (2, 3, 4):
        P = rational_params(d, range(1, d))
        total = AlgebraElt.zero(P)
        for i in range(d):
            ei = epsilon_idempotent(P, i)
            total = total + ei
            for j in range(d):
                ej = epsilon_idempotent(P, j)
                expected = ei if i == j else AlgebraElt.zero(P)
                assert (ei * ej - expected).is_zero()
        assert (total - AlgebraElt.one(P)).is_zero()


def test_euler_element_examples():
    # c = 0: eu = xi x = x xi in normal form
    P0 = rational_params(3, [0, 0])
    assert (euler_element(P0) - AlgebraElt.monomial(P0, 1, 1, 0)).is_zero()
    # d = 2, c = 1: eu = xi x - (1/2) s = x xi + (1/2) s in normal form
    P = rational_params(2, [1])
    F = P.field
    expected = (AlgebraElt.monomial(P, 1, 1, 0)
                + AlgebraElt.monomial(P, 0, 0, 1, F.from_fraction(Fraction(1, 2))))
    assert (euler_element(P) - expected).is_zero()


def test_centrality():
    rng = random.Random(77)
    for d in (2, 3, 4, 5):
        P = rational_params(d, random_c(rng, d))
        assert is_central(euler_element(P), P)
        assert is_central(AlgebraElt.monomial(P, d, 0, 0), P)  # x^d
        assert is_central(AlgebraElt.monomial(P, 0, d, 0), P)  # xi^d
        if any(not c.is_zero() for c in P.c):
            assert not is_central(AlgebraElt.s(P), P)
        assert not is_central(AlgebraElt.x(P), P)


def test_presentation_holds():
    rng = random.Random(123)
    for d in (2, 3, 4):
        for _ in range(4):
            P = rational_params(d, random_c(rng, d))
            assert verify_presentation(P) is None


def test_presentation_counterexample_on_bad_kappa():
    # Deliberately break the kappa normalization: shift every kappa by 1.
    P = rational_params(3, [1, 2])
    F = P.field
    shifted = tuple(k + F.one() for k in P.kappa)
    broken = Rank1Params(3, P.c, shifted)
    residual = verify_presentation(broken)
    assert residual is not None and not residual.is_zero()


# -- cells, multiplicities, families -------------------------------------------


def test_undeformed_point_single_cell():
    for d in (2, 3, 5):
        P = rational_params(d, [0] * (d - 1))
        data = inertia_and_cells(P)
        assert data.cells == [list(range(d))]
        assert len(data.fiber) == 1
        # inertia is all of S_d: generated by d-1 adjacent transpositions
        assert len(data.inertia_gens) == d - 1


def test_d2_generic_point():
    data = inertia_and_cells(rational_params(2, [1]))
    assert data.cells == [[0], [1]]
    assert len(data.fiber) == 2
    mult = cm_multiplicities(data)
    cell_of_e = cell_of_exponent(data, 0)
    cell_of_s = cell_of_exponent(data, 1)
    assert mult[(cell_of_e, 0)] == 1 and mult[(cell_of_e, 1)] == 0
    assert mult[(cell_of_s, 1)] == 1 and mult[(cell_of_s, 0)] == 0


def test_d3_two_equal_kappas():
    # kappa = (a, a, -2a): cells {s^1, s^2} and {s^0}, families likewise.
    P = Rank1Params.from_kappa(3, [1, 1, -2])
    data = inertia_and_cells(P)
    assert sorted(map(sorted, data.cells)) == [[0], [1, 2]]
    assert sorted(map(sorted, data.families)) == [[0], [1, 2]]
    assert len(data.fiber) == 2


def test_cell_count_equals_fiber_size_random():
    rng = random.Random(31)
    for d in (2, 3, 4, 5, 6):
        for _ in range(8):
            P = rational_params(d, random_c(rng, d))
            data = inertia_and_cells(P)
            assert len(data.cells) == len(data.fiber)
            assert sorted(j for b in data.cells for j in b) == list(range(d))


def test_multiplicity_total_is_one():
    rng = random.Random(53)
    for d in (2, 3, 4, 5):
        for _ in range(6):
            P = rational_params(d, random_c(rng, d))
            data = inertia_and_cells(P)
            mult = cm_multiplicities(data)
            for j in range(d):
                assert sum(mult[(idx, j)] for idx in range(len(data.cells))) == 1


def test_families_match_cells_under_det_pairing():
    rng = random.Random(61)
    for d in (3, 4, 5):
        P = rational_params(d, random_c(rng, d))
        data = inertia_and_cells(P)
        assert data.families == [list(b) for b in data.cells]


def test_all_kappa_distinct_gives_singletons():
    P = Rank1Params.from_kappa(4, [3, 1, -1, -3])
    data = inertia_and_cells(P)
    assert data.cells == [[0], [1], [2], [3]]
    assert len(data.fiber) == 4
    assert data.inertia_gens == []


def _orbits(d, transpositions):
    """Orbits of {1..d} under the transpositions, by union-find."""
    parent = list(range(d + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in transpositions:
        parent[find(i)] = find(j)
    orbits = {}
    for i in range(1, d + 1):
        orbits.setdefault(find(i), []).append(i)
    return list(orbits.values())


def test_cells_are_the_orbits_of_the_inertia_generators():
    """The cells are the kappa-equality blocks, which are the orbits of the
    inertia generators: checked here on c points and on kappa points with
    repeated values, d = 2..8."""
    rng = random.Random(89)
    points = []
    for d in range(2, 9):
        for _ in range(4):
            points.append(rational_params(d, random_c(rng, d)))
            values = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            mean = sum(values) / d  # shifting keeps which kappas are equal
            points.append(Rank1Params.from_kappa(d, [v - mean for v in values]))
    points.append(Rank1Params.from_kappa(6, [1, 1, -1, -1, 0, 0]))
    for P in points:
        data = inertia_and_cells(P)
        orbits = sorted((sorted(i % P.d for i in o) for o in _orbits(P.d, data.inertia_gens)),
                        key=lambda b: b[0])
        assert data.cells == orbits, P.kappa
        assert data.families == data.cells


def test_report_shape():
    doc = cm_report(inertia_and_cells(rational_params(2, [1])))
    assert doc["d"] == 2
    assert doc["cells"] == [["s^0"], ["s^1"]]
    assert doc["families"] == [["det^0"], ["det^1"]]
    assert doc["fiber_size"] == 2
    assert doc["multiplicities"]["cell_0"] == {"det^0": 1, "det^1": 0}


def test_no_module_state_grows_across_parameter_points():
    """Products at one parameter point leave nothing behind in a module."""
    modules = [m for name, m in sys.modules.items() if name.startswith("klcells")]

    def sizes():
        return {(m.__name__, name): len(v) for m in modules
                for name, v in vars(m).items() if isinstance(v, (dict, list, set))}

    verify_presentation(Rank1Params.from_c(4, [1, 2, 3]))
    before = sizes()
    for k in range(1, 6):
        params = Rank1Params.from_c(4, [Fraction(k, 7), 2, Fraction(-1, k)])
        assert verify_presentation(params) is None
    assert sizes() == before
