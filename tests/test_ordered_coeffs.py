import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from api_helpers import (laurent_coefficient, laurent_from_terms, laurent_integer,
                         laurent_one, laurent_terms, laurent_zero, support_size)
from laurent_ring import sub
from klcells.cherednik_rank1 import Rank1Params
from klcells.coxeter import CoxeterMatrix, WeightFunction
from klcells.ordered_coeffs import (LEX, LEX_BOUND, RATIONAL, LaurentElt,
                                    ModeMismatchError, OrderedExponent, _key_text,
                                    _text_key)
from klcells.specfile import parse_spec


def v(x, coeff=1):
    return LaurentElt.v_power(OrderedExponent.rational(x), coeff)


def plus(a, b):
    """The exponent with the summed coordinates of a and b."""
    return OrderedExponent(a.mode, [x + y for x, y in zip(a.value, b.value)])


def test_add_disjoint_supports():
    out = v(1) + v(-1)
    assert laurent_coefficient(out, OrderedExponent.rational(1)) == 1
    assert laurent_coefficient(out, OrderedExponent.rational(-1)) == 1
    assert support_size(out) == 2


def test_add_cancellation():
    assert not v(1) + v(1, -1)


def test_add_rational_merge():
    a = v(Fraction(1, 2)) + laurent_one()
    b = sub(v(Fraction(1, 2)), laurent_one())
    assert a + b == v(Fraction(1, 2), 2)


def test_mul_monomials():
    assert v(Fraction(1, 3)) * v(Fraction(2, 3)) == v(1)


def test_mul_difference_of_squares():
    assert (v(1) + v(-1)) * sub(v(1), v(-1)) == sub(v(2), v(-2))


def test_mul_unit():
    a = v(-5) + v(5)
    assert a * laurent_one() == a


def test_bar_examples():
    assert v(2).bar() == v(-2)
    assert v(0).bar() == v(0)


def test_split_by_sign():
    a = v(1) + laurent_integer(3) + v(-1, 2)
    neg, const, pos = a.split_by_sign()
    assert neg == v(-1, 2) and const == 3 and pos == v(1)
    assert neg + laurent_integer(const) + pos == a
    zneg, zconst, zpos = laurent_zero().split_by_sign()
    assert not zneg and zconst == 0 and not zpos
    only_neg, c0, p0 = v(Fraction(-1, 3)).split_by_sign()
    assert only_neg == v(Fraction(-1, 3)) and c0 == 0 and not p0


def test_evaluate_at_one():
    assert (v(-7) + v(7)).evaluate_at_one() == 2
    assert laurent_zero().evaluate_at_one() == 0
    assert sub(v(1), v(-1)).evaluate_at_one() == 0


def _random_elt(rng, mode=RATIONAL, arity=None):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        if mode == RATIONAL:
            exp = OrderedExponent.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        else:
            exp = OrderedExponent.lex([rng.randint(-3, 3) for _ in range(arity)])
        terms[exp] = terms.get(exp, 0) + rng.randint(-4, 4)
    return laurent_from_terms(terms.items(), mode, arity)


@pytest.mark.parametrize("mode,arity", [(RATIONAL, None), (LEX, 2)])
def test_ring_axioms_random(mode, arity):
    rng = random.Random(20240811)
    for _ in range(40):
        a = _random_elt(rng, mode, arity)
        b = _random_elt(rng, mode, arity)
        c = _random_elt(rng, mode, arity)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_bar_is_ring_involution():
    rng = random.Random(7)
    for _ in range(30):
        a = _random_elt(rng)
        b = _random_elt(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_evaluate_at_one_is_ring_hom():
    rng = random.Random(13)
    for _ in range(30):
        a = _random_elt(rng)
        b = _random_elt(rng)
        assert (a * b).evaluate_at_one() == a.evaluate_at_one() * b.evaluate_at_one()
        assert (a + b).evaluate_at_one() == a.evaluate_at_one() + b.evaluate_at_one()


def test_split_parts_have_asserted_signs():
    rng = random.Random(99)
    for _ in range(30):
        a = _random_elt(rng)
        neg, const, pos = a.split_by_sign()
        assert all(e.sign() < 0 for e, _ in laurent_terms(neg))
        assert all(e.sign() > 0 for e, _ in laurent_terms(pos))
        assert neg + laurent_integer(const) + pos == a


def test_lex_order_is_lexicographic():
    grid = (LEX, 2, 1)
    a = OrderedExponent.lex([1, 0])
    b = OrderedExponent.lex([0, 5])
    assert b.value < a.value and b.encode(grid) < a.encode(grid)
    assert (-a).encode(grid) < (-b).encode(grid)


def test_order_compatible_with_addition():
    rng = random.Random(5)
    for _ in range(50):
        a = OrderedExponent.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        b = OrderedExponent.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        c = OrderedExponent.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        if a.value < b.value:
            assert plus(a, c).value < plus(b, c).value
            assert (-b).value < (-a).value


def test_mode_mismatch_raises():
    with pytest.raises(ModeMismatchError):
        v(1) + LaurentElt.v_power(OrderedExponent.lex([1]))
    with pytest.raises(ModeMismatchError):
        LaurentElt.v_power(OrderedExponent.lex([1])) * LaurentElt.v_power(OrderedExponent.lex([1, 0]))


def test_render_parse_roundtrip():
    rng = random.Random(42)
    for _ in range(30):
        a = _random_elt(rng)
        assert LaurentElt.parse(a.render()) == a
    for _ in range(30):
        a = _random_elt(rng, LEX, 3)
        assert LaurentElt.parse(a.render(), LEX, 3) == a
    assert not LaurentElt.parse("0")
    assert LaurentElt.parse("-2*v^(-1/2) + 1*v^(3)") == \
        v(Fraction(-1, 2), -2) + v(3)


# -- the int codec: additive, order preserving, exact round trip --------

codec_settings = settings(max_examples=200, deadline=None, database=None)


@st.composite
def rational_pairs(draw):
    scale = draw(st.integers(1, 720))
    a, b = (Fraction(draw(st.integers(-10**6, 10**6)), scale) for _ in range(2))
    return (RATIONAL, None, scale), OrderedExponent.rational(a), OrderedExponent.rational(b)


@st.composite
def lex_pairs(draw, bound=LEX_BOUND // 2):
    arity = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-bound, bound), min_size=arity, max_size=arity)
    return (LEX, arity, 1), OrderedExponent.lex(draw(vec)), OrderedExponent.lex(draw(vec))


@codec_settings
@given(st.one_of(rational_pairs(), lex_pairs()))
def test_codec_is_additive_order_preserving_and_exact(case):
    grid, a, b = case
    ka, kb = a.encode(grid), b.encode(grid)
    assert plus(a, b).encode(grid) == ka + kb
    assert (-a).encode(grid) == -ka
    assert (a.value < b.value) == (ka < kb)
    assert a.sign() == (ka > 0) - (ka < 0)
    assert OrderedExponent.decode(ka, grid) == a
    assert OrderedExponent.decode(ka + kb, grid) == plus(a, b)
    assert _text_key(a.render(), grid) == ka
    assert _key_text(ka, grid) == a.render()


@codec_settings
@given(st.one_of(rational_pairs(), lex_pairs()))
def test_ring_agrees_with_exponent_arithmetic(case):
    _, a, b = case
    prod = LaurentElt.v_power(a, 2) * LaurentElt.v_power(b, 3)
    assert list(laurent_terms(prod)) == [(plus(a, b), 6)]
    assert prod == LaurentElt.v_power(plus(a, b), 6)
    assert LaurentElt.parse(prod.render(), a.mode, a.arity) == prod


@st.composite
def lex_overflow_pairs(draw):
    """Two in-bound lex vectors whose sum leaves the bound in one coordinate."""
    grid, a, b = draw(lex_pairs(bound=LEX_BOUND))
    a, b = list(a.value), list(b.value)
    i = draw(st.integers(0, grid[1] - 1))
    sign = draw(st.sampled_from([1, -1]))
    x = draw(st.integers(1, LEX_BOUND))
    a[i], b[i] = sign * x, sign * draw(st.integers(LEX_BOUND - x + 1, LEX_BOUND))
    return grid, OrderedExponent.lex(a), OrderedExponent.lex(b)


@codec_settings
@given(lex_overflow_pairs())
def test_lex_past_the_bound_raises_instead_of_wrapping(case):
    grid, a, b = case
    with pytest.raises(ValueError):
        plus(a, b).encode(grid)
    prod = LaurentElt.v_power(a) * LaurentElt.v_power(b)
    with pytest.raises(ValueError):
        list(laurent_terms(prod))
    with pytest.raises(ValueError):
        prod.render()


def test_off_grid_exponents_are_rejected():
    with pytest.raises(ValueError):
        OrderedExponent.rational(Fraction(1, 3)).encode((RATIONAL, None, 2))
    with pytest.raises(ValueError):
        LaurentElt.parse("1*v^(1/3)", grid=(RATIONAL, None, 1))
    with pytest.raises(ValueError):
        LaurentElt.parse("1*v^(1,0,0)", grid=(LEX, 2, 1))
    assert laurent_coefficient(v(Fraction(1, 3)), OrderedExponent.rational(Fraction(1, 2))) == 0


# Per immutable value type: a constructor call, one that gives a different
# value, a field to assign, and constructor calls that its checks reject.
VALUE_TYPES = {
    "OrderedExponent": (lambda: OrderedExponent(LEX, [1, 0]),
                        lambda: OrderedExponent(LEX, [0, 1]), "value",
                        [lambda: OrderedExponent(LEX, ()),
                         lambda: OrderedExponent(RATIONAL, (1, 2)),
                         lambda: OrderedExponent("real", (1,))]),
    "CoxeterMatrix": (lambda: CoxeterMatrix(((1, 3), (3, 1))),
                      lambda: CoxeterMatrix(((1, 4), (4, 1))), "entries",
                      [lambda: CoxeterMatrix(((1, 3),)),
                       lambda: CoxeterMatrix(((1, 3), (4, 1)))]),
    "WeightFunction": (lambda: WeightFunction.rational([1, 2]),
                       lambda: WeightFunction.rational([2, 1]), "exps",
                       [lambda: WeightFunction(()),
                        lambda: WeightFunction((OrderedExponent.rational(1),
                                                OrderedExponent.lex([1])))]),
    "ParsedSpec": (lambda: parse_spec("group B 2\nL s = 1\nL t = 2\n"),
                   lambda: parse_spec("group B 2\nL s = 1\nL t = 1\n"), "weights", []),
    "Rank1Params": (lambda: Rank1Params.from_c(3, [1, 2]),
                    lambda: Rank1Params.from_c(3, [1, 1]), "c", []),
}


@pytest.mark.parametrize("make, make_other, field, bad", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_types_compare_by_fields_and_are_immutable(make, make_other, field, bad):
    a, b, other = make(), make(), make_other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    assert a == b
    for call in bad:
        with pytest.raises(ValueError):
            call()
