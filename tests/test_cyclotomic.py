import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from api_helpers import from_coeffs
from cyclotomic_reference import CyclotomicField as ReferenceField
from cyclotomic_reference import cyclotomic_polynomial as reference_polynomial
from klcells.cyclotomic import CyclotomicField, cyclotomic_polynomial


def test_small_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_divisor_recursion():
    """The prime-by-prime construction equals x^n - 1 divided by every
    Phi_d, d a proper divisor of n."""
    for n in range(1, 1001):
        assert cyclotomic_polynomial(n) == reference_polynomial(n), n


def test_zeta_power_relations():
    for n in (1, 2, 3, 4, 5, 8, 12):
        F = CyclotomicField.get(n)
        z = F.zeta(1)
        acc = F.one()
        for _ in range(n):
            acc = acc * z
        assert acc == F.one()
        if n > 1:
            total = F.zero()
            for k in range(n):
                total = total + F.zeta(k)
            assert total.is_zero()  # sum of all n-th roots of unity


def test_sqrt2_and_sqrt3():
    F8 = CyclotomicField.get(8)
    r2 = F8.zeta(1) + F8.zeta(-1)
    assert r2 * r2 == F8.from_fraction(2)
    F12 = CyclotomicField.get(12)
    r3 = F12.zeta(1) + F12.zeta(-1)
    assert r3 * r3 == F12.from_fraction(3)


def _random_elt(F, rng):
    return from_coeffs(F, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(F.degree)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 12])
def test_field_axioms_random(n):
    F = CyclotomicField.get(n)
    rng = random.Random(100 + n)
    for _ in range(20):
        a = _random_elt(F, rng)
        b = _random_elt(F, rng)
        c = _random_elt(F, rng)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == F.one()
            assert (b / a) * a == b


def test_conjugation_is_automorphism():
    F = CyclotomicField.get(5)
    rng = random.Random(17)
    for _ in range(20):
        a = _random_elt(F, rng)
        b = _random_elt(F, rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj().conj() == a
    z = F.zeta(1)
    assert z.conj() == F.zeta(4)
    # z * conj(z) = 1 for a root of unity
    assert z * z.conj() == F.one()


def test_rationality_detection():
    F = CyclotomicField.get(7)
    assert F.from_fraction(Fraction(3, 2)).is_rational()
    assert F.from_fraction(Fraction(3, 2)).to_fraction() == Fraction(3, 2)
    assert not F.zeta(1).is_rational()
    with pytest.raises(ValueError):
        F.zeta(1).to_fraction()
    # norm-like rational combination: z + z^2 + z^4 + conj of that sums to -1
    total = F.zero()
    for k in range(1, 7):
        total = total + F.zeta(k)
    assert total.is_rational() and total.to_fraction() == -1


def test_degree_one_fields_behave_like_q():
    for n in (1, 2):
        F = CyclotomicField.get(n)
        assert F.degree == 1
        a = F.from_fraction(Fraction(-7, 3))
        assert a.is_rational()
        assert (a * a.inverse()) == F.one()
    assert CyclotomicField.get(2).zeta(1) == CyclotomicField.get(2).from_fraction(-1)


def test_hash_agrees_with_equality():
    F = CyclotomicField.get(5)
    two, half = F.from_fraction(2), F.from_fraction(Fraction(1, 2))
    assert two == 2 and 2 in {two} and two in {2}
    assert half == Fraction(1, 2) and Fraction(1, 2) in {half} and half in {Fraction(1, 2)}
    assert hash(two) == hash(2) and hash(half) == hash(Fraction(1, 2))
    z = F.zeta(1)
    assert len({z, F.zeta(6), F.zeta(1) * F.one(), z + F.zero()}) == 1
    assert z not in {F.zeta(2), two}
    # Same value and order, built different ways: equal and same hash.
    a = (z + F.from_fraction(Fraction(1, 3))) * 6
    b = from_coeffs(F, [2, 6]) + F.zeta(2) - F.zeta(2)
    assert a == b and hash(a) == hash(b)


def test_hash_does_not_depend_on_the_hash_seed():
    code = ("from fractions import Fraction; "
            "from klcells.cyclotomic import CyclotomicField as C; F = C.get(7); "
            "print(hash(F.zeta(3) / 5), hash(F.from_fraction(Fraction(-4, 9))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = set()
    for seed in ("0", "12345"):
        env["PYTHONHASHSEED"] = seed
        out.add(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                               capture_output=True, text=True).stdout)
    assert len(out) == 1


# -- differential tests against the Fraction-tuple reference ------------------

ORDERS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 120)
RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def element_pairs(draw):
    """Coefficient lists for one order; some sparse, some longer than the
    degree (so they reduce modulo Phi_N), some rational or zero."""
    n = draw(st.sampled_from(ORDERS))
    deg = ReferenceField.get(n).degree
    coeff = st.one_of(st.just(Fraction(0)), RATIONALS)

    def coeff_list():
        return st.one_of(st.lists(coeff, max_size=min(2 * deg + 2, n + 3)),
                         st.lists(RATIONALS, max_size=1))

    return n, draw(coeff_list()), draw(coeff_list())


def assert_same(new, ref):
    assert new.coeffs == ref.coeffs
    assert new.render() == ref.render()
    assert new.sort_key() == ref.sort_key()
    assert new.is_zero() == ref.is_zero() and new.is_rational() == ref.is_rational()
    # Normal form: int numerators over den >= 1 in lowest terms, zero over 1.
    assert len(new.num) == new.field.degree
    assert all(type(a) is int for a in new.num) and type(new.den) is int
    assert new.den >= 1 and gcd(new.den, *new.num) == 1


@settings(max_examples=120, deadline=None, database=None)
@given(element_pairs(), RATIONALS, st.integers(-250, 250))
def test_agrees_with_fraction_reference(pair, q, k):
    n, xs, ys = pair
    F, R = CyclotomicField.get(n), ReferenceField.get(n)
    a, b = from_coeffs(F, xs), from_coeffs(F, ys)
    ra, rb = R.from_coeffs(xs), R.from_coeffs(ys)
    assert_same(a, ra)
    assert_same(b, rb)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(-a, -ra)
    assert_same(a * b, ra * rb)
    assert_same(a * q, ra * q)
    assert_same(q * a, q * ra)
    assert_same(a * int(k), ra * int(k))
    assert_same(a.galois(k), ra.galois(k))
    assert_same(a.conj(), ra.conj())
    assert (a == b) == (ra == rb)
    assert (a == q) == (ra == q)
    assert (a == a * 1) and a == from_coeffs(F, ra.coeffs)
    if q:
        assert_same(a / q, ra / q)
    if not b.is_zero():
        assert_same(b.inverse(), rb.inverse())
        assert_same(a / b, ra / rb)
    if a.is_rational():
        assert a.to_fraction() == ra.to_fraction()
        assert a == a.to_fraction() and hash(a) == hash(a.to_fraction())
    assert_same(F.from_fraction(q), R.from_fraction(q))
    assert_same(F.zeta(k), R.zeta(k))
    # sort_key orders like the reference, also across different denominators.
    new = [a, b, F.from_fraction(q), F.from_fraction(k)]
    ref = [ra, rb, R.from_fraction(q), R.from_fraction(k)]
    assert (sorted(range(4), key=lambda t: new[t].sort_key())
            == sorted(range(4), key=lambda t: ref[t].sort_key()))


def test_galois_images_are_normalised_for_every_k():
    # For k sharing a factor with N the map is not injective, so an image
    # can have a smaller denominator than its preimage: (1 + z)/2 in
    # Q(zeta_4) goes to 0 under z -> z^2.
    F = CyclotomicField.get(4)
    image = from_coeffs(F, [Fraction(1, 2), Fraction(1, 2)]).galois(2)
    assert image == F.zero() and image.den == 1
    rng = random.Random(7)
    for n in ORDERS[:-1]:
        F, R = CyclotomicField.get(n), ReferenceField.get(n)
        for _ in range(4):
            xs = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 4))) for _ in range(F.degree)]
            a, ra = from_coeffs(F, xs), R.from_coeffs(xs)
            for k in range(n):
                assert_same(a.galois(k), ra.galois(k))


def test_ring_operations_build_no_fractions(monkeypatch):
    import klcells.cyclotomic as cyclotomic

    F = CyclotomicField.get(12)
    a = from_coeffs(F, [Fraction(1, 2), 3, Fraction(-5, 6), 1])
    b = from_coeffs(F, [Fraction(2, 3), 0, 1, Fraction(7, 4)])
    r = F.from_fraction(Fraction(5, 4))

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cyclotomic, "Fraction", NoFraction)
    for x, y in ((a, b), (b, r), (r, r)):
        for value in (x + y, x - y, x * y, -x, x * 3, 3 * x, x / 6,
                      x.galois(5), x.galois(2), x.conj(), x.inverse(), x / y):
            assert value.den >= 1
        assert (x == y) == (x is y) and not x == 2 and not x.is_zero()
    assert r.is_rational() and not a.is_rational() and hash(a) == hash(a * 1)
