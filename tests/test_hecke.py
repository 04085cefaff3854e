import json
import random
from fractions import Fraction

import pytest

from api_helpers import lex_generic, longest_element
from hecke_reference import (add, bar, c_gen, clean, cs_product_reference,
                             equal, express_in_kl, mul_ts, mul_ts_right,
                             multiply, scale, sub, t_basis, t_inv_times,
                             zero_coeff)
from kl_brute_oracle import brute_kl_expansions
from klcells.coxeter import (CoxeterMatrix, WeightFunction, build_group,
                             named_coxeter_matrix)
from klcells.hecke import HeckeAlgebra, KLTable, kl_basis, payload_digest
from klcells.ordered_coeffs import LaurentElt, OrderedExponent


def make_algebra(kind, n, weights):
    W = build_group(named_coxeter_matrix(kind, n))
    return HeckeAlgebra(W, WeightFunction.rational(weights))


def v(x, coeff=1):
    return LaurentElt.v_power(OrderedExponent.rational(x), coeff)


def test_ts_times_unit():
    alg = make_algebra("A", 2, [1, 1])
    s = alg.group.generator(0)
    assert equal(mul_ts(alg, 0, alg.unit()), t_basis(alg, s))


def test_quadratic_relation():
    alg = make_algebra("A", 2, [1, 1])
    s = alg.group.generator(0)
    prod = mul_ts(alg, 0, t_basis(alg, s))
    expected = add(alg.unit(), scale(v(1) - v(-1), t_basis(alg, s)))
    assert equal(prod, expected)


def test_length_additive_products():
    alg = make_algebra("I2", 3, [1, 1])
    W = alg.group
    s, t = W.generators()
    st = W.mul(s, t)
    assert equal(mul_ts(alg, 0, t_basis(alg, t)), t_basis(alg, st))
    # T_w * T_w' = T_ww' whenever lengths add
    for w in range(len(W)):
        for u in range(len(W)):
            if W.length(W.mul(w, u)) == W.length(w) + W.length(u):
                prod = multiply(alg, t_basis(alg, w), t_basis(alg, u))
                assert equal(prod, t_basis(alg, W.mul(w, u)))


def test_multiply_is_associative_on_random_elements():
    alg = make_algebra("B", 2, [1, 2])
    W = alg.group
    rng = random.Random(3)

    def random_elt():
        out = {}
        for _ in range(rng.randint(1, 3)):
            w = rng.randrange(len(W))
            coeff = v(rng.randint(-2, 2), rng.randint(-2, 2))
            out[w] = out.get(w, zero_coeff(alg)) + coeff
        return clean(out)

    for _ in range(15):
        a, b, c = random_elt(), random_elt(), random_elt()
        assert equal(multiply(alg, multiply(alg, a, b), c),
                         multiply(alg, a, multiply(alg, b, c)))
        assert equal(multiply(alg, a, alg.unit()), a)


def test_right_multiplication_side():
    alg = make_algebra("A", 2, [1, 1])
    W = alg.group
    for w in range(len(W)):
        left = mul_ts(alg, 0, t_basis(alg, w))
        right = mul_ts_right(alg, t_basis(alg, w), 0)
        assert equal(left, multiply(alg, t_basis(alg, W.generator(0)), t_basis(alg, w)))
        assert equal(right, multiply(alg, t_basis(alg, w), t_basis(alg, W.generator(0))))


def test_bar_on_generators():
    alg = make_algebra("A", 2, [1, 1])
    s = alg.group.generator(0)
    assert equal(bar(alg, alg.unit()), alg.unit())
    expected = sub(t_basis(alg, s), scale(v(1) - v(-1), alg.unit()))
    assert equal(bar(alg, t_basis(alg, s)), expected)


def test_bar_is_involution_random():
    alg = make_algebra("B", 2, [1, 3])
    W = alg.group
    rng = random.Random(11)
    for _ in range(15):
        h = {rng.randrange(len(W)): v(rng.randint(-2, 2), rng.randint(1, 3))
             for _ in range(rng.randint(1, 4))}
        h = clean(h)
        assert equal(bar(alg, bar(alg, h)), h)


def test_bar_independent_of_reduced_word():
    # i(T_w) computed along the canonical word must equal the product along
    # any other reduced word; check via the braid pair in B2.
    alg = make_algebra("I2", 4, [1, 2])
    W = alg.group
    w0 = longest_element(W)  # stst = tsts
    via_canonical = bar(alg, t_basis(alg, w0))
    # T_w0 has coefficient one, so i(T_w0) is the bare product of the
    # inverted generators along the other reduced word t s t s.
    h = alg.unit()
    for g in (0, 1, 0, 1):  # apply innermost factor first
        h = t_inv_times(alg, g, h)
    assert equal(via_canonical, h)


def test_c_e_and_c_s():
    alg = make_algebra("A", 2, [1, 1])
    table = kl_basis(alg)
    assert equal(table.c_expansion(0), alg.unit())
    s = alg.group.generator(0)
    assert equal(table.c_expansion(s),
                     add(t_basis(alg, s), scale(v(-1), alg.unit())))


def test_c_s_zero_weight():
    W = build_group(named_coxeter_matrix("A", 1))
    alg = HeckeAlgebra(W, WeightFunction.rational([0]))
    table = kl_basis(alg)
    # L = 0 forces C_w = T_w for every w.
    for w in range(len(W)):
        assert equal(table.c_expansion(w), t_basis(alg, w))


def test_a2_c_st_expansion():
    alg = make_algebra("A", 2, [1, 1])
    table = kl_basis(alg)
    W = alg.group
    expected = {W.element_by_name("s t"): alg.one_coeff(),
                W.element_by_name("s"): v(-1),
                W.element_by_name("t"): v(-1),
                W.identity: v(-2)}
    assert equal(table.c_expansion(W.element_by_name("s t")), expected)


def test_kl_defining_properties_small_groups():
    for kind, n, weights in [("A", 2, [1, 1]), ("B", 2, [1, 2]),
                             ("I2", 3, [2, 2]), ("I2", 4, [3, 1])]:
        alg = make_algebra(kind, n, weights)
        table = kl_basis(alg)
        W = alg.group
        for w in range(len(W)):
            exp = table.c_expansion(w)
            assert equal(bar(alg, exp), exp)
            assert exp[w] == alg.one_coeff()
            for y, coeff in exp.items():
                if y == w:
                    continue
                assert W.length(y) < W.length(w)
                neg, const, pos = coeff.split_by_sign()
                assert const == 0 and pos.is_zero()


def test_brute_force_solver_reproduces_table():
    # Independent bar-invariance solver, groups of order <= 24.
    cases = [("A", 1, [1]), ("A", 2, [1, 1]), ("B", 2, [1, 1]),
             ("B", 2, [1, 2]), ("B", 2, [2, 1]), ("B", 2, [1, 2]),
             ("I2", 6, [1, 3]), ("A", 3, [1, 1, 1])]
    for kind, n, weights in cases:
        alg = make_algebra(kind, n, weights)
        table = kl_basis(alg)
        brute = brute_kl_expansions(alg)
        for w in range(len(alg.group)):
            assert equal(table.c_expansion(w), brute[w]), (kind, n, weights, w)


def test_wall_case_b_equals_2a():
    alg = make_algebra("I2", 4, [1, 2])
    table = kl_basis(alg)
    brute = brute_kl_expansions(alg)
    for w in range(len(alg.group)):
        assert equal(table.c_expansion(w), brute[w])


def test_express_in_kl_roundtrips():
    alg = make_algebra("B", 2, [1, 2])
    table = kl_basis(alg)
    W = alg.group
    # express(C_w) is the indicator at w
    for w in range(len(W)):
        got = express_in_kl(table.c_expansion(w), table)
        assert equal(got, t_basis(alg, w))
    # express(T_e) is the indicator at e
    assert equal(express_in_kl(alg.unit(), table), alg.unit())
    # random elements roundtrip through the basis
    rng = random.Random(23)
    for _ in range(10):
        h = clean({rng.randrange(len(W)): v(rng.randint(-3, 3), rng.randint(-2, 2))
                       for _ in range(3)})
        coeffs = express_in_kl(h, table)
        rebuilt = {}
        for y, c in coeffs.items():
            rebuilt = add(rebuilt, scale(c, table.c_expansion(y)))
        assert equal(rebuilt, h)


def test_cs_times_cs():
    alg = make_algebra("A", 2, [1, 1])
    table = kl_basis(alg)
    s = alg.group.generator(0)
    prod = multiply(alg, c_gen(alg, 0), table.c_expansion(s))
    got = express_in_kl(prod, table)
    assert equal(got, {s: v(1) + v(-1)})


H3_MATRIX = CoxeterMatrix.from_upper_triangle(3, [[5, 2], [3]])

# (label, Coxeter matrix, weights): zero, integer, rational and lex
# weights on B3 (classes {s, t} and {u}), and equal parameters on H3.
TABLE_CASES = [
    ("B2 L=(1,2)", named_coxeter_matrix("B", 2), WeightFunction.rational([1, 2])),
    ("B3 L=(1,1,0)", named_coxeter_matrix("B", 3), WeightFunction.rational([1, 1, 0])),
    ("B3 L=(0,0,1)", named_coxeter_matrix("B", 3), WeightFunction.rational([0, 0, 1])),
    ("B3 L=(1,1,2)", named_coxeter_matrix("B", 3), WeightFunction.rational([1, 1, 2])),
    ("B3 L=(1,1,3/2)", named_coxeter_matrix("B", 3),
     WeightFunction.rational([1, 1, Fraction(3, 2)])),
    ("B3 L=(e1,e1,e2)", named_coxeter_matrix("B", 3),
     WeightFunction.from_lex_units([1, 1, 2], 2)),
    ("H3 equal", H3_MATRIX, WeightFunction.rational([1, 1, 1])),
]


@pytest.fixture(scope="module")
def case_tables():
    out = []
    for label, matrix, weights in TABLE_CASES:
        alg = HeckeAlgebra(build_group(matrix), weights)
        out.append((label, alg, kl_basis(alg)))
    return out


def test_cached_cs_products_match_direct_multiplication(case_tables):
    # Every entry of the product table against multiply-and-back-substitute.
    for label, alg, table in case_tables:
        W = alg.group
        for s in range(W.rank):
            for w in range(len(W)):
                direct = cs_product_reference(table, s, w)
                assert equal(direct, table.cs_product_in_c(s, w)), \
                    (label, W.gen_names[s], W.name(w))


def test_descent_product_identity(case_tables):
    # For a left descent s of w: C_s C_w = (v^L + v^-L) C_w when L(s) > 0,
    # and C_s C_w = C_{sw}, C_s C_{sw} = C_w when L(s) = 0.
    for label, alg, table in case_tables:
        W = alg.group
        one = alg.one_coeff()
        for w in range(len(W)):
            for s in W.left_descents(w):
                L = alg.weights[s]
                sw = W.lmul_gen(s, w)
                if L.sign() > 0:
                    expected = {w: LaurentElt.v_power(L) + LaurentElt.v_power(-L)}
                    assert equal(table.cs_product_in_c(s, w), expected), label
                else:
                    assert equal(table.cs_product_in_c(s, w), {sw: one}), label
                    assert equal(table.cs_product_in_c(s, sw), {w: one}), label


def test_serialization_roundtrip_and_key_stability():
    alg = make_algebra("B", 2, [1, 2])
    table = kl_basis(alg)
    doc = json.loads(table.to_cache_text())
    loaded = KLTable.from_json_dict(doc, alg)
    assert loaded.to_json_dict() == table.to_json_dict()
    assert doc["key"] == alg.content_key() == make_algebra("B", 2, [1, 2]).content_key()
    # Key depends on the weights.
    assert make_algebra("B", 2, [1, 3]).content_key() != alg.content_key()
    zero_alg = make_algebra("B", 2, [1, 0])
    zero_table = kl_basis(zero_alg)
    zero_doc = json.loads(zero_table.to_cache_text())
    assert (KLTable.from_json_dict(zero_doc, zero_alg).to_json_dict()
            == zero_table.to_json_dict())
    # The full `klbasis` document holds what the cache derives: a descent
    # product, a row rebuilt from its inverse, a zero-weight product.  The
    # cache holds none of them, not even at its derived value.
    full, zero_full = table.to_json_dict(), zero_table.to_json_dict()
    for a, d, edit in [
            (alg, doc, lambda d: d["cs_products"].update({"s|s": full["cs_products"]["s|s"]})),
            (alg, doc, lambda d: d["c_basis"].update({"t s": full["c_basis"]["t s"]})),
            (zero_alg, zero_doc,
             lambda d: d["cs_products"].update({"t|e": zero_full["cs_products"]["t|e"]}))]:
        bad = json.loads(json.dumps(d))
        edit(bad)
        bad["digest"] = payload_digest(bad)
        with pytest.raises(ValueError):
            KLTable.from_json_dict(bad, a)
    with pytest.raises(ValueError):
        KLTable.from_json_dict(full, alg)


def test_lex_mode_generic_weights():
    W = build_group(named_coxeter_matrix("I2", 4))
    alg = HeckeAlgebra(W, lex_generic(2))
    table = kl_basis(alg)
    for w in range(len(W)):
        exp = table.c_expansion(w)
        assert equal(bar(alg, exp), exp)
        for y, coeff in exp.items():
            if y != w:
                neg, const, pos = coeff.split_by_sign()
                assert const == 0 and pos.is_zero()
