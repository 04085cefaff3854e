import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from api_helpers import c_rows, element_by_name, generators, lex_generic, longest_element
from hecke_reference import (add, bar, c_gen, clean, cs_product_reference,
                             equal, express_in_kl, mul_ts, mul_ts_right,
                             multiply, scale, sub, t_basis, t_inv_times, unit,
                             zero_coeff)
from kl_brute_oracle import brute_kl_expansions
from laurent_ring import sub as sub_coeff
from test_klbasis_golden import F4_MATRIX, SPECS_BY_COMMAND
from klcells import hecke
from klcells.cli import main
from klcells.coxeter import (CoxeterMatrix, WeightFunction, build_group,
                             named_coxeter_matrix)
from klcells.hecke import (HeckeAlgebra, KLTable, _construct_terms, diagram_automorphisms,
                           kl_basis, payload_digest)
from klcells.ordered_coeffs import LaurentElt, OrderedExponent
from klcells.specfile import parse_spec


def make_algebra(kind, n, weights):
    W = build_group(named_coxeter_matrix(kind, n))
    return HeckeAlgebra(W, WeightFunction.rational(weights))


def v(x, coeff=1):
    return LaurentElt.v_power(OrderedExponent.rational(x), coeff)


def test_ts_times_unit():
    alg = make_algebra("A", 2, [1, 1])
    s = alg.group.generator(0)
    assert equal(mul_ts(alg, 0, unit(alg)), t_basis(alg, s))


def test_quadratic_relation():
    alg = make_algebra("A", 2, [1, 1])
    s = alg.group.generator(0)
    prod = mul_ts(alg, 0, t_basis(alg, s))
    expected = add(unit(alg), scale(sub_coeff(v(1), v(-1)), t_basis(alg, s)))
    assert equal(prod, expected)


def test_length_additive_products():
    alg = make_algebra("I2", 3, [1, 1])
    W = alg.group
    s, t = generators(W)
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
        assert equal(multiply(alg, a, unit(alg)), a)


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
    assert equal(bar(alg, unit(alg)), unit(alg))
    expected = sub(t_basis(alg, s), scale(sub_coeff(v(1), v(-1)), unit(alg)))
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
    h = unit(alg)
    for g in (0, 1, 0, 1):  # apply innermost factor first
        h = t_inv_times(alg, g, h)
    assert equal(via_canonical, h)


def test_c_e_and_c_s():
    alg = make_algebra("A", 2, [1, 1])
    rows = c_rows(kl_basis(alg))
    assert equal(rows[0], unit(alg))
    s = alg.group.generator(0)
    assert equal(rows[s], add(t_basis(alg, s), scale(v(-1), unit(alg))))


def test_c_s_zero_weight():
    W = build_group(named_coxeter_matrix("A", 1))
    alg = HeckeAlgebra(W, WeightFunction.rational([0]))
    rows = c_rows(kl_basis(alg))
    # L = 0 forces C_w = T_w for every w.
    for w in range(len(W)):
        assert equal(rows[w], t_basis(alg, w))


def test_a2_c_st_expansion():
    alg = make_algebra("A", 2, [1, 1])
    table = kl_basis(alg)
    W = alg.group
    expected = {element_by_name(W, "s t"): alg.one_coeff(),
                element_by_name(W, "s"): v(-1),
                element_by_name(W, "t"): v(-1),
                W.identity: v(-2)}
    assert equal(c_rows(table)[element_by_name(W, "s t")], expected)


def test_kl_defining_properties_small_groups():
    for kind, n, weights in [("A", 2, [1, 1]), ("B", 2, [1, 2]),
                             ("I2", 3, [2, 2]), ("I2", 4, [3, 1])]:
        alg = make_algebra(kind, n, weights)
        W = alg.group
        for w, exp in enumerate(c_rows(kl_basis(alg))):
            assert equal(bar(alg, exp), exp)
            assert exp[w] == alg.one_coeff()
            for y, coeff in exp.items():
                if y == w:
                    continue
                assert W.length(y) < W.length(w)
                neg, const, pos = coeff.split_by_sign()
                assert const == 0 and not pos


def test_brute_force_solver_reproduces_table():
    # Independent bar-invariance solver, groups of order <= 24.
    cases = [("A", 1, [1]), ("A", 2, [1, 1]), ("B", 2, [1, 1]),
             ("B", 2, [1, 2]), ("B", 2, [2, 1]), ("B", 2, [1, 2]),
             ("I2", 6, [1, 3]), ("A", 3, [1, 1, 1]), ("I2", 5, [1, 1])]
    for kind, n, weights in cases:
        alg = make_algebra(kind, n, weights)
        rows = c_rows(kl_basis(alg))
        brute = brute_kl_expansions(alg)
        for w in range(len(alg.group)):
            assert equal(rows[w], brute[w]), (kind, n, weights, w)


def test_wall_case_b_equals_2a():
    alg = make_algebra("I2", 4, [1, 2])
    rows = c_rows(kl_basis(alg))
    brute = brute_kl_expansions(alg)
    for w in range(len(alg.group)):
        assert equal(rows[w], brute[w])


def test_express_in_kl_roundtrips():
    alg = make_algebra("B", 2, [1, 2])
    rows = c_rows(kl_basis(alg))
    W = alg.group
    # express(C_w) is the indicator at w
    for w in range(len(W)):
        got = express_in_kl(rows[w], alg, rows)
        assert equal(got, t_basis(alg, w))
    # express(T_e) is the indicator at e
    assert equal(express_in_kl(unit(alg), alg, rows), unit(alg))
    # random elements roundtrip through the basis
    rng = random.Random(23)
    for _ in range(10):
        h = clean({rng.randrange(len(W)): v(rng.randint(-3, 3), rng.randint(-2, 2))
                       for _ in range(3)})
        coeffs = express_in_kl(h, alg, rows)
        rebuilt = {}
        for y, c in coeffs.items():
            rebuilt = add(rebuilt, scale(c, rows[y]))
        assert equal(rebuilt, h)


def test_cs_times_cs():
    alg = make_algebra("A", 2, [1, 1])
    rows = c_rows(kl_basis(alg))
    s = alg.group.generator(0)
    prod = multiply(alg, c_gen(alg, 0), rows[s])
    got = express_in_kl(prod, alg, rows)
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
        W, rows = alg.group, c_rows(table)
        for s in range(W.rank):
            for w in range(len(W)):
                direct = cs_product_reference(alg, rows, s, w)
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
    # product, a row rebuilt from its inverse, a coefficient derived on the
    # right (t in R(st), so p_(s,st) = v^-2 p_(st,st)), p_(w,w) = 1, a
    # zero-weight product and, as the positive weights are equal, an
    # ascent product of the zero-weight table.  The cache holds none of
    # them, not even at its derived value.
    # The cache keys element w by its index, str(w), and `klbasis` by its
    # name.
    full, zero_full = table.to_json_dict(), zero_table.to_json_dict()
    W = alg.group
    ix = {W.name(w): str(w) for w in range(len(W))}

    def by_index(coeffs):
        return {ix[y]: text for y, text in coeffs.items()}

    for a, d, edit in [
            (alg, doc, lambda d: d["cs_products"].update(
                {f"s|{ix['s']}": by_index(full["cs_products"]["s|s"])})),
            (alg, doc, lambda d: d["c_basis"].update({ix["t s"]: by_index(full["c_basis"]["t s"])})),
            (alg, doc, lambda d: d["c_basis"][ix["s t"]].update(
                {ix["s"]: full["c_basis"]["s t"]["s"]})),
            (alg, doc, lambda d: d["c_basis"][ix["s t"]].update({ix["s t"]: "1*v^(0)"})),
            (zero_alg, zero_doc, lambda d: d["cs_products"].update(
                {f"t|{ix['e']}": by_index(zero_full["cs_products"]["t|e"])})),
            (zero_alg, zero_doc, lambda d: d["cs_products"].update(  # C_s C_ts = C_sts
                {f"s|{ix['t s']}": {}}))]:
        bad = json.loads(json.dumps(d))
        edit(bad)
        bad["digest"] = payload_digest(bad)
        with pytest.raises(ValueError):
            KLTable.from_json_dict(bad, a)
    with pytest.raises(ValueError):
        KLTable.from_json_dict(full, alg)


@settings(max_examples=200, deadline=None, database=None)
@given(st.text())
@example("")
@example("kl_\u00e9\u4e00\U0001d11e\x00")
def test_sha256_is_hashlibs(text):
    """The cache digests hash with the interpreter's built-in SHA-256, or
    with hashlib where there is none; either gives hashlib's hex digest."""
    want = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert hecke._sha256(text) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "_sha256", None)  # None: the import fails
        mp.setitem(sys.modules, "_sha2", None)
        assert hecke._sha256(text) == want


def test_lex_mode_generic_weights():
    W = build_group(named_coxeter_matrix("I2", 4))
    alg = HeckeAlgebra(W, lex_generic(2))
    for w, exp in enumerate(c_rows(kl_basis(alg))):
        assert equal(bar(alg, exp), exp)
        for y, coeff in exp.items():
            if y != w:
                neg, const, pos = coeff.split_by_sign()
                assert const == 0 and not pos


def h3_klbasis_bytes(capsys, tmp_path):
    """`klcells klbasis` on H3 (equal weights): (exit status, stdout)."""
    spec = tmp_path / "h3.spec"
    spec.write_text("group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n", encoding="utf-8")
    code = main(["klbasis", str(spec), "--no-cache"])
    return code, capsys.readouterr().out


def spy(monkeypatch, name):
    """Record the algebra of every call of hecke.<name>, which still runs."""
    calls, real = [], getattr(hecke, name)
    monkeypatch.setattr(hecke, name, lambda alg: calls.append(alg) or real(alg))
    return calls


def test_narrow_slots_fall_back_to_the_dict_ring(case_tables, monkeypatch, capsys, tmp_path):
    """The checked digit and exponent bounds decide whether a table packs
    at _BITS bits a slot: one that does not is built in the dict ring, so
    every width gives the 16-bit table, and the CLI exits 0 with its
    bytes."""
    expected = h3_klbasis_bytes(capsys, tmp_path)
    assert expected[0] == 0
    terms = spy(monkeypatch, "_construct_terms")
    for bits in range(3, 13):
        monkeypatch.setattr(hecke, "_BITS", bits)
        for label, alg, table in case_tables:
            terms.clear()
            assert kl_basis(alg).to_json_dict() == table.to_json_dict(), (label, bits)
            if bits == 4:
                assert terms == [alg], label
    monkeypatch.setattr(hecke, "_BITS", 4)
    assert h3_klbasis_bytes(capsys, tmp_path) == expected


def test_box_overflow_is_not_retried(case_tables, monkeypatch, capsys, tmp_path):
    """An exponent that could leave the slot box ends the one packed
    attempt, with no retry, and the dict ring builds the same table (the
    CLI exits 0 with the same bytes): here the box is halved, so the bound
    of the rows fails it."""
    expected = h3_klbasis_bytes(capsys, tmp_path)
    slot_box = hecke._slot_box
    monkeypatch.setattr(hecke, "_slot_box",
                        lambda alg: (slot_box(alg)[0], [b // 2 for b in slot_box(alg)[1]]))
    packed, terms = spy(monkeypatch, "_construct"), spy(monkeypatch, "_construct_terms")
    for label, alg, table in case_tables:
        packed.clear()
        terms.clear()
        assert kl_basis(alg).to_json_dict() == table.to_json_dict(), label
        assert packed == terms == [alg], label
    assert h3_klbasis_bytes(capsys, tmp_path) == expected


def test_wide_slot_boxes_build_no_packed_row(monkeypatch):
    """A1^5 with L = e_1, ..., e_5 (3125 slots) and I2(6) with L =
    (1, 1000) (8007 slots) are refused before any packed row is built,
    and built in the dict ring."""
    def cancel(*args):
        raise AssertionError("a packed row was built")

    monkeypatch.setattr(hecke, "_cancel", cancel)
    terms = spy(monkeypatch, "_construct_terms")
    for text in ("group matrix\n5\n2 2 2 2\n2 2 2\n2 2\n2\n"
                 + "".join(f"L lex {g} = e_{i}\n" for i, g in enumerate("stuvw", 1)),
                 "group I2 6\nL s = 1\nL t = 1000\n"):
        spec = parse_spec(text)
        alg = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
        kl_basis(alg)
        assert terms[-1] is alg, text


def exact_reach(pk, row):
    """max |x_i| per coordinate over the exponents of the packed row, in
    slot units, read off every digit: the reference for the bound that
    each construction step carries."""
    reach = pk.zero_reach
    for x in row.values():
        for pos, _ in pk._digits(x):
            reach = tuple(map(max, reach, map(abs, pk._slot_coords(pos - pk.R))))
    return reach


@pytest.mark.parametrize("text", [
    "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n",
    "group B 3\nL lex s = e_3\nL lex t = e_3\nL lex u = e_1\n",
    "group B 3\nL s = 0\nL t = 0\nL u = 1\n",
    "group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 2\n",
    "group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n",
    "group D 4\nL s = 1/3\nL t = 1/3\nL u = 1/3\nL v = 1/3\n",
    "group I2 8\nL lex s = e_2\nL lex t = e_1\n",
])
def test_carried_reach_is_the_exact_reach(text, monkeypatch):
    """The exponent bound a construction step carries out of `_cancel` is
    the exact max |x_i| over the exponents of the row it builds, and so is
    the bound stored for every row a later step reads."""
    spec = parse_spec(text)
    alg = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
    word, cancel, steps = alg.group.word, hecke._cancel, []

    def checked(pk, s, left, u, w, c_exp, digits, reach):
        assert reach[u] == exact_reach(pk, c_exp[u]), (s, u)
        out = cancel(pk, s, left, u, w, c_exp, digits, reach)
        if s == word(w)[0]:
            assert out[3] == exact_reach(pk, out[0]), (s, w)
            steps.append(w)
        return out
    monkeypatch.setattr(hecke, "_cancel", checked)
    kl_basis(alg)
    assert steps


# Every golden `cells` spec, and zero weights on B3, B4, F4, I2(8) and on
# the A1 of D4 x A1.
INVARIANT_SPECS = {
    **SPECS_BY_COMMAND["cells"],
    "B3_0_0_2": "group B 3\nL s = 0\nL t = 0\nL u = 2\n",
    "B4_0_0_0_1": "group B 4\nL s = 0\nL t = 0\nL u = 0\nL v = 1\n",
    "F4_1_1_0_0": F4_MATRIX + "L s = 1\nL t = 1\nL u = 0\nL v = 0\n",
    "F4_0_0_1_1": F4_MATRIX + "L s = 0\nL t = 0\nL u = 1\nL v = 1\n",
    "I2(8)_0_1": "group I2 8\nL s = 0\nL t = 1\n",
    "D4xA1_1_1_1_1_0": "group matrix\n5\n3 2 2 2\n3 3 2\n2 2\n2\n"
                       "L s = 1\nL t = 1\nL u = 1\nL v = 1\nL w = 0\n",
}


def test_cancellation_stays_in_the_support_of_the_product(monkeypatch):
    """Both cancellations of C_s C_u keep to K = supp(C_u) u s supp(C_u),
    the keys they start from (`_cancel`): every C_y subtracted has its
    keys in K, and the C_su built has exactly the keys K."""
    seen = {"_cancel": 0, "_cancel_terms": 0}

    def check(name, left, u, c_exp, row, correction):
        K = c_exp[u].keys() | set(map(left.__getitem__, c_exp[u]))
        assert row.keys() == K, (name, u)
        assert all(c_exp[y].keys() <= K for y in correction), (name, u)
        seen[name] += 1

    cancel, cancel_terms = hecke._cancel, hecke._cancel_terms

    def packed(pk, s, left, u, w, c_exp, digits, reach):
        out = cancel(pk, s, left, u, w, c_exp, digits, reach)
        check("_cancel", left, u, c_exp, *out[:2])
        return out

    def terms(algebra, s, u, w, c_exp, v_plus, v_minus):
        out = cancel_terms(algebra, s, u, w, c_exp, v_plus, v_minus)
        check("_cancel_terms", algebra.group._lmul[s], u, c_exp, *out)
        return out
    monkeypatch.setattr(hecke, "_cancel", packed)
    monkeypatch.setattr(hecke, "_cancel_terms", terms)
    for text in INVARIANT_SPECS.values():
        spec = parse_spec(text)
        kl_basis(HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights))
    assert all(seen.values()), seen


def bruhat_intervals(W):
    """[e,w] for every w, from the group tables alone: for s with sw < w,
    y <= w exactly when the shorter of y and sy is <= sw (the lifting
    property)."""
    below = [{W.identity}] + [None] * (len(W) - 1)
    for w in range(1, len(W)):
        s = W.left_descents(w)[0]
        lower, left = below[W.lmul_gen(s, w)], W._lmul[s]
        below[w] = {y for y in range(len(W))
                    if min(y, left[y], key=W.length) in lower}
    return below


@pytest.mark.parametrize("text", [
    "group B 3\nL s = 1\nL t = 1\nL u = 3/2\n",
    "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n",
    "group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 2\n",
    "group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n",
    "group I2 8\nL lex s = e_2\nL lex t = e_1\n",
], ids=["B3 (1,1,3/2)", "B3 lex", "B4 (1,1,1,2)", "H3", "I2(8) lex"])
def test_positive_weights_give_full_bruhat_intervals(text):
    """With every weight positive supp(C_w) is the Bruhat interval [e,w]:
    the fact the fixed candidates of `_cancel` rest on."""
    spec = parse_spec(text)
    alg = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
    assert all(alg.positive)
    rows = c_rows(kl_basis(alg))
    assert [set(row) for row in rows] == bruhat_intervals(alg.group)


@pytest.mark.parametrize("text", [
    "group B 3\nL s = 1\nL t = 1\nL u = 10\n",
    "group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 10\n",
])
def test_packed_matches_dict_ring_at_large_weight_ratios(text):
    """At a weight ratio of 10 the packed table's `klbasis` document and
    KL cache are the dict ring's, byte for byte."""
    spec = parse_spec(text)
    alg = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
    packed, terms = kl_basis(alg), _construct_terms(alg)
    assert json.dumps(packed.to_json_dict()) == json.dumps(terms.to_json_dict())
    assert packed.to_cache_text() == terms.to_cache_text()


@pytest.mark.parametrize("kind, n, weights", [
    ("D", 4, [1, 1, 1, 1]), ("D", 4, [2, 2, 2, 2]), ("A", 4, [1, 1, 1, 1]),
    ("A", 5, [1, 1, 1, 1, 1]), ("I2", 7, [1, 1]), ("B", 2, [1, 1]), ("B", 3, [1, 1, 1]),
    ("B", 2, [1, 2]),
], ids=["D4", "D4 L=2", "A4", "A5", "I2(7)", "B2 (1,1)", "B3 (1,1,1)", "B2 (1,2)"])
def test_symmetric_construction_matches_dict_ring(kind, n, weights):
    """With equal parameters kl_basis builds the rows of the orbit
    representatives alone and relabels the others, packed and in the dict
    ring (`_construct_terms`) alike: both write the same KL cache and the
    same `klbasis` document, key order included.  Every row and C_s C_w
    product of the packed table is that of a dict-ring table of the
    algebra with no symmetry, which builds and stores every row by
    cancellation.  B3 (1,1,1) has only w -> w^-1, and with
    L = (1,2) no automorphism of B2 keeps the weights."""
    alg = make_algebra(kind, n, weights)
    packed, terms = kl_basis(alg), _construct_terms(alg)
    assert packed.to_cache_text() == terms.to_cache_text()
    assert json.dumps(packed.to_json_dict()) == json.dumps(terms.to_json_dict())
    plain = make_algebra(kind, n, weights)
    plain.symmetries = []  # every element its own orbit
    reference = _construct_terms(plain)
    W, rows, reference_rows = alg.group, c_rows(packed), c_rows(reference)
    for w in range(len(W)):
        assert rows[w] == reference_rows[w], W.name(w)
        for s in range(W.rank):
            assert packed.cs_product_in_c(s, w) == reference.cs_product_in_c(s, w), (s, W.name(w))


@pytest.mark.parametrize("text, calls", [
    ("group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n", 42),
    ("group A 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n", 44),
    ("group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n", 75),
    ("group B 3\nL s = 1\nL t = 1\nL u = 3/2\n", 72),
], ids=["D4", "A4", "H3", "B3 (1,1,3/2)"])
def test_dict_ring_cancels_where_the_packed_build_does(text, calls, monkeypatch):
    """One loop builds the table in both coefficient forms: with
    _MAX_SLOTS forced to 1, so that nothing packs, the dict ring calls
    `_cancel_terms` exactly as often as the packed build calls `_cancel`
    (with equal weights, at the construction steps of the orbit
    representatives alone), and writes the same KL cache."""
    counts = {"_cancel": 0, "_cancel_terms": 0}
    for name in counts:
        def counted(*args, name=name, real=getattr(hecke, name)):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(hecke, name, counted)
    spec = parse_spec(text)
    alg = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
    packed = kl_basis(alg).to_cache_text()
    assert counts == {"_cancel": calls, "_cancel_terms": 0}
    monkeypatch.setattr(hecke, "_MAX_SLOTS", 1)
    assert kl_basis(alg).to_cache_text() == packed
    assert counts == {"_cancel": calls, "_cancel_terms": calls}


F4 = CoxeterMatrix.from_rows([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]])
H3 = CoxeterMatrix.from_rows([[1, 5, 2], [5, 1, 3], [2, 3, 1]])


def a2_power(k):
    """The Coxeter matrix of A2^k, generators 2i and 2i + 1 bonded."""
    return CoxeterMatrix.from_rows([[1 if i == j else 3 if i // 2 == j // 2 else 2
                                     for j in range(2 * k)] for i in range(2 * k)])


def test_symmetry_search():
    """The symmetries of a table are w -> w^-1 and the diagram
    automorphisms of each component that keep the weights: none for F4
    with L = (1,1,2,2), I2(4) with L = (1,2), B3 and H3; the five of
    triality (the permutations of the three outer nodes) for D4; one flip
    a component for A2^4.  Each diagram automorphism's element map is
    the automorphism of W it extends to.  The search backtracks, so A2^8
    and A15, far past a search over all 16! and 15! permutations, take
    no time."""
    for matrix, weights in [(F4, [1, 1, 2, 2]), (named_coxeter_matrix("I2", 4), [1, 2]),
                            (named_coxeter_matrix("B", 3), [1, 1, 1]), (H3, [1, 1, 1])]:
        alg = HeckeAlgebra(build_group(matrix), WeightFunction.rational(weights))
        assert alg.symmetries == [alg.group._inv], (matrix, weights)
    d4 = named_coxeter_matrix("D", 4)  # node 1 is bonded to 0, 2 and 3
    assert sorted(diagram_automorphisms(d4, WeightFunction.rational([1] * 4))) == [
        (a, 1, b, c) for a, b, c in sorted(itertools.permutations((0, 2, 3)))
        if (a, b, c) != (0, 2, 3)]
    flips = [tuple(i ^ 1 if i // 2 == k else i for i in range(8)) for k in range(4)]
    assert diagram_automorphisms(a2_power(4), WeightFunction.rational([1] * 8)) == flips
    for matrix, weights in [(d4, [1] * 4), (a2_power(4), [1] * 8), (F4, [1] * 4)]:
        W = build_group(matrix)
        pis = diagram_automorphisms(matrix, WeightFunction.rational(weights))
        alg = HeckeAlgebra(W, WeightFunction.rational(weights))
        assert len(alg.symmetries) == 1 + len(pis) > 1
        for pi, g in zip(pis, alg.symmetries[1:]):
            assert [g[W.generator(s)] for s in range(W.rank)] == [W.generator(t) for t in pi]
            for w in range(len(W)):
                assert W.length(g[w]) == W.length(w)
                for s in range(W.rank):
                    assert g[W.mul(w, W.generator(s))] == W.mul(g[w], W.generator(pi[s]))
    assert len(diagram_automorphisms(a2_power(8), WeightFunction.rational([1] * 16))) == 8
    assert diagram_automorphisms(named_coxeter_matrix("A", 15), WeightFunction.rational(
        [1] * 15)) == [tuple(range(14, -1, -1))]


def test_wide_lex_box_is_built_in_the_dict_ring(tmp_path):
    """A1^8 with L = e_1, ..., e_8 has a slot box of 5^8 slots, far too
    many to pack: `klcells` builds it in the dict ring, in well under a
    second and a few MB, and prints the same bytes with no cache, cold
    and warm, the warm run loading the cache.  The run gets 60 s and 1 GB of address space (packed, the
    table would take gigabytes).  C_w is the product of the C_s, s <= w,
    so p_(y,w) = v^(L(y) - L(w)) for every y <= w."""
    rank = 8
    spec = tmp_path / "a1x8.spec"
    spec.write_text("group matrix\n8\n" + "".join(
        " ".join(["2"] * (rank - 1 - i)) + "\n" for i in range(rank - 1)) + "".join(
        f"L lex {g} = e_{i + 1}\n" for i, g in enumerate("stuvwxyz")), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(hecke.__file__))
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from klcells.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    cache = tmp_path / "cache"
    outs, inodes = [], []
    for args in (["--no-cache"], ["--cache-dir", str(cache)], ["--cache-dir", str(cache)]):
        run = subprocess.run([sys.executable, "-c", script, "klbasis", str(spec), *args],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
        inodes.append([p.stat().st_ino for p in cache.iterdir()] if cache.exists() else [])
    assert outs[0] == outs[1] == outs[2]
    assert len(inodes[1]) == 1 and inodes[2] == inodes[1]  # the warm run is a cache hit
    doc = json.loads(outs[0])
    assert len(doc["c_basis"]) == 1 << rank
    for w, row in doc["c_basis"].items():
        letters = set(w.split()) - {"e"}
        assert len(row) == 1 << len(letters), w
        for y, coeff in row.items():
            gap = letters - (set(y.split()) - {"e"})
            exponent = ",".join("-1" if g in gap else "0" for g in "stuvwxyz")
            assert coeff == f"1*v^({exponent})", (w, y)
