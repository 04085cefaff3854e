"""Property tests: on random small Coxeter groups with random weights, the
Hecke relations hold in the reference T-basis arithmetic, the KL basis
equals the brute-force solver's, the packed and the dict-ring
constructions hold the solver's extremal coefficients and write the
same cache byte for byte, every C_s C_w in the table equals the product
multiplied out and re-expanded in the C-basis, the symmetries (w -> w^-1
and the diagram automorphisms) and the extremal identity that the KL
cache relies on hold for the solver's rows, the ascent corrections are
well formed, the cache round-trips, and the cells satisfy the
invariants that hold for every weight function."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from api_helpers import c_rows, from_integers, orbit_representatives, regular_character
from hecke_reference import (add, cs_product_reference, equal, multiply, scale,
                             t_basis)
from kl_brute_oracle import brute_kl_expansions
from laurent_ring import sub
from klcells.cells import _inverted, cells, left_cell_character, left_preorder
from klcells.characters import character_table
from klcells.coxeter import (CoxeterMatrix, WeightFunction, build_group,
                             conjugate_generator_components,
                             named_coxeter_matrix)
from klcells.hecke import HeckeAlgebra, KLTable, _construct_terms, kl_basis
from klcells.ordered_coeffs import LaurentElt

A1_X_A2 = CoxeterMatrix.from_rows([[1, 2, 2], [2, 1, 3], [2, 3, 1]])


@st.composite
def coxeter_matrices(draw):
    kind = draw(st.sampled_from(["I2", "A1xA2", "A3", "B3"]))
    if kind == "I2":
        return named_coxeter_matrix("I2", draw(st.integers(2, 6)))
    if kind == "A1xA2":
        return A1_X_A2
    return named_coxeter_matrix(kind[0], 3)


@st.composite
def weight_functions(draw, matrix, kind=None):
    """Weights constant on conjugacy classes of generators: positive
    rationals, the same with at least one class at zero, lexicographic
    units e_i (0 allowed) in Z^2, or ("equal", never drawn) one positive
    rational for every class; `kind` picks one, else it is drawn."""
    comp = conjugate_generator_components(matrix)
    classes = max(comp) + 1
    kind = kind or draw(st.sampled_from(["rational", "zero", "lex"]))
    if kind == "lex":
        units = draw(st.lists(st.sampled_from([1, 2, None]),
                              min_size=classes, max_size=classes))
        return WeightFunction.from_lex_units([units[c] for c in comp], 2)
    positive = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=3)
    if kind == "equal":
        return WeightFunction.rational([draw(positive)] * len(comp))
    values = draw(st.lists(positive, min_size=classes, max_size=classes))
    if kind == "zero":
        values[draw(st.integers(0, classes - 1))] = 0
    return WeightFunction.rational([values[c] for c in comp])


@st.composite
def algebras(draw, kind=None):
    matrix = draw(coxeter_matrices())
    return HeckeAlgebra(build_group(matrix), draw(weight_functions(matrix, kind)))


@settings(max_examples=8, deadline=None, database=None)
@given(algebras())
def test_hecke_relations(alg):
    """Acting on every T_w: T_s^2 = 1 + (v^L(s) - v^-L(s)) T_s, and
    T_s T_t T_s ... = T_t T_s T_t ... (m_st factors a side) for s != t."""
    W = alg.group
    T = [t_basis(alg, W.generator(s)) for s in range(W.rank)]
    gap = [sub(LaurentElt.v_power(L), LaurentElt.v_power(-L)) for L in alg.weights]
    for w in range(len(W)):
        h = t_basis(alg, w)
        for s in range(W.rank):
            ts_h = multiply(alg, T[s], h)
            assert equal(multiply(alg, T[s], ts_h),
                         add(h, scale(gap[s], ts_h))), (W.gen_names[s], W.name(w))
            for t in range(s + 1, W.rank):
                left = right = h
                for i in range(W.matrix.entries[s][t]):
                    left = multiply(alg, T[(s, t)[i % 2]], left)
                    right = multiply(alg, T[(t, s)[i % 2]], right)
                assert equal(left, right), (W.gen_names[s], W.gen_names[t], W.name(w))


@settings(max_examples=8, deadline=None, database=None)
@given(algebras())
def test_kl_table_matches_brute_oracle_and_reference(alg):
    table = kl_basis(alg)
    W, rows = alg.group, c_rows(table)
    brute = brute_kl_expansions(alg)
    for w in range(len(W)):
        assert equal(rows[w], brute[w]), W.name(w)
    for s in range(W.rank):
        for w in range(len(W)):
            assert equal(table.cs_product_in_c(s, w), cs_product_reference(alg, rows, s, w)), (
                W.gen_names[s], W.name(w))


def stored_part(alg, rows):
    """The part of the rows {y: p_(y,w)} that the KL cache stores, as its
    `c_basis`: the rows of the orbit representatives, each with the y != w
    that have sy < y for every s in L(w) and ys < y for every s in R(w),
    with L(s) > 0, keyed by index."""
    W = alg.group
    out = {}
    for w in orbit_representatives(W, alg.weights):
        left = [s for s in W.left_descents(w) if alg.weights[s].sign() > 0]
        right = [s for s in W.left_descents(W.inv(w)) if alg.weights[s].sign() > 0]
        out[str(w)] = {str(y): c.render() for y, c in rows[w].items()
                       if y != w and all(W.lmul_gen(s, y) < y for s in left)
                       and all(W.mul(y, W.generator(s)) < y for s in right)}
    return out


@pytest.mark.parametrize("kind", ["rational", "zero", "lex", "equal"])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_packed_construction_matches_dict_ring(kind, data):
    """The packed kl_basis and the dict ring (the construction of a slot
    box too wide to pack, with unequal weights a full cancellation on
    every ascent pair) both
    hold the brute-force solver's extremal coefficients, and give the
    same C_s C_w for every pair; with equal weights both derive the
    corrections from their stored part.  Both write the same KL cache,
    which loads back to the same table."""
    alg = data.draw(algebras(kind))
    if kind == "equal":
        assert alg.equal_parameters
    table = kl_basis(alg)
    terms = _construct_terms(alg)
    W = alg.group
    text = terms.to_cache_text()
    assert text == table.to_cache_text()
    assert json.loads(text)["c_basis"] == stored_part(alg, brute_kl_expansions(alg))
    for w in range(len(W)):
        for s in range(W.rank):
            assert (table.cs_product_in_c(s, w) == terms.cs_product_in_c(s, w)
                    ), (W.gen_names[s], W.name(w))
    loaded = KLTable.from_json_dict(json.loads(text), alg)
    assert loaded.to_json_dict() == table.to_json_dict()


@pytest.mark.parametrize("kind", ["rational", "zero", "lex", "equal"])
@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
def test_inverse_symmetry_and_ascent_corrections(kind, data):
    """For each kind of weights: p_(g(y),g(w)) = p_(y,w) for every (y, w)
    of the brute-force solver and every symmetry g of the algebra, w^-1
    first, then its diagram automorphisms, of whose rows kl_basis holds
    the stored part, and every ascent correction m_y of C_s C_u = C_su +
    sum_y m_y C_y in kl_basis is nonzero and bar-invariant, at a y with
    sy < y shorter than su."""
    alg = data.draw(algebras(kind))
    table = kl_basis(alg)
    W = alg.group
    brute = brute_kl_expansions(alg)
    assert alg.symmetries[0] == [W.inv(w) for w in range(len(W))]
    for g in alg.symmetries:
        for w in range(len(W)):
            assert equal({g[y]: c for y, c in brute[w].items()}, brute[g[w]]), W.name(w)
    assert json.loads(table.to_cache_text())["c_basis"] == stored_part(alg, brute)
    for s in range(W.rank):
        if not alg.weights[s].sign() > 0:
            continue
        for u in range(len(W)):
            su = W.lmul_gen(s, u)
            if su < u:
                continue
            prod = dict(table.cs_product_in_c(s, u))
            assert prod.pop(su) == alg.one_coeff()
            for y, m in prod.items():
                label = (W.gen_names[s], W.name(u), W.name(y))
                assert m and m.bar() == m, label
                assert W.lmul_gen(s, y) < y and W.length(y) < W.length(su), label


@pytest.mark.parametrize("kind", ["rational", "zero", "lex", "equal"])
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_extremal_identity_and_cache_round_trip(kind, data):
    """p_(y,w) = v^-L(s) p_(sy,w) for s in L(w), L(s) > 0, sy > y, of the
    brute-force solver; the cache keeps exactly its extremal
    coefficients of the rows of the orbit representatives, but p_(w,w),
    one key per ascent pair holding its corrections with unequal
    parameters and none with equal ones, and loads back to the same table,
    for each kind of weights (the rows are derived by exponent key shifts,
    on lex keys and on grids of scale above 1 too)."""
    alg = data.draw(algebras(kind))
    table = kl_basis(alg)
    W = alg.group
    doc = json.loads(table.to_cache_text())
    brute = brute_kl_expansions(alg)
    for w in range(len(W)):
        row = brute[w]
        desc = [s for s in W.left_descents(w) if alg.weights[s].sign() > 0]
        for s in desc:
            shift = LaurentElt.v_power(-alg.weights[s])
            for y in range(len(W)):
                sy = W.lmul_gen(s, y)
                if sy > y:
                    if sy in row:
                        assert row.get(y) == shift * row[sy], (W.name(w), s, W.name(y))
                    else:
                        assert y not in row, (W.name(w), s, W.name(y))
    assert doc["c_basis"] == stored_part(alg, brute)
    ascents = {}
    for s in range(W.rank):
        for u in range(len(W)):
            su = W.lmul_gen(s, u)
            if alg.weights[s].sign() > 0 and su > u:
                corrections = table.cs_product_in_c(s, u)
                ascents[f"{W.gen_names[s]}|{u}"] = {
                    str(y): m.render() for y, m in corrections.items() if y != su}
    assert doc["cs_products"] == ({} if alg.equal_parameters else ascents)
    loaded = KLTable.from_json_dict(doc, alg)
    loaded_rows, rows = c_rows(loaded), c_rows(table)
    for w in range(len(W)):
        assert equal(loaded_rows[w], rows[w]), W.name(w)
        for s in range(W.rank):
            assert equal(loaded.cs_product_in_c(s, w), table.cs_product_in_c(s, w))
    assert loaded.to_json_dict() == table.to_json_dict()


@settings(max_examples=8, deadline=None, database=None)
@given(algebras())
def test_cell_invariants(alg):
    """The left cell characters sum to the regular character, every left
    and every right cell lies in one two-sided cell, the right cells and
    their order are the inverses of the left ones, and each partition's
    Hasse diagram is the transitive reduction of reachability between its
    blocks."""
    table = kl_basis(alg)
    W = alg.group
    chars = character_table(W)
    graph = left_preorder(table)
    left = cells(graph, "left", W)
    right = _inverted(left, W)
    two_sided = cells(graph, "two-sided", W)
    total = [0] * len(chars.rows)
    values = [0] * len(chars.classes.blocks)
    for block in left.blocks:
        cc = left_cell_character(table, block, chars)
        total = [a + b for a, b in zip(total, cc.multiplicities)]
        values = [a + b for a, b in zip(values, cc.values)]
        assert len({two_sided.block_of[w] for w in block}) == 1, block
    for block in right.blocks:
        assert len({two_sided.block_of[w] for w in block}) == 1, block
    assert total == chars.degrees
    assert from_integers(chars, values) == regular_character(chars)
    assert {frozenset(b) for b in right.blocks} == {frozenset(W.inv(w) for w in b)
                                                    for b in left.blocks}
    left_edges = [(w, y) for w in range(len(W)) for y in graph.succ[w]]
    right_edges = [(W.inv(w), W.inv(y)) for w, y in left_edges]
    orders = {}
    for kind, p, edges in (("left", left, left_edges), ("right", right, right_edges),
                           ("two-sided", two_sided, left_edges + right_edges)):
        order = block_reach(p, edges)
        reduction = {(a, b) for a, b in order
                     if not any((a, c) in order and (c, b) in order
                                for c in range(len(p.blocks)))}
        assert sorted(p.hasse) == sorted(reduction), kind
        orders[kind] = order
    to_right = [right.block_of[W.inv(b[0])] for b in left.blocks]
    assert orders["right"] == {(to_right[a], to_right[b]) for a, b in orders["left"]}


def block_reach(p, edges):
    """Pairs (a, b) of distinct blocks of `p` with b reachable from a along
    the element edges w -> y, by a search from each block."""
    direct = [set() for _ in p.blocks]
    for w, y in edges:
        direct[p.block_of[w]].add(p.block_of[y])
    order = set()
    for a in range(len(p.blocks)):
        seen, todo = {a}, [a]
        while todo:
            for c in direct[todo.pop()] - seen:
                seen.add(c)
                todo.append(c)
        order |= {(a, b) for b in seen if b != a}
    return order
