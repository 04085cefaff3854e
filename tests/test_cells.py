import json
from fractions import Fraction

import pytest

from api_helpers import longest_element, right_descents
from cells_reference import (column_norm, specialized_generator_action,
                             word_matrix)
from rs_oracle import rs_left_cell_partition
import klcells.cells
from klcells.cells import (CellPartition, PreorderGraph, cells,
                           cells_report, check_refinement,
                           left_cell_character, left_preorder)
from klcells.characters import character_table
from klcells.coxeter import WeightFunction, build_group, named_coxeter_matrix
from klcells.cli import main
from klcells.hecke import HeckeAlgebra, kl_basis
from klcells.specfile import parse_spec


def pipeline(kind, n, weights):
    W = build_group(named_coxeter_matrix(kind, n))
    alg = HeckeAlgebra(W, WeightFunction.rational(weights))
    table = kl_basis(alg)
    graph = left_preorder(table)
    return W, table, graph


def blocks_as_names(group, partition):
    return sorted(sorted(group.name(w) for w in b) for b in partition.blocks)


def test_a1_positive_weight_cells():
    W, table, graph = pipeline("A", 1, [1])
    left = cells(graph, "left", W)
    assert blocks_as_names(W, left) == [["e"], ["s"]]
    # Edge set: e -> s (C_s C_e = C_s), s -> s (descent loop), plus the
    # reflexive closure.
    assert graph.succ[0] == {0, 1}
    assert graph.succ[1] == {1}


def test_zero_weights_single_cell():
    for kind, n in [("A", 1), ("A", 2), ("I2", 4)]:
        W = build_group(named_coxeter_matrix(kind, n))
        alg = HeckeAlgebra(W, WeightFunction.rational([0] * W.rank))
        table = kl_basis(alg)
        graph = left_preorder(table)
        left = cells(graph, "left", W)
        assert len(left.blocks) == 1
        two = cells(graph, "two-sided", W)
        assert check_refinement(left, two) is None


def test_dihedral_cells_from_descent_sets():
    # I2(m) with equal positive weights: the left cells are {e}, {w0} and
    # the other elements split by right descent set, {s} or {t}; the
    # two-sided cells are {e}, {w0} and the rest (Lusztig, Hecke algebras
    # with unequal parameters, ch. 8).  Built from descent sets alone.
    for m in range(3, 13):
        W, table, graph = pipeline("I2", m, [1, 1])
        e, w0 = W.identity, longest_element(W)
        middle = [w for w in range(len(W)) if w not in (e, w0)]
        by_descent = {}
        for w in middle:
            by_descent.setdefault(tuple(right_descents(W, w)), set()).add(w)
        assert sorted(by_descent) == [(0,), (1,)], m
        ends = {frozenset([e]), frozenset([w0])}
        left = ends | {frozenset(b) for b in by_descent.values()}
        assert cells(graph, "left", W).as_sets() == left, m
        assert cells(graph, "two-sided", W).as_sets() == ends | {frozenset(middle)}, m


def test_every_element_has_loop():
    W, table, graph = pipeline("A", 2, [1, 1])
    for w in range(len(W)):
        assert w in graph.succ[w]


def test_no_edge_down_to_identity_when_positive():
    # Snapshot observation, not a theorem: with L > 0 nothing reaches e.
    W, table, graph = pipeline("B", 2, [1, 2])
    for w in range(len(W)):
        if w != W.identity:
            assert W.identity not in graph.succ[w]


def test_s3_left_cells_match_robinson_schensted():
    W, table, graph = pipeline("A", 2, [1, 1])
    left = cells(graph, "left", W)
    assert left.as_sets() == rs_left_cell_partition(W)
    assert blocks_as_names(W, left) == sorted([
        ["e"], ["s t s"], ["s", "t s"], ["s t", "t"]])


def test_s4_left_cells_match_robinson_schensted():
    W, table, graph = pipeline("A", 3, [1, 1, 1])
    left = cells(graph, "left", W)
    assert len(left.blocks) == 10
    assert left.as_sets() == rs_left_cell_partition(W)


def test_s5_left_cells_match_robinson_schensted():
    # 26 cells = number of standard tableaux pairs with equal recording
    # tableau = number of involutions of S5.
    W, table, graph = pipeline("A", 4, [1, 1, 1, 1])
    left = cells(graph, "left", W)
    assert len(left.blocks) == 26
    assert left.as_sets() == rs_left_cell_partition(W)


def test_b2_equal_parameter_two_sided_cells():
    W, table, graph = pipeline("I2", 4, [1, 1])
    two = cells(graph, "two-sided", W)
    assert blocks_as_names(W, two) == sorted([
        ["e"],
        sorted(["s", "t", "s t", "t s", "s t s", "t s t"]),
        ["s t s t"]])


def test_right_cells_are_inverted_left_cells():
    W, table, graph = pipeline("B", 2, [1, 2])
    left = cells(graph, "left", W)
    right = cells(graph, "right", W)
    inverted = {frozenset(W.inv(w) for w in b) for b in left.blocks}
    assert right.as_sets() == inverted


@pytest.mark.parametrize("kind,n,weights", [
    ("A", 4, [1, 1, 1, 1]), ("B", 3, [1, 1, 2]), ("D", 4, [1, 1, 1, 1])])
def test_right_cells_match_a_search_of_the_inverted_graph(kind, n, weights):
    """The right cells, relabelled from the left ones, are the left cells
    of the inverted graph found by their own search: the same blocks,
    block of each element and Hasse diagram.  On these groups the
    relabelling moves block indices."""
    W, table, graph = pipeline(kind, n, weights)
    inverted = PreorderGraph(graph.size, [set() for _ in range(graph.size)])
    for w, ys in enumerate(graph.succ):
        inverted.succ[W.inv(w)].update(W.inv(y) for y in ys)
    right, direct = cells(graph, "right", W), cells(inverted, "left", W)
    assert (right.blocks, right.block_of, right.hasse) == (
        direct.blocks, direct.block_of, direct.hasse)


def test_f4_equal_parameter_cells(tmp_path, capsys):
    """`klcells cells` on F4 with L = 1 gives the known 72 left cells and
    11 two-sided cells, one for each of Lusztig's 11 families (Characters
    of reductive groups over a finite field, 1984), and the right cells
    are the inverted left cells."""
    text = "group matrix\n4\n3 2 2\n4 2\n3\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n"
    spec = tmp_path / "f4.spec"
    spec.write_text(text, encoding="utf-8")
    assert main(["cells", str(spec), "--no-cache"]) == 0
    doc = json.loads(capsys.readouterr().out)
    parsed = parse_spec(text)
    W = build_group(parsed.matrix, gen_names=parsed.gen_names)
    index = {W.name(w): w for w in range(len(W))}
    left = doc["left_cells"]["blocks"]
    assert len(W) == 1152
    assert (len(left), len(doc["two_sided_cells"]["blocks"])) == (72, 11)
    assert ({frozenset(W.name(W.inv(index[y])) for y in b) for b in left}
            == {frozenset(b) for b in doc["right_cells"]["blocks"]})


def test_left_refines_two_sided():
    for kind, n, weights in [("A", 2, [1, 1]), ("A", 3, [1, 1, 1]),
                             ("B", 2, [1, 2]), ("B", 2, [2, 1]),
                             ("I2", 5, [1, 1]), ("I2", 6, [2, 3])]:
        W, table, graph = pipeline(kind, n, weights)
        left = cells(graph, "left", W)
        two = cells(graph, "two-sided", W)
        assert check_refinement(left, two) is None


def test_refinement_violation_detected():
    # Corrupt partitions on purpose: {e,s} left inside split two-sided blocks.
    left = CellPartition([[0, 1], [2]], [0, 0, 1], [])
    two = CellPartition([[0], [1], [2]], [0, 1, 2], [])
    violation = check_refinement(left, two)
    assert violation is not None
    assert violation[0] == [0, 1]


def test_a2_cell_characters():
    W, table, graph = pipeline("A", 2, [1, 1])
    left = cells(graph, "left", W)
    chars = character_table(W)
    by_block = {}
    for block in left.blocks:
        cc = left_cell_character(table, block, chars)
        by_block[tuple(sorted(W.name(w) for w in block))] = block, cc
    # Identity cell carries sign, longest-element cell carries trivial:
    # forced by the strictly-negative correction convention of the basis.
    assert by_block[("e",)][1].values == [1, -1, 1]
    assert by_block[("s t s",)][1].values == [1, 1, 1]
    assert by_block[("s", "t s")][1].values == [2, 0, -1]
    assert by_block[("s t", "t")][1].values == [2, 0, -1]
    # multiplicity vectors are unit vectors here
    for _, cc in by_block.values():
        assert sum(cc.multiplicities) == 1
        assert all(m >= 0 for m in cc.multiplicities)
    # degree equals cell size
    for block, cc in by_block.values():
        assert cc.values[0] == len(block)


def test_cell_character_sum_is_regular():
    for kind, n, weights in [("A", 2, [1, 1]), ("B", 2, [1, 1]),
                             ("B", 2, [1, 2]), ("I2", 6, [3, 1]),
                             ("A", 1, [0]), ("A", 3, [1, 1, 1])]:
        W, table, graph = pipeline(kind, n, weights)
        left = cells(graph, "left", W)
        classes = W.conjugacy_classes()
        total = [0] * len(classes)
        chars = character_table(W)
        for block in left.blocks:
            cc = left_cell_character(table, block, chars)
            total = [a + b for a, b in zip(total, cc.values)]
        expected = [len(W)] + [0] * (len(classes) - 1)
        assert total == expected


@pytest.mark.parametrize("kind, n, weights", [
    ("B", 3, WeightFunction.rational([1, 1, Fraction(3, 2)])),
    ("B", 3, WeightFunction.rational([1, 1, 0])),
    ("B", 3, WeightFunction.from_lex_units([1, 1, 2], 2)),
    ("D", 4, WeightFunction.rational([1, 1, 1, 1])),
    ("I2", 12, WeightFunction.rational([1, 3])),
    ("A", 4, WeightFunction.rational([1, 1, 1, 1])),
])
def test_cell_characters_match_dense_products(kind, n, weights):
    """On every left cell and class, the packed-row character equals the
    trace of the dense product of generator matrices, and every entry of
    that product lies within the product of the generators' row norms
    (of the rows the packed code holds).  The packed products share one
    digit width per cell, 1 + bit_length of the largest of these bounds
    over the words, so every entry of every word's product fits it."""
    W = build_group(named_coxeter_matrix(kind, n))
    table = kl_basis(HeckeAlgebra(W, weights))
    chars = character_table(W)
    words = [W.word(rep) for rep in W.conjugacy_classes().representatives]
    for block in cells(left_preorder(table), "left", W).blocks:
        mats = specialized_generator_action(table, block)
        norms = [column_norm(mat) for mat in mats]
        values, bounds, largest = [], [], 0
        for word in words:
            rho = word_matrix(mats, word)
            bound = 1
            for g in word:
                bound *= norms[g]
            assert all(abs(x) <= bound for row in rho for x in row), (block, word)
            values.append(sum(rho[i][i] for i in range(len(block))))
            bounds.append(bound)
            largest = max(largest, *(abs(x) for row in rho for x in row))
        # A base-2^B digit holds -2^(B-1) .. 2^(B-1) - 1, B the shared width.
        assert largest < 1 << max(bounds).bit_length(), block
        assert left_cell_character(table, block, chars).values == values, block


def test_block_order_on_a1():
    W, table, graph = pipeline("A", 1, [1])
    left = cells(graph, "left", W)
    blocks = blocks_as_names(W, left)
    # block containing s is below the block containing e
    e_block = next(i for i, b in enumerate(left.blocks) if W.identity in b)
    s_block = 1 - e_block
    assert left.hasse == [(e_block, s_block)]


def test_cells_report_shape():
    W, table, graph = pipeline("B", 2, [1, 2])
    chars = character_table(W)
    doc = cells_report(table, chars)
    assert set(doc) >= {"group", "key", "left_cells", "right_cells",
                        "two_sided_cells", "cell_characters"}
    n_elements = sum(len(b) for b in doc["left_cells"]["blocks"])
    assert n_elements == len(W)
    for entry in doc["cell_characters"]:
        assert all(m >= 0 for m in entry["multiplicities"])


F4 = "group matrix\n4\n3 2 2\n4 2\n3\n"
REUSE_SPECS = {
    "B3 lex": ("group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n", 20, 7),
    "B3 (0,0,1)": ("group B 3\nL s = 0\nL t = 0\nL u = 1\n", 8, 4),
    "B4 (1,1,1,2)": ("group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 2\n", 58, 13),
    "D4": ("group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n", 36, 5),
    "H3": ("group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n", 22, 8),
    "A5": ("group A 5\nL s = 1\nL t = 1\nL u = 1\nL v = 1\nL w = 1\n", 76, 6),
    "F4": (F4 + "L s = 1\nL t = 1\nL u = 1\nL v = 1\n", 72, 10),
}


@pytest.fixture(scope="module")
def reuse_tables():
    """name -> (table, character table) for REUSE_SPECS, built once."""
    out = {}
    for name, (text, _, _) in REUSE_SPECS.items():
        spec = parse_spec(text)
        W = build_group(spec.matrix, gen_names=spec.gen_names)
        out[name] = (kl_basis(HeckeAlgebra(W, spec.weights)), character_table(W))
    return out


def report_counting_direct(table, chars, monkeypatch):
    """cells_report and the number of characters it computed directly."""
    calls = []
    direct = klcells.cells.left_cell_character

    def counted(*args):
        calls.append(args[1])
        return direct(*args)

    with monkeypatch.context() as patch:
        patch.setattr(klcells.cells, "left_cell_character", counted)
        doc = cells_report(table, chars)
    return doc, len(calls)


@pytest.mark.parametrize("name", ["B3 lex", "B4 (1,1,1,2)", "D4", "A5", "F4"])
def test_reused_characters_match_direct_computation(name, reuse_tables, monkeypatch):
    """Every left cell's values and multiplicities in `cells_report`, most
    of them reused from another cell along a star operation, a diagram
    automorphism or w -> w w0, equal those `left_cell_character` computes
    for that cell alone.  D4 (triality) and F4 (the flip) reuse along
    diagram automorphisms that move classes, so their values are permuted,
    and every group along w -> w w0, whose values are read at the inverse
    classes with the sign of each class."""
    table, chars = reuse_tables[name]
    W = table.group
    doc, direct = report_counting_direct(table, chars, monkeypatch)
    blocks = cells(left_preorder(table), "left", W).blocks
    assert direct < len(blocks) == len(doc["cell_characters"])
    reps = W.conjugacy_classes().representatives
    for block, entry in zip(blocks, doc["cell_characters"]):
        cc = left_cell_character(table, block, chars)
        assert entry["values"] == {W.name(r): v for r, v in zip(reps, cc.values)}, block
        assert entry["multiplicities"] == cc.multiplicities, block


@pytest.mark.parametrize("name", list(REUSE_SPECS))
def test_characters_computed_directly(name, reuse_tables, monkeypatch):
    """How many left cells `cells_report` computes a character for: one per
    orbit of the left cells under the star operations, the diagram
    automorphisms and w -> w w0, so a map whose rows never match, and
    falls back to the direct computation, changes the count.  B3 (0,0,1)
    has no star operation (L(s) = L(t) = 0) and no diagram automorphism:
    its 8 cells pair up under w -> w w0 alone."""
    _, cells_expected, direct_expected = REUSE_SPECS[name]
    table, chars = reuse_tables[name]
    doc, direct = report_counting_direct(table, chars, monkeypatch)
    assert (len(doc["left_cells"]["blocks"]), direct) == (cells_expected, direct_expected)
