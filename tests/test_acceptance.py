"""Acceptance suite: one test per criterion, exact assertions throughout.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints
one ACCEPTANCE n PASS/FAIL line per criterion.
"""

import json
import os
import random
import shutil
import time
from fractions import Fraction
from pathlib import Path

from api_helpers import c_rows
from hecke_reference import bar, equal
from mn_oracle import coxeter_class_cycle_types, symmetric_group_table
from rs_oracle import rs_left_cell_partition
from klcells.cells import cells, left_cell_character, left_preorder
from klcells.characters import character_table, verify_orthogonality
from klcells.cherednik_rank1 import (AlgebraElt, Rank1Params, cm_multiplicities,
                                     euler_element, inertia_and_cells,
                                     is_central, verify_presentation)
from klcells.conjecture import (B2_REGIME_POINTS, MATCH, b2_regime_report,
                                check_rank1_vs_a1, store_snapshot)
from klcells.coxeter import WeightFunction, build_group, named_coxeter_matrix
from klcells.hecke import HeckeAlgebra, kl_basis

# The committed B2 snapshots; the test compares against a copy and never
# writes here, so a missing golden fails instead of re-baselining.
B2_GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "b2"

# (kind, n, weight vectors to test): equal weights everywhere, plus two
# unequal regimes wherever the generator classes allow them.
KL_CASES = [
    ("A", 2, [[1, 1]]),
    ("A", 3, [[1, 1, 1]]),
    ("B", 2, [[1, 1], [1, 2], [2, 1]]),
    ("B", 3, [[1, 1, 1], [1, 1, 2], [2, 2, 1]]),
    ("I2", 3, [[1, 1]]),
    ("I2", 4, [[1, 1], [1, 3], [3, 1]]),
    ("I2", 5, [[2, 2]]),
    ("I2", 6, [[1, 1], [1, 2], [3, 1]]),
    ("I2", 7, [[1, 1]]),
    ("I2", 8, [[1, 1], [2, 1], [1, 4]]),
]


def build_table(kind, n, weights):
    W = build_group(named_coxeter_matrix(kind, n))
    alg = HeckeAlgebra(W, WeightFunction.rational(weights))
    return alg, kl_basis(alg)


def test_criterion_1_kl_defining_properties():
    start = time.monotonic()
    checked = 0
    for kind, n, weight_sets in KL_CASES:
        for weights in weight_sets:
            alg, table = build_table(kind, n, weights)
            W = alg.group
            for w, exp in enumerate(c_rows(table)):
                assert equal(bar(alg, exp), exp), (kind, n, weights, W.name(w))
                assert exp[w] == alg.one_coeff()
                for y, coeff in exp.items():
                    if y == w:
                        continue
                    neg, const, pos = coeff.split_by_sign()
                    assert const == 0 and not pos, (kind, n, weights,
                                                    W.name(w), W.name(y))
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"took {elapsed:.1f}s, budget is 2 minutes"
    assert checked > 300  # every element of every case was verified


def test_criterion_2_type_a_robinson_schensted_oracle():
    for n, expected_cells in ((2, 4), (3, 10)):
        W = build_group(named_coxeter_matrix("A", n))
        alg = HeckeAlgebra(W, WeightFunction.rational([1] * n))
        table = kl_basis(alg)
        left = cells(left_preorder(table), "left", W)
        assert len(left.blocks) == expected_cells
        assert {frozenset(b) for b in left.blocks} == rs_left_cell_partition(W)


CELL_SUM_CASES = [
    ("A", 1, [0]),
    ("A", 2, [1, 1]),
    ("A", 3, [1, 1, 1]),
    ("B", 2, [1, 1]),
    ("B", 2, [1, 2]),
    ("B", 2, [2, 1]),
    ("B", 3, [1, 1, 1]),
    ("B", 3, [1, 1, 3]),
    ("I2", 5, [1, 1]),
    ("I2", 6, [1, 3]),
    ("I2", 8, [2, 1]),
]


def test_criterion_3_cell_character_sum_is_regular():
    for kind, n, weights in CELL_SUM_CASES:
        alg, table = build_table(kind, n, weights)
        W = alg.group
        chars = character_table(W)
        left = cells(left_preorder(table), "left", W)
        classes = W.conjugacy_classes()
        total = [0] * len(classes)
        for block in left.blocks:
            cc = left_cell_character(table, block, chars)
            assert all(m >= 0 for m in cc.multiplicities), (kind, n, weights)
            total = [a + b for a, b in zip(total, cc.values)]
        assert total == [len(W)] + [0] * (len(classes) - 1), (kind, n, weights)


def test_criterion_4_rank1_presentation_and_centrality():
    rng = random.Random(20240800)
    for d in (2, 3, 4):
        for _ in range(20):
            c = [Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                 for _ in range(d - 1)]
            params = Rank1Params.from_c(d, c)
            assert verify_presentation(params) is None, (d, c)
            assert is_central(euler_element(params), params), (d, c)
            assert is_central(AlgebraElt.monomial(params, d, 0, 0), params), (d, c)
            assert is_central(AlgebraElt.monomial(params, 0, d, 0), params), (d, c)


def test_criterion_5_rank1_cells_and_multiplicities():
    rng = random.Random(5150)
    for d in (2, 3, 4, 5, 6):
        for _ in range(12):
            c = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(d - 1)]
            params = Rank1Params.from_c(d, c)
            # inertia_and_cells computes the partition both as inertia orbits
            # and by kappa equality and asserts agreement internally.
            data = inertia_and_cells(params)
            assert len(data.cells) == len(data.fiber), (d, c)
            mult = cm_multiplicities(data)
            for j in range(d):
                total = sum(mult[(idx, j)] for idx in range(len(data.cells)))
                assert total == 1, (d, c, j)


def test_criterion_6_conjecture_at_d2():
    for c in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3),
              Fraction(7, 5)):
        report = check_rank1_vs_a1(c)
        assert report["verdict"] == MATCH, (str(c), report)


def test_criterion_7_b2_regimes(tmp_path):
    snapshots = tmp_path / "b2"
    shutil.copytree(B2_GOLDEN_DIR, snapshots)
    partitions_by_regime = {}
    for regime, points in B2_REGIME_POINTS.items():
        for a, b in points:
            rep = b2_regime_report(a, b)
            assert rep["regime"] == regime
            blocks = rep["left_cells"]["blocks"]
            assert sum(len(b) for b in blocks) == 8
            # Every left cell lies inside one two-sided cell.
            two_sided = [set(b) for b in rep["two_sided_cells"]["blocks"]]
            assert all(any(set(b) <= t for t in two_sided) for b in blocks)
            for entry in rep["cell_characters"]:
                assert all(m >= 0 for m in entry["multiplicities"])
            partitions_by_regime.setdefault(regime, set()).add(
                json.dumps(blocks, sort_keys=True))
            status = store_snapshot(rep, str(snapshots))
            assert status == "match", (regime, str(a), str(b), status)
    assert len(os.listdir(snapshots)) == sum(len(pts) for pts in B2_REGIME_POINTS.values())
    for regime in ("b<a", "a<b<2a", "b>2a"):
        assert len(B2_REGIME_POINTS[regime]) >= 3
        assert len(partitions_by_regime[regime]) == 1, regime


CHAR_TABLE_GROUPS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                     ("I2", 3), ("I2", 4), ("I2", 5), ("I2", 6), ("I2", 7),
                     ("I2", 8)]


def test_criterion_8_character_tables():
    for kind, n in CHAR_TABLE_GROUPS:
        W = build_group(named_coxeter_matrix(kind, n))
        table = character_table(W)
        assert verify_orthogonality(table), (kind, n)
    # independent Murnaghan-Nakayama oracle for type A, n <= 3
    for rank in (1, 2, 3):
        W = build_group(named_coxeter_matrix("A", rank))
        table = character_table(W)
        mn = symmetric_group_table(rank + 1)
        types = coxeter_class_cycle_types(W)
        got = {frozenset((mu, int(v.to_fraction())) for mu, v in zip(types, row))
               for row in table.rows}
        expected = {frozenset(values.items()) for values in mn.values()}
        assert got == expected, rank
