import json
import os
import stat
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import klcells.conjecture
from klcells.characters import character_table
from klcells.cli import main
from klcells.conjecture import (B2_REGIME_POINTS, MATCH, MISMATCH, REPORT_CHUNK,
                                b2_regime_report, check_rank1_vs_a1,
                                classify_b2_regime, emit_report,
                                replace_file, run_conjecture_suite,
                                store_snapshot, write_report)
from klcells.coxeter import build_group, named_coxeter_matrix


def test_degenerate_point_matches():
    r = check_rank1_vs_a1(Fraction(0))
    assert r["verdict"] == MATCH
    assert r["kl_left_cells"] == [["e", "s"]]
    assert r["cm"]["cells"] == [["s^0", "s^1"]]
    # single cell carries triv + sign = the regular character
    assert list(r["cm_cell_characters"].values()) == [[2, 0]]
    assert r["per_cell_character_agreement"] is True


@pytest.mark.parametrize("c", [Fraction(1), Fraction(1, 2), Fraction(3),
                               Fraction(7, 5)])
def test_positive_points_match(c):
    r = check_rank1_vs_a1(c)
    assert r["verdict"] == MATCH
    assert r["cells_verdict"] == MATCH
    assert r["characters_verdict"] == MATCH
    # two singleton cells on both sides
    assert sorted(map(sorted, r["kl_left_cells"])) == [["e"], ["s"]]
    assert sorted(map(sorted, r["cm"]["cells"])) == [["s^0"], ["s^1"]]
    # the character multisets coincide (triv and sign, one cell each)
    assert sorted(r["cm_cell_characters"].values()) == sorted(
        r["kl_cell_characters"].values()) == [[1, -1], [1, 1]]


def test_negative_c_rejected():
    with pytest.raises(ValueError):
        check_rank1_vs_a1(Fraction(-1))


def merge_left_cells(report):
    report["left_cells"]["blocks"] = [sum(report["left_cells"]["blocks"], [])]


def change_one_character(report):
    report["cell_characters"][0]["values"]["e"] += 1


@pytest.mark.parametrize("corrupt, cells_verdict, characters_verdict", [
    (merge_left_cells, MISMATCH, MATCH),
    (change_one_character, MATCH, MISMATCH),
], ids=["merged-left-cell", "changed-character"])
def test_disagreeing_kl_side_reports_mismatch(monkeypatch, capsys, corrupt,
                                               cells_verdict, characters_verdict):
    """The A1 check compares the CM side with the `cells_report` it is given:
    a KL side that disagrees is a MISMATCH, and `conjecture` exits 2."""
    real = klcells.conjecture.cells_report

    def corrupted(*args):
        report = real(*args)
        corrupt(report)
        return report

    monkeypatch.setattr(klcells.conjecture, "cells_report", corrupted)
    r = check_rank1_vs_a1(Fraction(1))
    assert (r["cells_verdict"], r["characters_verdict"], r["verdict"]) == (
        cells_verdict, characters_verdict, MISMATCH)
    assert r["per_cell_character_agreement"] is False
    assert main(["conjecture", "--no-b2"]) == 2
    assert capsys.readouterr().err == (
        "internal invariant violation: rank-1 vs A1 comparison returned MISMATCH\n")


def test_classify_regimes():
    assert classify_b2_regime(Fraction(2), Fraction(1)) == "b<a"
    assert classify_b2_regime(Fraction(1), Fraction(1)) == "b=a"
    assert classify_b2_regime(Fraction(2), Fraction(3)) == "a<b<2a"
    assert classify_b2_regime(Fraction(1), Fraction(2)) == "b=2a"
    assert classify_b2_regime(Fraction(1), Fraction(5)) == "b>2a"


def test_b2_equal_parameters_partition():
    rep = b2_regime_report(Fraction(1), Fraction(1))
    blocks = sorted(map(sorted, rep["left_cells"]["blocks"]))
    assert len(blocks) == 4
    assert ["e"] in blocks and ["s t s t"] in blocks
    # the two middle blocks are the same-right-descent sets
    middles = [b for b in blocks if len(b) == 3]
    assert sorted(map(sorted, middles)) == [
        sorted(["s", "t s", "s t s"]), sorted(["t", "s t", "t s t"])]
    assert rep["regime"] == "b=a"


def test_b2_all_regimes_complete_and_refine():
    for regime, points in B2_REGIME_POINTS.items():
        for a, b in points:
            rep = b2_regime_report(a, b)
            assert rep["regime"] == regime
            for entry in rep["cell_characters"]:
                assert all(m >= 0 for m in entry["multiplicities"])


def test_b2_partition_constant_within_open_regimes():
    for regime in ("b<a", "a<b<2a", "b>2a"):
        partitions = set()
        for a, b in B2_REGIME_POINTS[regime]:
            rep = b2_regime_report(a, b)
            partitions.add(json.dumps(rep["left_cells"]["blocks"], sort_keys=True))
        assert len(partitions) == 1, regime


def test_positive_parameters_required():
    with pytest.raises(ValueError):
        b2_regime_report(Fraction(0), Fraction(1))


def test_emit_report_stable_and_empty_ok():
    assert emit_report({}) == "{}\n"
    doc = {"b": 1, "a": 2}
    text = emit_report(doc)
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == doc


class RecordingSink:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# JSON-like documents without floats, whose strings need escapes: quotes,
# backslashes, control and non-ASCII characters.
json_strings = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé€😀'),
                                 st.characters()))
json_docs = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 40, 10 ** 40),
              json_strings),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None, database=None)
@given(json_docs, st.integers(1, 64))
@example({}, 1)
@example([[[]]], 1)
@example({"a": {}, "b": [[], {}], "": None}, 1)
def test_written_pieces_join_to_the_canonical_text(doc, chunk):
    sink = RecordingSink()
    write_report(doc, sink, chunk)
    assert "".join(sink.writes) == _canonical(doc)
    assert emit_report(doc) == _canonical(doc)


@cache
def b4_characters_doc():
    return character_table(build_group(named_coxeter_matrix("B", 4))).to_json_dict()


@pytest.mark.parametrize("chunk", [1, 100, 4096])
def test_report_is_written_in_bounded_pieces(chunk):
    doc = b4_characters_doc()
    tokens = list(json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc))
    sink = RecordingSink()
    write_report(doc, sink, chunk)
    assert len(sink.writes) > 1
    assert max(map(len, sink.writes)) <= chunk + max(map(len, tokens))
    assert "".join(sink.writes) == _canonical(doc)


def test_report_smaller_than_a_chunk_is_one_write():
    doc = b4_characters_doc()
    assert len(_canonical(doc)) < REPORT_CHUNK
    sink = RecordingSink()
    write_report(doc, sink)
    assert sink.writes == [_canonical(doc)]


def test_zero_coefficients_are_one_string():
    zeros = [text for row in b4_characters_doc()["irreducibles"]
             for value in row for text in value if text == "0"]
    assert len(zeros) > 1
    assert all(text is zeros[0] for text in zeros)


def test_snapshots_roundtrip(tmp_path):
    rep = b2_regime_report(Fraction(1), Fraction(3))
    d = str(tmp_path / "reports")
    assert store_snapshot(rep, d) == "created"
    assert store_snapshot(rep, d) == "match"
    # drift detection on content change
    tampered = dict(rep)
    tampered["left_cells"] = {"blocks": [["e"]], "hasse": []}
    assert store_snapshot(tampered, d) == "drift"
    assert store_snapshot(tampered, d, update=True) == "created"
    assert store_snapshot(tampered, d) == "match"


def test_run_conjecture_suite(tmp_path):
    doc = run_conjecture_suite(
        [Fraction(0), Fraction(1)],
        b2_points={"b=a": [(Fraction(1), Fraction(1))]},
        reports_dir=str(tmp_path / "reports"))
    assert doc["verdict"] == MATCH
    assert doc["b2_regimes"][0]["snapshot"] == "created"
    assert doc["b2_partition_constant_per_regime"] == {"b=a": True}


def test_replace_file_closes_its_temp_file_when_chmod_fails(tmp_path, monkeypatch):
    """A step before the write fails: the temporary file is closed and
    removed, and the error reaches the caller."""
    target = tmp_path / "out.json"

    def refuse(*args):
        raise PermissionError("chmod refused")

    fds = "/proc/self/fd"
    open_before = sorted(os.listdir(fds)) if os.path.isdir(fds) else None
    with monkeypatch.context() as patch:
        patch.setattr(os, "fchmod", refuse)
        for _ in range(5):
            with pytest.raises(OSError):
                replace_file(str(target), lambda fh: fh.write("x"))
    if open_before is not None:
        assert sorted(os.listdir(fds)) == open_before
    assert list(tmp_path.iterdir()) == []

    replace_file(str(target), lambda fh: fh.write("x"))
    umask = os.umask(0)
    os.umask(umask)
    assert target.read_text(encoding="utf-8") == "x"
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
