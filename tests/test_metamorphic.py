"""Relations between the outputs of two inputs, checked through the whole
pipeline (spec parse, KL basis, cells, cell characters, JSON) with no
oracle.

* Scaling: the weights cL give the cells and cell characters of L, and
  the `klbasis` entries of L with every exponent times c.
* Lex to rational: B3 with lex weights (e_2, e_2, e_1) lies in the
  asymptotic chamber of (1, 1, N) for N > 2, so e_1 -> N, e_2 -> 1 maps
  its `klbasis` entries to those of (1, 1, N) and its cells are theirs;
  likewise (e_1, e_1, e_2) and (N, N, 1) (Bonnafe and Iancu, "Left cells
  in type B_n with unequal parameters", Represent. Theory 7 (2003)).

Only the `group` and `key` fields name the weights, so every other field
must agree.
"""

import json

import pytest

from api_helpers import laurent_from_terms, laurent_terms
from klcells.cli import main
from klcells.ordered_coeffs import LaurentElt, OrderedExponent

F4_MATRIX = "group matrix\n4\n3 2 2\n4 2\n3\n"


def weighted(head, weights, lex=False):
    """The spec `head` with the weights, in generator order s, t, u, v."""
    style = "L lex" if lex else "L"
    return head + "".join(f"{style} {g} = {x}\n" for g, x in zip("stuv", weights))


def run(capsys, tmp_path, command, spec):
    path = tmp_path / "in.spec"
    path.write_text(spec, encoding="utf-8")
    code = main([command, str(path), "--no-cache"])
    out = capsys.readouterr()
    assert (code, out.err) == (0, ""), out.err
    return json.loads(out.out)


CELL_PAIRS = {
    "B3 (1,1,3/2) ~ (2,2,3)": (weighted("group B 3\n", ["1", "1", "3/2"]),
                               weighted("group B 3\n", ["2", "2", "3"])),
    "B4 (1,1,1,2) ~ (3,3,3,6)": (weighted("group B 4\n", ["1", "1", "1", "2"]),
                                 weighted("group B 4\n", ["3", "3", "3", "6"])),
    "F4 (1,1,2,2) ~ (1/2,1/2,1,1)": (weighted(F4_MATRIX, ["1", "1", "2", "2"]),
                                     weighted(F4_MATRIX, ["1/2", "1/2", "1", "1"])),
    "B3 lex (e2,e2,e1) ~ (1,1,5)": (weighted("group B 3\n", ["e_2", "e_2", "e_1"], lex=True),
                                    weighted("group B 3\n", ["1", "1", "5"])),
    "B3 lex (e1,e1,e2) ~ (5,5,1)": (weighted("group B 3\n", ["e_1", "e_1", "e_2"], lex=True),
                                    weighted("group B 3\n", ["5", "5", "1"])),
}


@pytest.mark.parametrize("pair", CELL_PAIRS.values(), ids=CELL_PAIRS)
def test_cells_agree_apart_from_the_weights(pair, tmp_path, capsys):
    a, b = (run(capsys, tmp_path, "cells", spec) for spec in pair)
    assert a["group"]["weights"] != b["group"]["weights"]
    for doc in (a, b):
        del doc["group"], doc["key"]
    assert a == b


def entries(doc):
    """{(section, w, y): coefficient text} over `c_basis` and `cs_products`."""
    return {(section, w, y): text for section in ("c_basis", "cs_products")
            for w, row in doc[section].items() for y, text in row.items()}


def assert_entries_map(source, target, phi, count):
    """Every `klbasis` entry of `target` is that of `source` with each
    exponent e replaced by the rational phi(e), and there are `count`."""
    mode, arity = source["mode"], source["arity"]
    want = entries(target)
    got = entries(source)
    assert set(got) == set(want) and len(want) == count
    for k, text in got.items():
        x = LaurentElt.parse(text, mode, arity)
        image = laurent_from_terms([(OrderedExponent.rational(phi(e.value)), c)
                                    for e, c in laurent_terms(x)])
        assert image == LaurentElt.parse(want[k]), (k, text, want[k])


def test_klbasis_scales_with_the_weights(tmp_path, capsys):
    half = run(capsys, tmp_path, "klbasis", weighted("group B 3\n", ["1", "1", "3/2"]))
    whole = run(capsys, tmp_path, "klbasis", weighted("group B 3\n", ["2", "2", "3"]))
    assert_entries_map(half, whole, lambda e: 2 * e[0], 1039)


def test_lex_klbasis_maps_into_its_chamber(tmp_path, capsys):
    lex = run(capsys, tmp_path, "klbasis",
              weighted("group B 3\n", ["e_2", "e_2", "e_1"], lex=True))
    for n in (3, 5, 20):
        rational = run(capsys, tmp_path, "klbasis",
                       weighted("group B 3\n", ["1", "1", str(n)]))
        assert_entries_map(lex, rational, lambda e: n * e[0] + e[1], 1037)
