"""`klcells klbasis`, `klcells cells` and `klcells characters` output is
byte-identical to the recorded goldens.

The SHA-256 digests in tests/golden/klbasis_sha256.json,
tests/golden/cells_sha256.json and tests/golden/characters_sha256.json
were taken from the stdout of `klcells klbasis SPEC --no-cache`,
`klcells cells SPEC --no-cache` and `klcells characters SPEC` (which
reads no KL cache, so takes no --no-cache) for the specs below.  Any
change to group enumeration, the KL construction, the coefficient ring,
the cell order, the cell characters, the character tables or the JSON
emitter that moves a single output byte fails here.  The KL cache of each
`klbasis` and `cells` spec loads back, so a warm run on it is a hit.  To
re-record after a deliberate output change:

    PYTHONPATH=src python tests/test_klbasis_golden.py klbasis > tests/golden/klbasis_sha256.json
    PYTHONPATH=src python tests/test_klbasis_golden.py cells > tests/golden/cells_sha256.json
    PYTHONPATH=src python tests/test_klbasis_golden.py characters > tests/golden/characters_sha256.json
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from api_helpers import c_rows
from klcells.cli import main
from klcells.coxeter import build_group
from klcells.hecke import HeckeAlgebra, KLTable, _cancel_terms, kl_basis
from klcells.ordered_coeffs import LaurentElt
from klcells.specfile import parse_spec

GOLDEN_DIR = Path(__file__).parent / "golden"

SPECS = {
    "A3": "group A 3\nL s = 1\nL t = 1\nL u = 1\n",
    "H3": "group matrix\n3\n5 2\n3\nL s = 1\nL t = 1\nL u = 1\n",
    "B3_1_1_3/2": "group B 3\nL s = 1\nL t = 1\nL u = 3/2\n",
    "B3_0_0_1": "group B 3\nL s = 0\nL t = 0\nL u = 1\n",
    "B3_lex_e1_e1_e2": "group B 3\nL lex s = e_1\nL lex t = e_1\nL lex u = e_2\n",
    # The packed lex construction with two coordinates, past B3.
    "B4_lex_e1_e1_e1_e2": "group B 4\nL lex s = e_1\nL lex t = e_1\nL lex u = e_1\nL lex v = e_2\n",
    "I2(5)_lex_e1": "group I2 5\nL lex s = e_1\nL lex t = e_1\n",
    # Equal weights off 1 (the exponent grid is in units of the weight),
    # and equal positive weights with a zero-weight class.
    "A3_1/2": "group A 3\nL s = 1/2\nL t = 1/2\nL u = 1/2\n",
    "D4_2": "group D 4\nL s = 2\nL t = 2\nL u = 2\nL v = 2\n",
    "B3_1_1_0": "group B 3\nL s = 1\nL t = 1\nL u = 0\n",
    # Two slot boxes too wide to pack, built in the dict ring: lex weights
    # on five coordinates (3125 slots) and rational weights of ratio 1000
    # (8007 slots).
    "A1^5_lex_e1_e2_e3_e4_e5": "group matrix\n5\n2 2 2 2\n2 2 2\n2 2\n2\n"
                               + "".join(f"L lex {g} = e_{i}\n" for i, g in enumerate("stuvw", 1)),
    "I2(6)_1_1000": "group I2 6\nL s = 1\nL t = 1000\n",
}

F4_MATRIX = "group matrix\n4\n3 2 2\n4 2\n3\n"

SPECS_BY_COMMAND = {
    "klbasis": SPECS,
    # I2(25) has two left cells of 24 elements each; B4 (1,1,1,2) has 58
    # left cells of up to 14 elements, with class words of up to 16
    # letters, and A5 has 76 of up to 16 elements.  F4 reuses cell
    # characters along its diagram flip, with the classes permuted; F4
    # (1,1,2,2) has 92 left cells, and KL digits past 16.
    "cells": {**SPECS, "D4": "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n",
              "I2(25)": "group I2 25\nL s = 1\nL t = 1\n",
              "B4_1_1_1_2": "group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 2\n",
              "A5": "group A 5\nL s = 1\nL t = 1\nL u = 1\nL v = 1\nL w = 1\n",
              "F4": F4_MATRIX + "L s = 1\nL t = 1\nL u = 1\nL v = 1\n",
              "F4_1_1_2_2": F4_MATRIX + "L s = 1\nL t = 1\nL u = 2\nL v = 2\n"},
    # Rational tables (A3, B3, D4, B4, F4, D5), irrational real values
    # (H3, I2(5), I2(8)) and the reducible A1 x A2.
    "characters": {
        "A3": SPECS["A3"],
        "B3": "group B 3\nL s = 1\nL t = 1\nL u = 1\n",
        "D4": "group D 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n",
        "H3": SPECS["H3"],
        "I2(5)": "group I2 5\nL s = 1\nL t = 1\n",
        "I2(8)": "group I2 8\nL s = 1\nL t = 1\n",
        "B4": "group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 1\n",
        "F4": F4_MATRIX + "L s = 1\nL t = 1\nL u = 1\nL v = 1\n",
        "D5": "group D 5\nL s = 1\nL t = 1\nL u = 1\nL v = 1\nL w = 1\n",
        "A1xA2": "group matrix\n3\n2 2\n3\nL s = 1\nL t = 1\nL u = 1\n",
    },
}

# Commands that read or write a KL cache are run without one.
CACHE_FLAGS = {"klbasis": ["--no-cache"], "cells": ["--no-cache"], "characters": []}


def output_sha256(command: str, spec_text: str, tmp_dir: Path) -> str:
    path = tmp_dir / "group.spec"
    path.write_text(spec_text, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([command, str(path), *CACHE_FLAGS[command]])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def check_golden(command: str, name: str, tmp_dir: Path) -> None:
    specs = SPECS_BY_COMMAND[command]
    golden = json.loads((GOLDEN_DIR / f"{command}_sha256.json").read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(specs)
    assert output_sha256(command, specs[name], tmp_dir) == golden[name]


@pytest.mark.parametrize("name", sorted(SPECS_BY_COMMAND["klbasis"]))
def test_klbasis_bytes_match_golden(name, tmp_path):
    check_golden("klbasis", name, tmp_path)


@pytest.mark.parametrize("name", sorted(SPECS_BY_COMMAND["cells"]))
def test_cells_bytes_match_golden(name, tmp_path):
    check_golden("cells", name, tmp_path)


@pytest.mark.parametrize("name", sorted(SPECS_BY_COMMAND["cells"]))
def test_cache_of_every_golden_spec_loads(name):
    """`KLTable.from_json_dict` accepts the document that `to_cache_text`
    writes, and the table it loads writes the same file."""
    spec = parse_spec(SPECS_BY_COMMAND["cells"][name])
    algebra = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
    text = kl_basis(algebra).to_cache_text()
    assert KLTable.from_json_dict(json.loads(text), algebra).to_cache_text() == text


# The equal-parameter `cells` specs, and two with a zero-weight class or
# a lex weight past them.
EQUAL_SPECS = {
    **{name: SPECS_BY_COMMAND["cells"][name] for name in (
        "A3", "A3_1/2", "H3", "D4", "D4_2", "B3_1_1_0", "B3_0_0_1", "I2(5)_lex_e1",
        "I2(25)", "A5")},
    "B4_1_1_1_0": "group B 4\nL s = 1\nL t = 1\nL u = 1\nL v = 0\n",
    "A1^5_lex_e1": "group matrix\n5\n2 2 2 2\n2 2 2\n2 2\n2\n"
                   + "".join(f"L lex {g} = e_1\n" for g in "stuvw"),
}


@pytest.mark.parametrize("name", sorted(EQUAL_SPECS))
def test_derived_corrections_match_the_full_cancellation(name):
    """With equal parameters the table derives the corrections of every
    ascent pair from its stored rows; each equals the corrections of the
    full cancellation of C_s C_u (`_cancel_terms`), run on the rows of
    `to_json_dict` (`c_rows`)."""
    spec = parse_spec(EQUAL_SPECS[name])
    algebra = HeckeAlgebra(build_group(spec.matrix, gen_names=spec.gen_names), spec.weights)
    assert algebra.equal_parameters
    table = kl_basis(algebra)
    W, grid = algebra.group, algebra.grid
    rows = c_rows(table)
    for s, L in enumerate(algebra.weights.exps):
        if not algebra.positive[s]:
            continue
        v_pm = (LaurentElt.v_power(L, grid=grid), LaurentElt.v_power(-L, grid=grid))
        for u in range(len(W)):
            su = W.lmul_gen(s, u)
            if su > u:
                product = dict(table.cs_product_in_c(s, u))
                assert product.pop(su) == algebra.one_coeff()
                assert product == _cancel_terms(algebra, s, u, su, rows, *v_pm)[1], (
                    W.gen_names[s], W.name(u))


@pytest.mark.parametrize("name", sorted(SPECS_BY_COMMAND["characters"]))
def test_characters_bytes_match_golden(name, tmp_path):
    check_golden("characters", name, tmp_path)


if __name__ == "__main__":
    import tempfile
    command = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: output_sha256(command, text, Path(tmp))
                   for name, text in SPECS_BY_COMMAND[command].items()}
    sys.stdout.write(json.dumps(digests, sort_keys=True, indent=2) + "\n")
